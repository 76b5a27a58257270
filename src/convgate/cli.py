"""Command-line interface.

Subcommands: ``gate``, ``convert``, ``tomo simulate``, ``tomo reconstruct``,
``metrics`` and ``reproduce``. Angles accept decimal radians or rational
multiples of pi written like ``3pi/8``. Qubit targets on the command line are
1-based (the library API is 0-based). Exit codes: 0 success, 2 invalid
arguments, 3 numerical-domain errors, 4 degenerate post-selection outcomes.

Input files name their own kind: ``tomo reconstruct`` fits a state to a
single-preparation dataset and a process to any other, and ``metrics
--estimate`` takes a state or a Choi file. Artifacts written by ``gate``,
``convert``, ``tomo`` and ``metrics`` get a ``<name>.meta.json`` sibling with
the command line, seed and tool version; ``reproduce`` reports carry their
provenance (version, config, config hash and seed) in their own ``metadata``
block.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import noise as _noise
from . import pipeline, serialize, tomography
from ._version import __version__
from .core import (
    ChoiProcess,
    PureState,
    apply_choi_channel,
    apply_operator,
    normalize_state,
)
from .errors import InvalidArgumentError, ToolkitError
from .gate import (
    PRESET_NAMES,
    GateSettings,
    build_gate,
    cluster_state_c4,
    gate_coefficients,
    ideal_choi,
    preset,
)
from .metrics import (
    METRIC_NAMES,
    metric_function,
    phase_optimized_fidelity,
)

_ANGLE_RE = re.compile(r"^\s*(-?)(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$")


def parse_angle(text: str) -> float:
    """Parse ``0.75``, ``pi/4``, ``3pi/8`` or ``-pi`` into radians."""
    match = _ANGLE_RE.match(text)
    if match:
        sign = -1.0 if match.group(1) else 1.0
        numerator = float(match.group(2)) if match.group(2) else 1.0
        denominator = float(match.group(3)) if match.group(3) else 1.0
        return sign * numerator * np.pi / denominator
    try:
        return float(text)
    except ValueError:
        raise InvalidArgumentError(
            f"cannot parse angle {text!r}; use radians or fractions like 3pi/8"
        ) from None


def format_angle(theta: float) -> str:
    """Shortest decimal that parses back to exactly the same float."""
    return repr(float(theta))


def _settings_from_args(args) -> GateSettings:
    if args.preset is not None:
        if args.theta1 is not None or args.theta2 is not None:
            raise InvalidArgumentError("give either --preset or --theta1/--theta2, not both")
        return preset(args.preset).settings
    if args.theta1 is None or args.theta2 is None:
        raise InvalidArgumentError("need --preset or both --theta1 and --theta2")
    return GateSettings(parse_angle(args.theta1), parse_angle(args.theta2))


def _write_with_metadata(payload: dict, path: str, args, seed=None) -> None:
    serialize.dump_json(payload, path)
    meta = {
        "command": " ".join(sys.argv[:1] + list(getattr(args, "_argv", []))),
        "arguments": {k: v for k, v in vars(args).items()
                      if not k.startswith("_") and k != "func" and v is not None},
        "seed": seed,
        "version": __version__,
    }
    serialize.dump_json(meta, str(path) + ".meta.json")


def _ensure_seed(args) -> int:
    if args.seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**31))
        print(f"generated seed: {seed}", file=sys.stderr)
        return seed
    return int(args.seed)


def cmd_gate(args) -> int:
    settings = _settings_from_args(args)
    matrix = build_gate(settings)
    coeff = gate_coefficients(settings)
    norm = float(np.linalg.norm(matrix, ord=2))
    print(f"theta1 = {format_angle(settings.theta1)}  theta2 = {format_angle(settings.theta2)}")
    print(f"alpha1-beta1 = {coeff.alpha1 - coeff.beta1:+.12f}  "
          f"alpha2-beta2 = {coeff.alpha2 - coeff.beta2:+.12f}")
    print(f"mu1 = {coeff.mu1:+.12f}  mu2 = {coeff.mu2:+.12f}")
    print(f"operator norm = {norm:.12f}")
    if args.out:
        _write_with_metadata(serialize.matrix_to_json(matrix), args.out, args)
        print(f"wrote {args.out}")
    return 0


def cmd_convert(args) -> int:
    settings = _settings_from_args(args)
    if args.state_in:
        state = serialize.state_from_json(serialize.load_json(args.state_in))
    else:
        state = cluster_state_c4()
    if args.targets:
        try:
            one_based = [int(t) for t in args.targets.split(",")]
        except ValueError:
            raise InvalidArgumentError(f"cannot parse targets {args.targets!r}") from None
        targets = tuple(t - 1 for t in one_based)
        if any(t < 0 for t in targets):
            raise InvalidArgumentError("targets are 1-based qubit positions")
    else:
        targets = (1, 2) if state.qubits == 4 else (0, 1)

    if isinstance(state, PureState):
        out, prob = normalize_state(apply_operator(state, build_gate(settings), targets))
    else:
        out, prob = apply_choi_channel(state, ideal_choi(settings), targets)
    print(f"success probability = {prob:.12f}")
    if args.out:
        _write_with_metadata(serialize.state_to_json(out), args.out, args)
        print(f"wrote {args.out}")
    return 0


def cmd_tomo_simulate(args) -> int:
    settings = _settings_from_args(args)
    chi = ideal_choi(settings)
    if args.noise:
        spec = serialize.noise_spec_from_json(serialize.load_json(args.noise))
        chi = _noise.apply_channel_noise(chi, spec)
    seed = _ensure_seed(args)
    data = tomography.simulate_counts(chi, args.mean_counts, seed)
    _write_with_metadata(serialize.dataset_to_json(data), args.out, args, seed=seed)
    print(f"wrote {args.out} ({data.total()} total counts over {len(data)} settings)")
    return 0


def cmd_tomo_reconstruct(args) -> int:
    data = serialize.dataset_from_json(serialize.load_json(args.data))
    if args.prep:
        data = data.restrict_to(tuple(args.prep.split(",")))
    options = tomography.MLEOptions(tol=args.tol, max_iter=args.max_iter)
    report = tomography.reconstruct(data, options)
    to_json = (serialize.choi_to_json if isinstance(report.estimate, ChoiProcess)
               else serialize.state_to_json)
    _write_with_metadata(to_json(report.estimate), args.out, args)
    info = {
        "iterations": report.iterations,
        "final_log_likelihood": report.final_log_likelihood,
        "converged": report.converged,
        "metadata": report.metadata,
    }
    if args.report:
        _write_with_metadata(info, args.report, args)
    print(f"iterations = {report.iterations}, converged = {report.converged}")
    print(f"mean log-likelihood = {report.final_log_likelihood:.12f}")
    print(f"wrote {args.out}")
    return 0


def _load_state_or_choi(path):
    obj = serialize.load_json(path)
    if obj.get("kind") == "choi":
        return serialize.choi_from_json(obj)
    state = serialize.state_from_json(obj)
    return state.density() if isinstance(state, PureState) else state


def cmd_metrics(args) -> int:
    estimate = _load_state_or_choi(args.estimate)
    target = _load_state_or_choi(args.target) if args.target else None
    names = list(dict.fromkeys(args.metric or []))
    if not names:
        raise InvalidArgumentError("request at least one --metric")

    functions = {name: metric_function(name, target) for name in names}
    values, phases = {}, None
    for name, fn in functions.items():
        if name == "process-fidelity-optimized":
            # one optimization yields both the value and its phases
            value, correction = phase_optimized_fidelity(estimate, target)
            phases = list(correction.phases)
        else:
            value = fn(estimate)
        values[name] = float(value)
    stds, seed = {}, None
    if args.monte_carlo is not None:
        if not args.data:
            raise InvalidArgumentError("--monte-carlo needs --data with the counts")
        data = serialize.dataset_from_json(serialize.load_json(args.data))
        # the counts must be of the estimate's kind: the dataset picks its
        # reconstruction from its preparations
        if isinstance(estimate, ChoiProcess):
            data.require_full()
        else:
            data.single_preparation()
        seed = _ensure_seed(args)
        table = tomography.monte_carlo_metric_table(data, args.monte_carlo, functions, seed)
        stds = {name: std for name, (_, std) in table.items()}

    reports = []
    for name in names:
        value, std = values[name], stds.get(name)
        metadata = ({} if args.monte_carlo is None
                    else {"n_samples": args.monte_carlo, "seed": seed})
        if name == "process-fidelity-optimized":
            metadata["phases"] = phases
        reports.append({"name": name, "value": value, "std": std, "metadata": metadata})
        line = f"{name} = {value:.9f}"
        if std is not None:
            line += f" ± {std:.9f}"
        print(line)

    if args.out:
        _write_with_metadata({"metrics": reports}, args.out, args)
        print(f"wrote {args.out}")
    return 0


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    needs_seed = args.target != "table1"
    seed = _ensure_seed(args) if needs_seed else None

    config = pipeline.ExperimentConfig(
        mean_counts=args.mean_counts,
        seed=seed,
        monte_carlo_samples=args.samples,
    )
    if args.noise and args.target != "table1":
        spec = serialize.noise_spec_from_json(serialize.load_json(args.noise))
        config = dataclasses.replace(config, noise=spec)
    if args.target == "table1":
        report = pipeline.run_table1()
    elif args.target == "table2-sim":
        report = pipeline.run_tomography_suite(config)
    elif args.target == "entangler":
        report = pipeline.run_entangler_demo(config)
    elif args.target == "discord":
        report = pipeline.run_discord_demo(config)
    elif args.target == "table3":
        report = pipeline.run_table3(config, calibrate_channels=not args.ideal_channels)
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidArgumentError(f"unknown reproduction target {args.target!r}")

    base = out_dir / report.title
    Path(f"{base}.json").write_text(report.to_json())
    Path(f"{base}.csv").write_text(report.to_csv())
    for row in report.rows:
        std = "" if row.std is None else f" ± {row.std:.6f}"
        print(f"{row.label:45s} {row.value:.6f}{std}")
    print(f"wrote {base}.json and {base}.csv")
    return 0


def _add_settings_arguments(parser) -> None:
    parser.add_argument("--preset", choices=list(PRESET_NAMES), help="named operating point")
    parser.add_argument("--theta1", help="first wave-plate angle (radians or e.g. 3pi/8)")
    parser.add_argument("--theta2", help="second wave-plate angle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convgate",
        description="Simulation and tomography toolkit for the two-qubit conversion gate",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gate = sub.add_parser("gate", help="inspect the gate operator")
    _add_settings_arguments(p_gate)
    p_gate.add_argument("--out", help="write the 4x4 matrix JSON here")
    p_gate.set_defaults(func=cmd_gate)

    p_conv = sub.add_parser("convert", help="convert a state through the gate")
    _add_settings_arguments(p_conv)
    p_conv.add_argument("--state-in", help="input state JSON (default: the linear cluster state)")
    p_conv.add_argument("--targets", help="1-based qubit pair, e.g. 2,3 (default for 4 qubits)")
    p_conv.add_argument("--out", help="write the normalized output state here")
    p_conv.set_defaults(func=cmd_convert)

    p_tomo = sub.add_parser("tomo", help="simulate or reconstruct tomography")
    tomo_sub = p_tomo.add_subparsers(dest="tomo_command", required=True)

    p_sim = tomo_sub.add_parser("simulate", help="simulate the 324-setting experiment")
    _add_settings_arguments(p_sim)
    p_sim.add_argument("--noise", help="noise spec JSON applied to the ideal channel")
    p_sim.add_argument("--mean-counts", type=float, required=True)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_tomo_simulate)

    p_rec = tomo_sub.add_parser("reconstruct", help="maximum-likelihood reconstruction")
    p_rec.add_argument("--data", required=True, help="coincidence dataset JSON")
    p_rec.add_argument("--prep", help="fit the output state of one preparation, e.g. H,+")
    p_rec.add_argument("--tol", type=float, default=tomography.MLEOptions.tol)
    p_rec.add_argument("--max-iter", type=int, default=tomography.MLEOptions.max_iter)
    p_rec.add_argument("--out", required=True)
    p_rec.add_argument("--report", help="write the reconstruction report here")
    p_rec.set_defaults(func=cmd_tomo_reconstruct)

    p_met = sub.add_parser("metrics", help="evaluate figures of merit")
    p_met.add_argument("--estimate", required=True, help="state or process JSON")
    p_met.add_argument("--target", help="target state/process JSON for fidelity metrics")
    p_met.add_argument("--metric", action="append", choices=list(METRIC_NAMES))
    p_met.add_argument("--monte-carlo", type=int, metavar="N",
                       help="attach stds from N Poisson resamples (needs --data)")
    p_met.add_argument("--data", help="counts used for Monte Carlo resampling")
    p_met.add_argument("--seed", type=int)
    p_met.add_argument("--out", help="write a metric report JSON here")
    p_met.set_defaults(func=cmd_metrics)

    p_rep = sub.add_parser("reproduce", help="run a benchmark pipeline")
    p_rep.add_argument("target", choices=["table1", "table2-sim", "entangler", "discord", "table3"])
    p_rep.add_argument("--seed", type=int)
    p_rep.add_argument("--out-dir", default=".")
    p_rep.add_argument("--mean-counts", type=float, default=1000.0)
    p_rep.add_argument("--samples", type=int, default=1000,
                       help="Monte Carlo samples per reported quantity")
    p_rep.add_argument("--noise", help="noise spec JSON applied to the channels")
    p_rep.add_argument("--ideal-channels", action="store_true",
                       help="table3 only: use ideal channels instead of calibrated ones")
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
