"""One fresh benchmark process, started by run.py with the thread pins set.

It times ``import convgate`` plus building the workload inputs, then runs
passes (every runner call of the workload, each report rendered to JSON and
CSV) until the next pass would end after ``--seconds``, at least one. With
``--trace 1`` it then runs two traced passes and derives the per-layer
metrics. Its last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
import tracing

ROOT = Path(__file__).resolve().parent.parent
PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_pass(pipeline, calls):
    """Run every call; returns [(key, report or None, json, csv)]."""
    out = []
    for key, runner, config in calls:
        try:
            report = getattr(pipeline, runner)(config)
            out.append((key, report, report.to_json(), report.to_csv()))
        except Exception:  # a failed call is counted, not fatal
            traceback.print_exc()
            out.append((key, None, "", ""))
    return out


def _hashes(results) -> dict:
    return {key: [hashlib.sha256(j.encode()).hexdigest(), hashlib.sha256(c.encode()).hexdigest()]
            for key, report, j, c in results if report is not None}


def _build_info() -> dict:
    import numpy
    import scipy

    info = {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}
    for name, module in (("numpy", numpy), ("scipy", scipy)):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            info[f"{name}_blas"] = {k: deps["blas"].get(k) for k in ("name", "version")}
        except (TypeError, KeyError, AttributeError) as exc:
            info[f"{name}_blas"] = f"unavailable: {exc!r}"
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="JSON-lines file for the traced spans")
    args = parser.parse_args(argv)

    pins = {k: os.environ.get(k) for k in PIN_VARS}
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pins were recorded")
    src = ROOT / "src"
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import convgate
    import workloads

    if not Path(convgate.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"convgate imported from {convgate.__file__}, not {src}")
    pipeline = convgate.pipeline
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer(keep=layers.RECONSTRUCTIONS) if args.trace else None
    absent = []
    if tracer is None:
        calls = workload.calls(args.seed)
    else:
        with tracer.installed(layers.LAYERS) as absent, tracer.span("setup") as setup_span:
            calls = workload.calls(args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    all_passes, pass_seconds = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results = run_pass(pipeline, calls)
        pass_seconds.append(time.perf_counter() - t)
        all_passes.append(results)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_seconds) > args.seconds:
            break
    report_s = statistics.median(pass_seconds)

    out = {"setup_s": setup_s, "pass_seconds": pass_seconds, "report_s": report_s,
           "pins": pins, "build": _build_info(), "samples": workload.samples,
           "mean_counts": workload.mean_counts}

    if tracer is not None:
        roots = []
        with tracer.installed(layers.LAYERS):
            for _ in range(2):
                with tracer.span("pass") as root:
                    all_passes.append(run_pass(pipeline, calls))
                roots.append(root.id)
        # everything below runs with the patches removed, outside every span
        per_pass = [layers.pass_metrics(tracer.spans, r) for r in roots]
        (first, total_a), (second, total_b) = per_pass
        unstable = [k for k in layers.STABLE_COUNTS if first[k] != second[k]]
        metrics = {k: (v + second[k]) / 2 if isinstance(v, float) else v
                   for k, v in first.items()}
        metrics["noise.calibrate_s"] = layers.calibrate_seconds(tracer.spans, setup_span.id)
        gap = layers.GapBound()
        metrics["tomography.gap_bound_max"] = max(
            (gap(d, r) for d, r in layers.reconstructions(tracer.spans, roots[0])),
            default=0.0)
        metrics["trace.overhead_frac"] = (total_a + total_b) / 2 / report_s - 1.0
        out.update(layers=metrics, unstable_counts=unstable, absent_layers=absent,
                   traced_totals=[total_a, total_b])
        if args.spans:
            tracer.write_jsonl(args.spans)

    attempted = failed = 0
    reference = _hashes(all_passes[0])
    mismatched = []
    for index, results in enumerate(all_passes):
        hashes = _hashes(results)
        for key, report, _, _ in results:
            n, bad = workloads.check_report(workload, key, report)
            if report is not None and hashes[key] != reference.get(key):
                mismatched.append([index, key])
                bad = n
            attempted += n
            failed += bad
    out.update(attempted=attempted, failed=failed, hashes=reference,
               hash_mismatches=mismatched,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
