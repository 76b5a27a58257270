"""convgate benchmark: one command per workload run.

    python3 perfbench/run.py --workload process-noisy --seed 1 --seconds 20 --trace 0

Every measurement runs in a fresh worker process (worker.py) with one BLAS
and OpenMP thread, pinned in its environment before numpy is imported. The
loop is closed with one client: a pass starts when the previous one ends.

With ``--trace 0`` the run times set-up in several fresh processes and the
passes of one more, and prints the end-to-end metrics. With ``--trace 1`` it
prints the per-layer metrics of two traced passes instead. Either way the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a run record and, when traced, the spans as JSON
lines are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("process-noisy", "process-ideal", "state-mc")
#: Fresh set-up-only processes per untraced run; the measuring process adds one.
SETUP_REPEATS = 6
#: A run must end within this many seconds of its start.
RUN_BUDGET_S = 175.0

END_TO_END = (
    ("setup_s", "s"),
    ("report_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and parse its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=pinned_env(),
        stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def code_sha256() -> str:
    """Identity of the code under test: sha256 over its Python sources."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def earlier_hashes(out_dir: Path, workload: str, seed: int, code: str):
    """(record name, report hashes) of earlier runs of this code and seed."""
    for trace in (0, 1):
        path = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if record.get("code_sha256") == code:
            yield path.name, record["worker"]["hashes"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "convgate" / "__init__.py").is_file():
        print(f"error: no convgate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup_runs(n: int) -> list[float]:
        return [run_worker(common + ["--setup-only"], deadline)["setup_s"] for _ in range(n)]

    # set-up samples before and after the passes span the run's whole window
    setups = [] if args.trace else setup_runs(SETUP_REPEATS // 2)
    main_run = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                    "--spans", str(out_dir / f"{stem}.spans.jsonl")],
                          deadline)
    setups.append(main_run["setup_s"])
    if not args.trace:
        setups += setup_runs(SETUP_REPEATS - SETUP_REPEATS // 2)

    if args.trace:
        metrics = {name: {"value": main_run["layers"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = {"setup_s": statistics.median(setups), "report_s": main_run["report_s"],
                  "peak_rss_mb": main_run["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    problems = []
    if main_run["hash_mismatches"]:
        problems.append(f"report hashes differ between passes: {main_run['hash_mismatches']}")
    if main_run.get("unstable_counts"):
        problems.append(f"counts differ between traced passes: {main_run['unstable_counts']}")
    code = code_sha256()
    for name, hashes in earlier_hashes(out_dir, args.workload, args.seed, code):
        if hashes != main_run["hashes"]:
            problems.append(f"report hashes differ from the earlier run in {name}")
    if main_run["failed"]:
        problems.append(f"{main_run['failed']} of {main_run['attempted']} report rows failed")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name in main_run.get("absent_layers", []):
        print(f"layer absent: {name}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "code_sha256": code,
        "nproc": os.cpu_count(), "platform": platform.platform(), "setup_seconds": setups,
        "worker": main_run, "metrics": metrics, "problems": problems,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": main_run["attempted"],
                      "failed": main_run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
