"""The caba benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  With ``--trace 0`` it prints the
end-to-end metrics of a run of S seconds of op time; with ``--trace 1``
the per-layer metrics of a traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# Ops per traced run, for each phase (untraced and traced): fixed, so
# that the counts of two traced runs of one seed repeat exactly, and a
# whole number of blocks (`generators.BLOCK`).
TRACE_OPS = {"solve-ring": 60, "derive-chain": 60, "oracle-bounded": 180}
DEADLINE_S = 170  # every run must end within 180 s


class BenchError(Exception):
    pass


def _env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def worker(root: Path, args: list[str], deadline: float) -> dict:
    argv = [sys.executable, str(root / "perfbench" / "worker.py"),
            "--workdir", str(root / ".bench_build" / "perfbench"), *args]
    try:
        done = subprocess.run(argv, cwd=root, env=_env(root), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(f"worker {args} ran past the deadline") from None
    if done.returncode != 0:
        raise BenchError(f"worker {args} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    unit = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        r = worker(root, [*common, "--seconds", str(seconds)], deadline)
        runs = [r]
        metrics = {
            "op_p50_s": r["op_p50_s"],
            "op_p90_s": r["op_p90_s"],
            "ops_per_s": r["ops_per_s"],
            "setup_s": r["setup_s"],
            "peak_rss_mb": r["peak_rss_mb"],
            "ok_ratio": (r["attempted"] - r["failed"]) / r["attempted"],
        }
    else:
        ops = ["--ops", str(TRACE_OPS[workload])]
        plain = worker(root, [*common, *ops], deadline)
        traced = worker(root, [*common, *ops, "--trace"], deadline)
        runs = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["op_p50_s"] / plain["op_p50_s"]
    for r in runs:
        for f in r["failures"]:
            print(f"failed: {f}", file=sys.stderr)
    failed = sum(r["failed"] for r in runs)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one workload of the caba benchmark.")
    ap.add_argument("--workload", choices=sorted(TRACE_OPS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "caba" / "cli.py").is_file():
        print("perfbench: no src/caba here; run from the root of a caba checkout",
              file=sys.stderr)
        return 2
    try:
        result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
