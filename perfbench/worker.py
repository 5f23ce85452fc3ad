"""One benchmark run in a fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N
        (--seconds S | --ops K) [--trace] --workdir DIR

Run from the root of a checkout, with `src` on `PYTHONPATH`.  The
worker writes each framework as `.caba` text, calls `caba.cli.main`
in-process on it as a closed loop with one client, and checks every
output after the loop, outside the timed region.  It prints one JSON
object as its last line of standard output.

The ops run in blocks of `generators.BLOCK` frameworks, and each block
starts as a fresh process would: with the program's caches empty.  So
the caches help within a block only, and a faster machine, which runs
more blocks, does not also run more ops on warm caches.

The machine's speed drifts by a third and more within a minute, as
other guests of a shared host come and go.  So every op is bracketed by
two runs of `speed_probe`, a fixed piece of pure-Python work that does
not touch the program, and op times are reported at a reference speed:
wall time x `PROBE_REF_S` / the mean time of the two probes around it
(`at_reference_speed`).  A change of the program moves the op times and
not the probes, so it moves the reported times in full.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

import caba.cli  # noqa: E402
from caba import constraints  # noqa: E402

import checks  # noqa: E402
import generators  # noqa: E402
from tracing import CLI_MAIN, Tracer  # noqa: E402

CHECK_MODES = ("arguments", "attacks", "extension")
# What `speed_probe` takes at the reference speed: its median on the
# machine the baseline in README.md was measured on.
PROBE_REF_S = 0.01
# `setup_probe` runs after each block.  Its time is reported as measured,
# not at reference speed: the start of a process follows `speed_probe`
# too loosely for the scaling to steady it.
SETUP_PROBES = 1


def _solve_ring(index: int, path: str) -> list[str]:
    return ["extensions", "--semantics", "stable", path]


def _derive_chain(index: int, path: str) -> list[str]:
    return ["attacks", path]


def _oracle_bounded(index: int, path: str) -> list[str]:
    mode = CHECK_MODES[index % len(CHECK_MODES)]
    return ["check", path, "--universe", checks.UNIVERSE, "--mode", mode]


@dataclass(frozen=True)
class Workload:
    family: str  # generator in `generators.FAMILIES`
    argv: Callable[[int, str], list[str]]  # caba command for op i on a file
    check: Callable[[Path, str], str | None]  # a problem with the output


WORKLOADS = {
    "solve-ring": Workload("ring", _solve_ring, checks.solve_ring),
    "derive-chain": Workload("chain", _derive_chain, checks.derive_chain),
    "oracle-bounded": Workload("bounded", _oracle_bounded, checks.oracle_bounded),
}


@dataclass
class Op:
    index: int
    path: Path  # the framework
    seconds: float  # wall time
    probe: float  # mean `speed_probe` time just before and just after the op
    code: int | None  # None when the call raised
    output: Path  # standard output, kept on disk so that it does not count in the RSS
    error: str


def _call(main, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code: int | None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises is a failed op
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def _caches() -> list:
    """Every `functools` cache in the program's modules."""
    return [
        value
        for name, module in list(sys.modules.items())
        if name == "caba" or name.startswith("caba.")
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
        and callable(getattr(value, "cache_info", None))
        and not isinstance(value, type)
    ]


def speed_probe() -> float:
    """Wall time of a fixed piece of work like the program's own: exact
    rational arithmetic, tuples hashed into a dict, and a sort.  It
    uses the standard library only, so no change of the program moves
    it, and takes about 10 ms."""
    t0 = perf_counter()
    total = Fraction(0)
    seen = {}
    for i in range(1, 3000):
        total += Fraction(1, i % 97 + 1)
        seen[(i % 53, i % 7)] = total
    sorted(seen.items())
    return perf_counter() - t0


def setup_probe() -> float:
    """Wall time of a fresh interpreter that imports the CLI: the fixed
    cost that every `caba` invocation pays before its op."""
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-c", "import caba.cli"],
                          capture_output=True, text=True, timeout=60)
    dt = perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"importing caba failed: {done.stderr[-500:]}")
    return dt


@dataclass
class Loop:
    ops: list[Op]
    timed: int  # the first `timed` ops make up the measured blocks
    peak_rss_mb: float  # after the first block
    caches: dict[str, int]  # engine cache counters, summed over blocks
    setup: list[float]  # `setup_probe` times, `SETUP_PROBES` after each block


def run_loop(workload: Workload, seed: int, workdir: Path, main,
             seconds: float | None, ops: int | None,
             tracer: Tracer | None) -> Loop:
    """Closed loop, one client: the next op starts when the last ends.

    Ops run in blocks; before each block, outside the timed region, its
    frameworks are written and the caches emptied.  With `seconds`, the
    loop stops once the ops have taken that long, and only complete
    blocks are measured: the ops of the last, cut block ran on colder
    caches than the average and are checked but not timed.  After each
    block it also times `SETUP_PROBES` runs of `setup_probe`, so that
    they spread over the run like the ops.  With `ops`, every op is
    measured and no `setup_probe` runs.  A `speed_probe` runs before
    each block and after each op."""
    make = generators.FAMILIES[workload.family]
    block = generators.BLOCK[workload.family]
    done: list[Op] = []
    timed = 0
    busy = 0.0
    peak_rss_mb = 0.0
    totals: dict[str, int] = {}
    setup: list[float] = []
    if seconds is not None:
        setup_probe()  # compiles the bytecode, as an installed package has it
    while (ops is None or len(done) < ops) and (seconds is None or busy < seconds):
        start = len(done)
        paths = []
        for i in range(start, start + block):
            p = workdir / f"{workload.family}-{seed}-{i}.caba"
            p.write_text(make(seed, i), encoding="utf-8")
            paths.append(p)
        for cache in _caches():
            cache.cache_clear()
        gc.collect()
        before = speed_probe()
        for index, path in enumerate(paths, start):
            if (ops is not None and index == ops) or (seconds is not None and busy >= seconds):
                break
            argv = ["--format", "structured", *workload.argv(index, str(path))]
            t0 = perf_counter()
            code, out, err = _call(main, argv)
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            busy += dt
            after = speed_probe()
            output = path.with_suffix(".json")
            output.write_text(out, encoding="utf-8")
            done.append(Op(index, path, dt, (before + after) / 2, code, output, err))
            before = after
        else:
            timed = len(done)
        for key, n in _cache_counts().items():
            totals[key] = totals.get(key, 0) + n
        if not peak_rss_mb:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if seconds is not None:
            setup += [setup_probe() for _ in range(SETUP_PROBES)]
    if ops is not None:
        timed = len(done)
    return Loop(done, timed, peak_rss_mb, totals, setup)


def at_reference_speed(ops: list[Op]) -> list[float]:
    """Op times scaled to the speed at which `speed_probe` takes
    `PROBE_REF_S`."""
    return [op.seconds * PROBE_REF_S / op.probe for op in ops]


def check_all(workload: Workload, done: list[Op]) -> list[str]:
    """One message per failed op; an op fails if it raised, exited
    non-zero or its output fails the workload's check."""
    failures = []
    for op in done:
        if op.code != 0:
            failures.append(f"op {op.index}: exit {op.code}: {op.error.strip()[:300]}")
            continue
        problem = workload.check(op.path, op.output.read_text(encoding="utf-8"))
        if problem:
            failures.append(f"op {op.index}: {problem}")
    return failures


def _cache_counts() -> dict[str, int]:
    """Hits, misses and entries of the engine's consistency and
    simplification caches since they were last emptied; empty for a
    cache that no longer exists."""
    out = {}
    for key, name in (("consistency", "_conj_consistent"), ("simplify", "_simplify")):
        info = getattr(getattr(constraints, name, None), "cache_info", None)
        if info is not None:
            i = info()
            out[f"{key}_hits"] = i.hits
            out[f"{key}_misses"] = i.misses
            out[f"{key}_entries"] = i.currsize
    return out


def layer_metrics(tr: Tracer, n: int, blocks: int, caches: dict) -> dict[str, float]:
    """Per-op means of the traced spans, named by layer; `caches` holds
    the cache counters summed over `blocks` blocks."""
    t, c, s = tr.total, tr.calls, tr.size

    def per_op(x: float) -> float:
        return x / n

    repairs = c.get("splitting.split_ci", 0) + c.get("splitting.split_pa", 0)
    split = "splitting.argument_splitting"
    sem = "semantics.enumerate_extensions"
    att = "attacks.attack_graph"
    m = {
        "splitting.scan_s": per_op(
            t.get(split, 0.0)
            - tr.children_time(split, {"splitting.split_ci", "splitting.split_pa"})
        ),
        "splitting.attack_checks_per_repair": (
            c.get("splitting.attack_check", 0) / repairs if repairs else 0.0
        ),
        "splitting.split_ci_calls": per_op(c.get("splitting.split_ci", 0)),
        "splitting.split_pa_calls": per_op(c.get("splitting.split_pa", 0)),
        "splitting.basis_size": per_op(s.get(split, 0)),
        "semantics.search_s": per_op(t.get(sem, 0.0) - tr.children_time(sem)),
        "semantics.extensions": per_op(s.get(sem, 0)),
        "equivalence.common_instances_calls": per_op(
            c.get("equivalence.common_instances", 0)
        ),
        "equivalence.common_instances_s": per_op(
            t.get("equivalence.common_instances", 0.0)
        ),
        "equivalence.compliance_s": per_op(t.get("equivalence.compliance", 0.0)),
        "equivalence.denotation_calls": per_op(c.get("equivalence.denotation", 0)),
        "arguments.build_mgcarg_s": per_op(t.get("arguments.build_mgcarg", 0.0)),
        "arguments.args": per_op(s.get("arguments.build_mgcarg", 0)),
        "attacks.attack_graph_s": per_op(t.get(att, 0.0)),
        "attacks.self_s": per_op(t.get(att, 0.0) - tr.children_time(att)),
        "attacks.edges": per_op(s.get(att, 0)),
    }
    for fn in ("is_consistent", "project", "entails_projected", "constraint_split"):
        m[f"constraints.{fn}_calls"] = per_op(c.get(f"constraints.{fn}", 0))
        m[f"constraints.{fn}_s"] = per_op(t.get(f"constraints.{fn}", 0.0))
    for key, name in (
        ("consistency_hits", "consistency_cache_hits"),
        ("consistency_misses", "consistency_cache_misses"),
        ("simplify_misses", "simplify_cache_misses"),
    ):
        if key in caches:
            m[f"constraints.{name}"] = per_op(caches[key])
    if "consistency_entries" in caches:
        # entries at the end of a block, the largest the caches grow
        m["constraints.cache_entries"] = (
            caches["consistency_entries"] + caches.get("simplify_entries", 0)
        ) / blocks
    for fn in ("is_confined", "ground", "classical_arguments", "cross_check"):
        m[f"oracle.{fn}_s"] = per_op(t.get(f"oracle.{fn}", 0.0))
    m["parser.parse_file_s"] = per_op(t.get("parser.parse_file", 0.0))
    m["cli.self_s"] = per_op(t.get(CLI_MAIN, 0.0) - tr.children_time(CLI_MAIN))
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    limit = ap.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--ops", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    args.workdir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    tracer = Tracer() if args.trace else None
    main_fn = caba.cli.main
    try:
        if tracer is not None:
            tracer.install()
            main_fn = tracer.wrap(CLI_MAIN, caba.cli.main)
        try:
            loop = run_loop(workload, args.seed, workdir, main_fn,
                            args.seconds, args.ops, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        failures = check_all(workload, loop.ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = loop.ops[: loop.timed]
    if not measured:
        print(f"worker: not one block of {args.workload} completed", file=sys.stderr)
        return 1
    times = sorted(at_reference_speed(measured))
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    result = {
        "attempted": len(loop.ops),
        "failed": len(failures),
        "failures": failures[:20],
        "measured": len(measured),
        "op_p50_s": statistics.median(times),
        "op_p90_s": p90,
        "ops_beyond_p90": sum(t > p90 for t in times),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": loop.peak_rss_mb,
    }
    if loop.setup:
        result["setup_s"] = statistics.median(loop.setup)
    if tracer is not None:
        blocks = -(-len(loop.ops) // generators.BLOCK[workload.family])
        result["layers"] = layer_metrics(tracer, len(loop.ops), blocks, loop.caches)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
