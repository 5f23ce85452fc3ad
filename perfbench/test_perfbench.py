"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import generators  # noqa: E402
import worker  # noqa: E402
import caba.cli  # noqa: E402
from caba import constraints, parse  # noqa: E402
from tracing import PATCHES, Tracer  # noqa: E402

SAMPLE = range(12)


def _digest(family: str, seed: int) -> str:
    h = hashlib.sha256()
    for i in SAMPLE:
        h.update(generators.FAMILIES[family](seed, i).encode())
    return h.hexdigest()


@pytest.mark.parametrize("family", sorted(generators.FAMILIES))
def test_same_seed_gives_identical_files_in_another_process(family):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import test_perfbench as t; print(t._digest(sys.argv[2], 7))"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    other = subprocess.run(
        [sys.executable, "-c", code, str(HERE), family],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.strip()
    assert other == _digest(family, 7)


@pytest.mark.parametrize("family", sorted(generators.FAMILIES))
def test_seeds_differ(family):
    assert _digest(family, 1) != _digest(family, 2)


@pytest.mark.parametrize("family", sorted(generators.FAMILIES))
def test_generated_frameworks_are_valid(family):
    for i in SAMPLE:
        parse(generators.FAMILIES[family](3, i))


@pytest.mark.parametrize("family", sorted(generators.FAMILIES))
def test_blocks_repeat_their_shapes(family):
    """Frameworks a block apart differ in constants only."""
    block = generators.BLOCK[family]
    make = generators.FAMILIES[family]
    for i in SAMPLE:
        first, later = (re.sub(r"\d+(/\d+)?", "N", make(5, j)) for j in (i, i + block))
        assert first == later


def test_block_reset_reaches_the_engine_caches():
    caches = worker._caches()
    assert constraints._conj_consistent in caches
    assert constraints._simplify in caches


def _ops(times: list[float], probe: float) -> list:
    return [worker.Op(i, Path(), t, probe, 0, Path(), "") for i, t in enumerate(times)]


def test_reference_speed_takes_out_a_slower_machine_and_keeps_a_slower_program():
    times = [0.1, 0.2, 0.4]
    ref = worker.PROBE_REF_S
    assert worker.at_reference_speed(_ops(times, ref)) == times
    slower_machine = _ops([1.5 * t for t in times], 1.5 * ref)
    assert worker.at_reference_speed(slower_machine) == pytest.approx(times)
    slower_program = _ops([1.5 * t for t in times], ref)
    assert worker.at_reference_speed(slower_program) == pytest.approx([1.5 * t for t in times])


def test_speed_probe_does_not_call_the_program():
    tracer = Tracer()
    tracer.install()
    try:
        worker.speed_probe()
    finally:
        tracer.uninstall()
    assert not tracer.spans


def test_tracer_restores_every_function():
    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in PATCHES}
    tracer = Tracer()
    tracer.install()
    try:
        assert all(
            getattr(importlib.import_module(m), a) is not f
            for (m, a), f in before.items()
        )
    finally:
        tracer.uninstall()
    assert all(
        getattr(importlib.import_module(m), a) is f for (m, a), f in before.items()
    )


def _traced_counts(tmp_path: Path) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "oracle-bounded",
         "--seed", "4", "--ops", "9", "--trace", "--workdir", str(tmp_path)],
        capture_output=True, text=True, check=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["failed"] == 0
    return {k: v for k, v in result["layers"].items() if not k.endswith("_s")}


def test_traced_counts_repeat_across_processes(tmp_path):
    assert _traced_counts(tmp_path) == _traced_counts(tmp_path)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-ring",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _output(tmp_path: Path, family: str, index: int, argv: list[str]) -> tuple[Path, str]:
    path = tmp_path / f"{family}.caba"
    path.write_text(generators.FAMILIES[family](9, index), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert caba.cli.main(["--format", "structured", *argv, str(path)]) == 0
    return path, out.getvalue()


def test_ring_check_rejects_a_wrong_extension(tmp_path):
    path, out = _output(tmp_path, "ring", 3, ["extensions", "--semantics", "stable"])
    assert checks.solve_ring(path, out) is None
    result = json.loads(out)
    assert result["extensions"], "an n = 2 ring has stable extensions"
    result["extensions"][0]["members"] = [a["id"] for a in result["basis"]]
    assert checks.solve_ring(path, json.dumps(result)) is not None


def test_chain_check_rejects_a_missing_attack(tmp_path):
    path, out = _output(tmp_path, "chain", 0, ["attacks"])
    assert checks.derive_chain(path, out) is None
    assert checks.derive_chain(path, json.dumps({"attacks": []})) is not None


def test_bounded_check_rejects_a_partial_match(tmp_path):
    path, out = _output(tmp_path, "bounded", 0, ["check", "--universe", "0..8", "--mode", "attacks"])
    assert checks.oracle_bounded(path, out) is None
    result = json.loads(out)
    result["reports"][0]["verdict"] = "PARTIAL"
    assert checks.oracle_bounded(path, json.dumps(result)) is not None
