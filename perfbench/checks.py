"""Correctness checks of one op's structured output.

Each check returns None when the output is right, else a one-line
description of the problem.  Every check compares the output with the
grounding oracle; the checks run after the timed loop, so their cost
is not measured.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from caba import (
    ConstrainedArgument,
    build_mgcarg,
    classical_arguments,
    classical_attacks,
    cross_check,
    ground,
    parse,
    parse_file,
)

UNIVERSE = "0..8"
POINTS = tuple(Fraction(i) for i in range(9))


def _arguments(objects: list[dict]) -> dict[str, ConstrainedArgument]:
    """Rebuild printed arguments by parsing each one back as a rule
    ``claim <- assumptions, constraints.``"""
    text = "".join(
        f"{o['claim']} <- {', '.join(o['assumptions'] + o['constraints'])}.\n"
        for o in objects
    )
    rules = parse(text).rules
    return {
        o["id"]: ConstrainedArgument(
            o["id"],
            r.head,
            frozenset(r.body_constraints),
            frozenset(r.body_atoms),
            frozenset(o["rules"]),
        )
        for o, r in zip(objects, rules)
    }


def _around_thresholds(text: str) -> list[Fraction]:
    """Each threshold ``X >= t`` of a ring and the points 1/6 either side."""
    ts = [Fraction(t) for t in re.findall(r">= ([0-9/]+)\.", text)]
    return sorted({t + d for t in ts for d in (Fraction(-1, 6), 0, Fraction(1, 6))})


def solve_ring(path: Path, stdout: str) -> str | None:
    """Each stable extension printed must ground to a stable extension
    of the grounding over the points around the thresholds, where the
    attacks switch on.  The variables are not confined to those points,
    so the oracle can only falsify (PARTIAL is accepted)."""
    out = json.loads(stdout)
    basis = _arguments(out["basis"])
    if len(basis) != len(out["basis"]):
        return "basis ids are not unique"
    text = path.read_text(encoding="utf-8")
    fw = parse(text)
    points = _around_thresholds(text)
    for ext in out["extensions"]:
        if not set(ext["members"]) <= set(basis):
            return f"extension {ext['members']} names arguments outside the basis"
        report = cross_check(fw, points, [basis[m] for m in ext["members"]], "extension")
        if report.verdict == "MISMATCH":
            return f"extension {ext['members']}: {report.witness}"
    return None


def _origin(claim_predicate: str, rules: frozenset[str]) -> tuple[str, frozenset[str]]:
    # ground rule ids are "R3@<values>"; the derivation is their rule set
    return claim_predicate, frozenset(r.split("@", 1)[0] for r in rules)


def derive_chain(path: Path, stdout: str) -> str | None:
    """Every attack of the grounding must have a native attack between
    the arguments its ends instantiate.

    The chain's intermediate variables make `cross_check` ground nine
    values per variable, too many to run, so each ground argument is
    matched to the native argument with its claim predicate and rule
    set instead; in these frameworks one derivation has each rule set.
    Regions are rational intervals, not confined to the universe, so
    only this direction holds, as in `cross_check`'s unconfined case.
    """
    edges = json.loads(stdout)["attacks"]
    fw = parse_file(path)
    native = {_origin(a.claim.predicate, a.rules_used): a.id for a in build_mgcarg(fw)}
    ids = set(native.values())
    pairs = set()
    for e in edges:
        if e["attacker"] not in ids or e["target"] not in ids:
            return f"edge {e} names an unknown argument"
        if e["kind"] not in ("full", "partial"):
            return f"edge {e} has an unknown kind"
        pairs.add((e["attacker"], e["target"]))
    g = ground(fw, POINTS)
    args = classical_arguments(g)
    for x, y in classical_attacks(g, args):
        a = native.get(_origin(x.claim.predicate, x.rules_used))
        b = native.get(_origin(y.claim.predicate, y.rules_used))
        if a is None or b is None:
            return f"ground argument of {x.render()} -> {y.render()} has no native argument"
        if (a, b) not in pairs:
            return f"ground attack {x.render()} -> {y.render()} without native {a} -> {b}"
    return None


def oracle_bounded(path: Path, stdout: str) -> str | None:
    """Every report of `caba check` must be an exact match: these
    frameworks pin each variable to a point of the universe."""
    for report in json.loads(stdout)["reports"]:
        if report["verdict"] != "EXACT-MATCH":
            return f"{report['verdict']} [{report['mode']}]: {report['witness']}"
    return None
