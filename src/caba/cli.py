"""Command-line front end.

Subcommands: parse, arguments, attacks, split, extensions, ground,
check.  Output is plain text by default or JSON (``--format
structured``, schema version 1).  Exit codes: 0 success, 1 validation,
parse or usage errors and unreadable input (and a ``check`` mismatch),
2 resource limits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .arguments import DEFAULT_MAX_DEPTH, build_mgcarg
from .attacks import attack_graph
from .errors import CabaError, ResourceLimit, UniverseTooLarge
from .oracle import GROUNDING_CAP, classical_extensions, cross_check, ground
from .parser import parse_file
from .semantics import enumerate_extensions
from .splitting import DEFAULT_MAX_ITERS, argument_splitting

SCHEMA = 1


def parse_universe(spec: str) -> list[Fraction]:
    """``0..12`` ranges over integers; ``0,1/2,3`` lists rationals."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = map(int, spec.split("..", 1))
            if hi - lo >= GROUNDING_CAP:
                raise UniverseTooLarge(
                    f"--universe {spec!r} has {hi - lo + 1} points, "
                    f"more than {GROUNDING_CAP}"
                )
            points = [Fraction(i) for i in range(lo, hi + 1)]
        else:
            points = [Fraction(p.strip()) for p in spec.split(",") if p.strip()]
    except (ValueError, ZeroDivisionError):
        raise CabaError(
            f"--universe {spec!r}: expected LO..HI over integers "
            "or a comma-separated list of rationals"
        ) from None
    if not points:
        raise CabaError(f"--universe {spec!r} has no points")
    return points


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise CabaError(f"{name} must be an integer, got {raw!r}") from None
    return _non_negative(name, value)


def _non_negative(name: str, value: int) -> int:
    if value < 0:
        raise CabaError(f"{name} must not be negative, got {value}")
    return value


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "structured":
        payload["schema"] = SCHEMA
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(text + ("\n" if not text.endswith("\n") else ""))


def _split_basis(fw, args):
    mg = build_mgcarg(fw, args.max_depth)
    return argument_splitting(mg, fw.contrary_map, args.max_iters)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="caba",
        description="Constrained assumption-based argumentation solver",
    )
    ap.add_argument(
        "--format", choices=("text", "structured"), default="text"
    )
    ap.add_argument(
        "--max-depth",
        type=int,
        default=_env_int("CABA_MAX_DEPTH", DEFAULT_MAX_DEPTH),
        help="derivation depth cap for recursive rule sets",
    )
    ap.add_argument(
        "--max-iters",
        type=int,
        default=_env_int("CABA_MAX_ITERS", DEFAULT_MAX_ITERS),
        help="repair step cap for argument splitting",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("parse", "arguments", "attacks", "split"):
        p = sub.add_parser(name)
        p.add_argument("input")
    p = sub.add_parser("extensions")
    p.add_argument("input")
    p.add_argument(
        "--semantics",
        choices=("conflict-free", "admissible", "stable"),
        default="stable",
    )
    p.add_argument(
        "--native-check",
        action="store_true",
        help="re-verify each stable extension with the native characterisation",
    )
    p = sub.add_parser("ground")
    p.add_argument("input")
    p.add_argument("--universe", required=True)
    p.add_argument(
        "--semantics",
        choices=("conflict-free", "admissible", "stable"),
        default=None,
        help="also enumerate classical extensions of the grounding",
    )
    p = sub.add_parser("check")
    p.add_argument("input")
    p.add_argument("--universe", required=True)
    p.add_argument(
        "--mode", choices=("arguments", "attacks", "extension"), required=True
    )
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(_parser().parse_args(argv))
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except CabaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args) -> int:
    _non_negative("--max-depth", args.max_depth)
    _non_negative("--max-iters", args.max_iters)
    try:
        fw = parse_file(args.input)
    except OSError as exc:
        raise CabaError(f"cannot read {args.input}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CabaError(
            f"cannot read {args.input}: not UTF-8 text (byte {exc.start})"
        ) from None

    if args.command == "parse":
        _emit(args, fw.to_object(), fw.render())
        return 0

    if args.command == "arguments":
        out = build_mgcarg(fw, args.max_depth)
        _emit(
            args,
            {"arguments": [a.to_object() for a in out]},
            "\n".join(f"{a.id}: {a.render()}" for a in out),
        )
        return 0

    if args.command == "attacks":
        out = build_mgcarg(fw, args.max_depth)
        edges = attack_graph(out, fw.contrary_map)
        _emit(
            args,
            {"attacks": [e.to_object() for e in edges]},
            "\n".join(e.render() for e in edges) or "(no attacks)",
        )
        return 0

    if args.command == "split":
        before = build_mgcarg(fw, args.max_depth)
        after = argument_splitting(before, fw.contrary_map, args.max_iters)
        text = ["before:"]
        text += [f"  {a.id}: {a.render()}" for a in before]
        text.append("after:")
        text += [f"  {a.id}: {a.render()}" for a in sorted(after, key=lambda a: a.id)]
        _emit(
            args,
            {
                "before": [a.to_object() for a in before],
                "after": [a.to_object() for a in after],
            },
            "\n".join(text),
        )
        return 0

    if args.command == "extensions":
        semantics = args.semantics.replace("-", "_")
        basis = _split_basis(fw, args)
        exts = enumerate_extensions(
            basis, semantics, fw.contrary_map, basis.attacks
        )
        payload = {"basis": [a.to_object() for a in basis],
                   "extensions": [e.to_object() for e in exts]}
        lines = [f"basis of {len(basis)} arguments; "
                 f"{len(exts)} {args.semantics} extension(s)"]
        byid = {a.id: a for a in basis}
        for i, e in enumerate(exts, 1):
            lines.append(f"E{i}: {{{', '.join(sorted(e.members))}}}")
        if args.native_check and semantics == "stable":
            from .semantics import check_stable_native

            checks = [
                check_stable_native(
                    [byid[m] for m in e.members], basis, fw.contrary_map
                )
                for e in exts
            ]
            payload["native_check"] = checks
            lines += [
                f"native check E{i}: {'ok' if c else 'FAILED'}"
                for i, c in enumerate(checks, 1)
            ]
        _emit(args, payload, "\n".join(lines))
        return 0

    if args.command == "ground":
        uni = parse_universe(args.universe)
        g = ground(fw, uni)
        lines = [r.render() for r in g.rules]
        lines += [
            f"assumption {a.render()} contrary {g.contraries[a].render()}."
            for a in sorted(g.assumptions, key=lambda x: x.render())
        ]
        payload = {
            "rules": [r.render() for r in g.rules],
            "assumptions": [
                a.render() for a in sorted(g.assumptions, key=lambda x: x.render())
            ],
        }
        if args.semantics:
            sem = args.semantics.replace("-", "_")
            exts = classical_extensions(g, sem)
            payload["extensions"] = [
                sorted(a.render() for a in e) for e in exts
            ]
            lines.append(f"{len(exts)} {args.semantics} extension(s)")
            for i, e in enumerate(exts, 1):
                lines.append(
                    f"E{i}: {{{', '.join(sorted(a.render() for a in e))}}}"
                )
        _emit(args, payload, "\n".join(lines))
        return 0

    if args.command == "check":
        uni = parse_universe(args.universe)
        if args.mode == "extension":
            basis = _split_basis(fw, args)
            exts = enumerate_extensions(
                basis, "stable", fw.contrary_map, basis.attacks
            )
            byid = {a.id: a for a in basis}
            reports = [
                cross_check(fw, uni, [byid[m] for m in e.members], "extension")
                for e in exts
            ]
        else:
            native = build_mgcarg(fw, args.max_depth)
            reports = [cross_check(fw, uni, native, args.mode)]
        _emit(
            args,
            {"reports": [r.to_object() for r in reports]},
            "\n".join(r.render() for r in reports) or "(nothing to check)",
        )
        return 0 if all(r.verdict != "MISMATCH" for r in reports) else 1

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
