"""Framework data model: atoms, rules, validation, normalisation.

A framework bundles inference rules over an atomic language with a set
of assumption predicates and a per-predicate contrary map.  Frameworks
are flat: assumption predicates never head a rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping

from .constraints import LinearConstraint, LinearTerm, _sorted
from .errors import ValidationError

BOGUS_ASSUMPTION = "_bogus"
BOGUS_CONTRARY = "_bogus_contrary"


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[LinearTerm, ...] = ()

    def vars(self) -> frozenset[str]:
        out: set[str] = set()
        for t in self.args:
            out |= t.vars()
        return frozenset(out)

    def substitute(self, mapping: Mapping[str, LinearTerm]) -> "Atom":
        return Atom(self.predicate, tuple(t.substitute(mapping) for t in self.args))

    def rename(self, mapping: Mapping[str, str]) -> "Atom":
        return Atom(self.predicate, tuple(t.rename(mapping) for t in self.args))

    def render(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(t.render() for t in self.args)})"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Rule:
    id: str
    head: Atom
    body_constraints: frozenset[LinearConstraint] = frozenset()
    body_atoms: tuple[Atom, ...] = ()

    def vars(self) -> frozenset[str]:
        out = set(self.head.vars())
        for c in self.body_constraints:
            out |= c.vars()
        for a in self.body_atoms:
            out |= a.vars()
        return frozenset(out)

    def render(self) -> str:
        body = [c.render() for c in _sorted(self.body_constraints)]
        body += [a.render() for a in self.body_atoms]
        if not body:
            return f"{self.head.render()} <-."
        return f"{self.head.render()} <- {', '.join(body)}."

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass(frozen=True)
class CabaFramework:
    """Rules plus assumption predicates and their contraries.

    ``assumption_args`` records the declared variable tuple of each
    assumption predicate (fixing its arity); ``contrary_map`` maps each
    assumption predicate to its contrary predicate.  When a framework
    is declared without assumptions a synthetic zero-arity assumption
    is added so the assumption set is never empty; it is invisible in
    every rendering.
    """

    rules: tuple[Rule, ...] = ()
    assumption_predicates: frozenset[str] = frozenset()
    contrary_map: Mapping[str, str] = field(default_factory=dict)
    assumption_arity: Mapping[str, int] = field(default_factory=dict)
    bogus_assumption: str | None = None

    @staticmethod
    def build(
        rules: Iterable[Rule],
        assumptions: Mapping[str, tuple[str, int]],
    ) -> "CabaFramework":
        """assumptions maps predicate -> (contrary predicate, arity)."""
        assum = dict(assumptions)
        bogus = None
        if not assum:
            bogus = BOGUS_ASSUMPTION
            assum[BOGUS_ASSUMPTION] = (BOGUS_CONTRARY, 0)
        return CabaFramework(
            rules=tuple(rules),
            assumption_predicates=frozenset(assum),
            contrary_map={p: c for p, (c, _) in assum.items()},
            assumption_arity={p: n for p, (_, n) in assum.items()},
            bogus_assumption=bogus,
        )

    # ------------------------------------------------------- signatures

    def signatures(self) -> dict[str, int]:
        """Predicate arities, inferred from first use."""
        sig: dict[str, int] = dict(self.assumption_arity)
        for p, c in self.contrary_map.items():
            sig.setdefault(c, self.assumption_arity[p])
        for r in self.rules:
            for a in (r.head, *r.body_atoms):
                sig.setdefault(a.predicate, len(a.args))
        return sig

    # ------------------------------------------------------- validation

    def validate(self) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        sig = dict(self.assumption_arity)
        for p, c in self.contrary_map.items():
            prior = sig.get(c)
            if prior is not None and prior != self.assumption_arity[p]:
                out.append(
                    Diagnostic(
                        "ArityMismatch",
                        f"predicate {c} used with arities {prior} and "
                        f"{self.assumption_arity[p]}",
                    )
                )
            sig.setdefault(c, self.assumption_arity[p])
        for r in self.rules:
            if r.head.predicate in self.assumption_predicates:
                out.append(
                    Diagnostic(
                        "NonFlat",
                        f"rule {r.id} has assumption predicate "
                        f"{r.head.predicate} in its head",
                    )
                )
            for a in (r.head, *r.body_atoms):
                prior = sig.setdefault(a.predicate, len(a.args))
                if prior != len(a.args):
                    out.append(
                        Diagnostic(
                            "ArityMismatch",
                            f"predicate {a.predicate} used with arities "
                            f"{prior} and {len(a.args)} (rule {r.id})",
                        )
                    )
        contraries = set(self.contrary_map.values())
        for c in contraries:
            if c in self.assumption_predicates:
                out.append(
                    Diagnostic(
                        "ContraryIsAssumption",
                        f"contrary predicate {c} is itself an assumption",
                    )
                )
        return out

    def check_valid(self) -> None:
        diags = self.validate()
        if diags:
            raise ValidationError(diags)

    # ----------------------------------------------------- normalisation

    def normalise(self) -> "CabaFramework":
        """Rewrite every rule so each atom's argument tuple consists of
        distinct variables, adding equality constraints; grounding-
        preserving and idempotent."""
        return replace(self, rules=tuple(_normalise_rule(r) for r in self.rules))

    # ------------------------------------------------------ serialisation

    def render(self) -> str:
        lines = []
        for p in sorted(self.assumption_predicates):
            if p == self.bogus_assumption:
                continue
            n = self.assumption_arity[p]
            vs = ", ".join(f"X{i}" for i in range(n))
            tup = f"({vs})" if n else ""
            lines.append(f"assumption {p}{tup} contrary {self.contrary_map[p]}{tup}.")
        for r in self.rules:
            lines.append(r.render())
        return "\n".join(lines) + "\n"

    def to_object(self) -> dict:
        return {
            "rules": [
                {
                    "id": r.id,
                    "head": r.head.render(),
                    "constraints": [c.render() for c in _sorted(r.body_constraints)],
                    "body": [a.render() for a in r.body_atoms],
                }
                for r in self.rules
            ],
            "assumptions": sorted(
                p for p in self.assumption_predicates if p != self.bogus_assumption
            ),
            "contraries": {
                p: self.contrary_map[p]
                for p in sorted(self.assumption_predicates)
                if p != self.bogus_assumption
            },
        }


def _fresh_names(used: set[str]) -> Iterator[str]:
    i = 0
    while True:
        name = f"V{i}"
        if name not in used:
            used.add(name)
            yield name
        i += 1


def _normalise_rule(rule: Rule) -> Rule:
    used = set(rule.vars())
    fresh = _fresh_names(used)
    extra: list[LinearConstraint] = []

    def fix(atom: Atom) -> Atom:
        seen: set[str] = set()
        args: list[LinearTerm] = []
        for t in atom.args:
            if len(t.coeffs) == 1 and t.coeffs[0][1] == 1 and t.const == 0:
                v = t.coeffs[0][0]
                if v not in seen:
                    seen.add(v)
                    args.append(t)
                    continue
            v = next(fresh)
            seen.add(v)
            args.append(LinearTerm.variable(v))
            extra.append(
                LinearConstraint.make(LinearTerm.variable(v), "=", t)
            )
        return Atom(atom.predicate, tuple(args))

    head = fix(rule.head)
    body = tuple(fix(a) for a in rule.body_atoms)
    if not extra:
        return rule
    return Rule(
        rule.id, head, rule.body_constraints | frozenset(extra), body
    )
