"""Spans around the public functions of each `caba` layer.

`Tracer.install()` replaces each function named in `PATCHES` where it
is bound in the calling module, so that a call made through that
binding records a span: its name, its parent span and its start and
end times.  Spans of one op are kept in memory and folded into totals
when the op ends (`end_op`); `uninstall()` puts the original functions
back.  Calls that a module makes to its own functions go through its
globals, so they are seen too; calls inside `caba.constraints` are not.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module bound in, attribute, span name).  The span name says which
# layer the function belongs to; the module says who calls it.
PATCHES = (
    ("caba.cli", "parse_file", "parser.parse_file"),
    ("caba.cli", "build_mgcarg", "arguments.build_mgcarg"),
    ("caba.cli", "attack_graph", "attacks.attack_graph"),
    ("caba.cli", "argument_splitting", "splitting.argument_splitting"),
    ("caba.cli", "enumerate_extensions", "semantics.enumerate_extensions"),
    ("caba.cli", "cross_check", "oracle.cross_check"),
    ("caba.splitting", "split_ci", "splitting.split_ci"),
    ("caba.splitting", "split_pa", "splitting.split_pa"),
    ("caba.splitting", "fully_attacks", "splitting.attack_check"),
    ("caba.splitting", "partially_attacks", "splitting.attack_check"),
    ("caba.splitting", "common_instances", "equivalence.common_instances"),
    ("caba.splitting", "denotation", "equivalence.denotation"),
    ("caba.splitting", "project", "constraints.project"),
    ("caba.splitting", "constraint_split", "constraints.constraint_split"),
    ("caba.semantics", "instance_disjoint", "equivalence.compliance"),
    ("caba.semantics", "non_overlapping", "equivalence.compliance"),
    ("caba.semantics", "fully_attacks", "semantics.attack_check"),
    ("caba.equivalence", "denotation", "equivalence.denotation"),
    ("caba.equivalence", "is_consistent", "constraints.is_consistent"),
    ("caba.equivalence", "project", "constraints.project"),
    ("caba.attacks", "entails_projected", "constraints.entails_projected"),
    ("caba.attacks", "is_consistent", "constraints.is_consistent"),
    ("caba.arguments", "is_consistent", "constraints.is_consistent"),
    ("caba.oracle", "is_confined", "oracle.is_confined"),
    ("caba.oracle", "ground", "oracle.ground"),
    ("caba.oracle", "classical_arguments", "oracle.classical_arguments"),
    ("caba.oracle", "is_consistent", "constraints.is_consistent"),
)

# Spans whose result length is recorded (arguments built, edges, basis
# pieces, extensions).
SIZED = {
    "arguments.build_mgcarg",
    "attacks.attack_graph",
    "splitting.argument_splitting",
    "semantics.enumerate_extensions",
}

CLI_MAIN = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end, size]
        self.stack: list[int] = []
        self.total: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.size: dict[str, int] = {}
        # time of named children, summed per parent span name
        self.child: dict[tuple[str, str], float] = {}
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        sized = name in SIZED

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if sized:
                span[4] = len(out)
            return out

        return traced

    def install(self) -> None:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def end_op(self) -> None:
        """Fold the spans of the finished op into the totals."""
        spans = self.spans
        for name, parent, start, end, size in spans:
            d = end - start
            self.total[name] = self.total.get(name, 0.0) + d
            self.calls[name] = self.calls.get(name, 0) + 1
            if size is not None:
                self.size[name] = self.size.get(name, 0) + size
            if parent >= 0:
                key = (spans[parent][0], name)
                self.child[key] = self.child.get(key, 0.0) + d
        spans.clear()

    def children_time(self, parent: str, names=None) -> float:
        return sum(
            t
            for (p, n), t in self.child.items()
            if p == parent and (names is None or n in names)
        )
