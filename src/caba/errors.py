"""Exception types shared across the solver."""


class CabaError(Exception):
    """Base class for all solver errors."""


class ParseError(CabaError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ValidationError(CabaError):
    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = tuple(diagnostics)


class InconsistentInput(CabaError):
    """An operation required a consistent constraint set and got none."""


class NonGroundInput(CabaError):
    """Ground evaluation was asked of a constraint with free variables."""


class InconsistentInstance(CabaError):
    """Instantiating an argument produced an inconsistent constraint set."""


class ResourceLimit(CabaError):
    """A budget or size cap stopped the work; ``partial`` holds the
    result computed so far where the raiser keeps one."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class DepthExceeded(ResourceLimit):
    """Recursive rule dependencies hit the derivation depth cap."""


class PreconditionViolated(CabaError):
    """A split operation was applied to a pair not satisfying its guard."""


class IterationLimit(ResourceLimit):
    """The splitting repair loop did not converge within its step budget."""


class CardinalityLimit(ResourceLimit):
    """Too many same-predicate assumption atoms for exact pairing."""


class BasisNotCompliant(CabaError):
    """Extension enumeration needs an instance-disjoint, non-overlapping basis."""


class UniverseTooLarge(ResourceLimit):
    """The grounding oracle refused an instantiation beyond its size cap."""
