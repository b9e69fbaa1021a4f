"""Exception hierarchy shared across the package."""


class MatchroidError(Exception):
    """Base class for all domain errors raised by this package."""


class WindowOverflowError(MatchroidError):
    """An integer-window arithmetic result left the representable slice [lo, hi]."""

    def __init__(self, value, lo, hi):
        super().__init__(f"result {value} leaves the integer window [{lo}, {hi}]")
        self.value = value
        self.lo = lo
        self.hi = hi


class BudgetExceededError(MatchroidError):
    """A desk-scale enumeration budget was exceeded."""


class InternalCheckError(MatchroidError):
    """A result failed an invariant that is guaranteed by a proved theorem.

    Seeing this exception means the implementation is wrong, never the input.
    """


class InstanceError(MatchroidError):
    """An instance file failed validation.

    ``kind`` is one of ``schema-violation``, ``invariant-violation`` or
    ``element-out-of-group``; ``field`` names the offending entry.
    """

    def __init__(self, kind, field, message):
        super().__init__(f"{kind} at {field}: {message}")
        self.kind = kind
        self.field = field


class HypothesisViolation(MatchroidError):
    """A verifier was handed an instance outside the theorem's hypotheses.

    Distinct from a conclusion failure: the theorem says nothing about such
    instances. ``clause`` names the violated hypothesis.
    """

    def __init__(self, clause, detail=""):
        msg = clause if not detail else f"{clause}: {detail}"
        super().__init__(msg)
        self.clause = clause


class UnknownTheoremError(MatchroidError):
    """The requested theorem identifier is not in the verifier registry."""
