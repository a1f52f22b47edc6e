"""Exception types for violated mathematical preconditions.

Everything here derives from DomainError so the CLI can map any domain
failure to exit code 2, distinct from parse/usage errors.
"""


class DomainError(Exception):
    """A violated precondition of one of the algebraic operations."""


class ChartMismatchError(DomainError):
    pass


class ArityMismatchError(DomainError):
    pass


class DegreeOverflowError(DomainError):
    """A bracket produced words longer than the chart's max_degree cutoff."""

    def __init__(self, length, limit):
        self.length = length
        self.limit = limit
        super().__init__(
            f"bracket monomial of length {length} exceeds max_degree {limit}"
        )


class FacePreconditionError(DomainError):
    """Two fields disagree on a component that must match."""

    def __init__(self, subset):
        self.subset = subset
        super().__init__(f"fields differ on component {sorted(subset)}")


class CupUndefinedError(DomainError):
    """Second cup factor has a component of size >= 2."""

    def __init__(self, subset):
        self.subset = subset
        super().__init__(
            f"cup undefined: second factor has a component at {sorted(subset)}"
        )


class NotMultiplicativeError(DomainError):
    """A morphism into a Weil algebra failed a product probe."""

    def __init__(self, f, g):
        self.witness = (f, g)
        super().__init__(f"morphism is not multiplicative on ({f}, {g})")


class NotClosedError(DomainError):
    """Field defines a non-trivial homotopy, so it has no cohomology class."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"field is not homotopy-trivial: witness {witness_text(witness)}")


def witness_text(witness) -> str:
    """The text (i,j,{..},{..}) of a trivial-homotopy witness (i, j, phi, psi)."""
    i, j, phi, psi = witness
    return f"({i},{j},{{{','.join(map(str, sorted(phi)))}}},{{{','.join(map(str, sorted(psi)))}}})"


class NotFlagReducibleError(DomainError):
    """The support of a homotopy-trivial field is not a chain under inclusion,
    so no relabeling moves it into the flag chain {0} < {0,1} < ...."""
