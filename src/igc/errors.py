"""Exception types for violated mathematical preconditions.

Everything here derives from DomainError so the CLI can map any domain
failure to exit code 2, distinct from parse/usage errors.  `_shown` is the one
rule by which every refusal of the package shows a value the caller gave.
"""


def _shown(x) -> str:
    """x as a refusal shows it: an int as its digits, anything else as its repr; an index set comes as its sorted list.

    Past 40 characters (an int: 40 digits, counted from its bit length, so that one past Python's int-to-str limit
    is shown too) it is cut to its first 20 (an int: its sign and first 20 digits), "..." and its size in digits,
    entries of a collection or characters (of a str, its own length), so that a message stays one short line.
    A value whose repr raises, such as a list holding an int past that limit, is shown by its type and, for a
    collection, its entry count, so that showing a value never raises.
    """
    if type(x) is int:
        # n has floor((bit_length - 1) * log10(2)) + 1 digits, or one more
        n = abs(x)
        size = int((n.bit_length() - 1) * 0.30102999566398120) + 1
        size += n >= 10**size
        return str(x) if size <= 40 else f"{'-' * (x < 0)}{n // 10 ** (size - 20)}... ({size} digits)"
    collection = isinstance(x, (list, tuple, set, frozenset, dict))
    try:
        text = repr(x)
    except Exception:  # whatever the caller's value raises, the refusal still shows it
        return f"{type(x).__name__} ({len(x)} entries)" if collection else type(x).__name__
    if len(text) <= 40:
        return text
    if collection:
        return f"{text[:20]}... ({len(x)} entries)"
    return f"{text[:20]}... ({len(x) if isinstance(x, str) else len(text)} characters)"


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
        super().__init__(f"fields differ on component {_shown(sorted(subset))}")


class CupUndefinedError(DomainError):
    """Second cup factor has a component of size >= 2."""

    def __init__(self, subset):
        self.subset = subset
        super().__init__(f"cup undefined: second factor has a component at {_shown(sorted(subset))}")


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
