"""Subset-indexed k-fields and the operations tying them together.

A k-field is a family of elements of the free Lie-Rinehart algebra indexed
by nonempty subsets of {0..k-1}; a missing subset means a zero component,
and a field whose components are all degree-1 is called classical.  The
module implements faces, additions over a shared face, strong differences,
cup and composition products, the two symmetric-group actions (free-bracket
flavored and classical-bracket flavored), the homotopy maps obtained as
their strong difference, the trivial-homotopy test, and the reduction of
homotopy-trivial fields to decomposable polyvectors, read directly off a
support that is a chain under inclusion.

Subsets are ordered subset-lexicographically: compare the increasingly
sorted index sequences lexicographically.  The swap action on a field, for
a permutation s fixing a subset phi, corrects the phi component by the sum
of brackets [a_{phi'}, a_{phi''}] over disjoint decompositions
phi = phi' | phi'' with phi' < phi'' and s(phi') > s(phi'').  For adjacent
transpositions this is folded over a word.  Homotopies and the trivial test
take the formula on the transposition (i j) and read the difference of the
two flavors directly, without running either action: both relabel every
component alike, and they differ only at u = p | q for a disjoint supported
pair p < q whose order (i j) flips, by
D(p, q) = free_bracket(a_p, a_q) - lie_bracket_ext(a_p, a_q).
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Mapping, Sequence

from .chart_algebra import ChartSpec, VField
from .errors import (
    ArityMismatchError,
    ChartMismatchError,
    CupUndefinedError,
    DomainError,
    FacePreconditionError,
    NotClosedError,
    NotFlagReducibleError,
)
from .free_lr import FreeLRElem, free_bracket, lie_bracket_ext, project_to_lie
from .polyvector import Polyvector, wedge

Subset = frozenset[int]

# Largest arity the swap action takes on: one application visits all 2^k
# index sets and their splittings, so its cost grows faster than 2^k.  For
# `trivial?`, `reduce` and `homotopy` it caps the walk over disjoint
# supported pairs instead, at most (3^8 - 2*2^8 + 1)/2 = 3,025 of them; every
# arity in the checks is at most 6.
MAX_ACTION_ARITY = 8


def _subset_key(s: Subset) -> tuple[int, ...]:
    return tuple(sorted(s))


class KField:
    """Arity-k field: map from nonempty subsets of {0..k-1} to FreeLRElem."""

    __slots__ = ("chart", "arity", "components")

    # largest arity: `cup` builds the index set of the first k slots, so a
    # literal's arity is held to a size whose index sets are cheap to form;
    # only the swap action still walks every index set, under MAX_ACTION_ARITY
    MAX_ARITY = 1000

    def __init__(self, chart: ChartSpec, arity: int, components: Mapping[Subset, FreeLRElem] | None = None):
        _check_arity(arity)
        clean: dict[Subset, FreeLRElem] = {}
        for phi, elem in (components or {}).items():
            phi = frozenset(phi)
            if not phi or not all(type(i) is int and 0 <= i < arity for i in phi):
                if any(type(i) is not int for i in phi):
                    raise DomainError(f"component index set {set(phi)} holds an index that is not an int")
                raise DomainError(f"component index set {sorted(phi)} out of range for arity {arity}")
            if elem.chart != chart:
                raise ChartMismatchError("component lives on a different chart")
            if not elem.is_zero():
                clean[phi] = elem
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "components", clean)

    @classmethod
    def _make(cls, chart: ChartSpec, arity: int, components: dict[Subset, FreeLRElem]) -> "KField":
        """Wrap a canonical dict: nonempty index sets below the arity, nonzero elements on the chart."""
        self = object.__new__(cls)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "components", components)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("KField is immutable")

    @classmethod
    def zero(cls, chart: ChartSpec, arity: int) -> "KField":
        return cls(chart, arity, {})

    @classmethod
    def from_vfields(cls, chart: ChartSpec, arity: int, components: Mapping[Subset, VField]) -> "KField":
        return cls(
            chart,
            arity,
            {phi: FreeLRElem.from_vfield(chart, v) for phi, v in components.items()},
        )

    def component(self, phi) -> FreeLRElem:
        return self.components.get(frozenset(phi), FreeLRElem.zero(self.chart))

    def support(self) -> set[Subset]:
        return set(self.components)

    def is_zero(self) -> bool:
        return not self.components

    @property
    def flavor(self) -> str:
        return "classical" if all(e.is_classical() for e in self.components.values()) else "free"

    def is_classical(self) -> bool:
        return self.flavor == "classical"

    def component_vfield(self, phi) -> VField:
        elem = self.component(phi)
        if not elem.is_classical():
            raise DomainError(f"component {sorted(frozenset(phi))} is not classical")
        return project_to_lie(elem)

    def __eq__(self, other):
        if not isinstance(other, KField):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.arity == other.arity
            and self.components == other.components
        )

    def __hash__(self):
        items = tuple(sorted(self.components.items(), key=lambda t: _subset_key(t[0])))
        return hash((self.chart, self.arity, items))

    def __str__(self):
        parts = [f"arity={self.arity}"]
        for phi in sorted(self.components, key=_subset_key):
            parts.append(f"{','.join(map(str, sorted(phi)))}: {self.components[phi]}")
        return "K{" + "; ".join(parts) + "}"

    def __repr__(self):
        return f"KField({self})"

    def to_json(self):
        return {
            "arity": self.arity,
            "flavor": self.flavor,
            "components": {
                ",".join(map(str, sorted(phi))): self.components[phi].to_json()
                for phi in sorted(self.components, key=_subset_key)
            },
        }


def _check_arity(arity: int):
    if arity < 1:
        raise DomainError(f"arity must be >= 1, got {arity}")
    if arity > KField.MAX_ARITY:
        raise DomainError(f"arity {arity} exceeds the budget of KField.MAX_ARITY = {KField.MAX_ARITY}")


def _check_compatible(mu: KField, nu: KField):
    if mu.chart != nu.chart:
        raise ChartMismatchError("fields live on different charts")
    if mu.arity != nu.arity:
        raise ArityMismatchError(f"arities differ: {mu.arity} vs {nu.arity}")


def face(nu: KField, i: int) -> KField:
    """Restrict to the face where slot i degenerates: keep subsets avoiding i."""
    k = nu.arity
    if not 0 <= i < k:
        raise DomainError(f"face index {i} out of range for arity {k}")
    if k == 1:
        raise DomainError("a 1-field has no faces")
    comps = {_drop_slot(phi, i): elem for phi, elem in nu.components.items() if i not in phi}
    return KField._make(nu.chart, k - 1, comps)


def _drop_slot(phi: Subset, i: int) -> Subset:
    """Relabel an index set avoiding i onto the slots left when slot i is deleted."""
    return frozenset(x - (x > i) for x in phi)


def add_over_face(mu: KField, nu: KField, psi) -> KField:
    """Fiberwise addition over the face psi of size k-1.

    Components inside psi must agree and are kept; all others add.
    """
    _check_compatible(mu, nu)
    k = mu.arity
    psi = frozenset(psi)
    if len(psi) != k - 1 or any(i < 0 or i >= k for i in psi):
        raise DomainError(f"psi must be a size-{k - 1} subset of the slot indices")
    for phi in sorted(set(mu.components) | set(nu.components), key=_subset_key):
        if phi <= psi and mu.component(phi) != nu.component(phi):
            raise FacePreconditionError(phi)
    comps: dict[Subset, FreeLRElem] = {}
    for phi in set(mu.components) | set(nu.components):
        elem = mu.component(phi) if phi <= psi else mu.component(phi) + nu.component(phi)
        if not elem.is_zero():
            comps[phi] = elem
    return KField._make(mu.chart, k, comps)


def strong_diff(mu: KField, nu: KField, pair: tuple[int, int]) -> KField:
    """Strong difference of two fields agreeing outside components with both i and j.

    The result has arity k-1 over the face deleting j: components avoiding
    both i and j are copied, and a component containing i picks up the
    difference of the (component + {j}) entries.  Both sums run over the
    supports alone.
    """
    _check_compatible(mu, nu)
    k = mu.arity
    i, j = pair
    if not 0 <= i < j < k:
        raise DomainError(f"need 0 <= i < j < arity, got ({i}, {j}) at arity {k}")
    for phi in sorted(set(mu.components) | set(nu.components), key=_subset_key):
        if not (i in phi and j in phi) and mu.component(phi) != nu.component(phi):
            raise FacePreconditionError(phi)
    comps = {phi: elem for phi, elem in mu.components.items() if i not in phi and j not in phi}
    comps.update((phi - {j}, elem) for phi, elem in mu.components.items() if i in phi and j in phi)
    zero = FreeLRElem.zero(mu.chart)
    for phi, elem in nu.components.items():
        if i in phi and j in phi:
            comps[phi - {j}] = comps.get(phi - {j}, zero) - elem
    # a difference may vanish
    comps = {_drop_slot(chi, j): elem for chi, elem in comps.items() if not elem.is_zero()}
    return KField._make(mu.chart, k - 1, comps)


def cup(mu: KField, nu: KField) -> KField:
    """Partial cup product in decomposition form.

    Defined when the second factor is first order (no components of size
    >= 2).  The first factor keeps its components on the first k slots; the
    singleton {s} of the second lands at {0..k-1} + {k+s}; everything else
    is zero.
    """
    if mu.chart != nu.chart:
        raise ChartMismatchError("fields live on different charts")
    for phi in sorted(nu.components, key=_subset_key):
        if len(phi) >= 2:
            raise CupUndefinedError(phi)
    k, m = mu.arity, nu.arity
    _check_arity(k + m)
    first_block = frozenset(range(k))
    comps: dict[Subset, FreeLRElem] = dict(mu.components)
    for phi, elem in nu.components.items():
        (s,) = phi
        comps[first_block | {k + s}] = elem
    return KField._make(mu.chart, k + m, comps)


def compose(mu: KField, nu: KField) -> KField:
    """Composition product: mu on the first block, nu shifted to the second."""
    if mu.chart != nu.chart:
        raise ChartMismatchError("fields live on different charts")
    k = mu.arity
    _check_arity(k + nu.arity)
    comps: dict[Subset, FreeLRElem] = dict(mu.components)
    for phi, elem in nu.components.items():
        comps[frozenset(x + k for x in phi)] = elem
    return KField._make(mu.chart, k + nu.arity, comps)


def _bracket_for(flavor: str) -> Callable[[FreeLRElem, FreeLRElem], FreeLRElem]:
    if flavor == "free":
        return free_bracket
    if flavor == "lie":
        return lie_bracket_ext
    raise DomainError(f"unknown bracket flavor {flavor!r}; use 'free' or 'lie'")


def _check_action_arity(k: int):
    if k > MAX_ACTION_ARITY:
        raise DomainError(f"arity {k} exceeds the swap-action budget of {MAX_ACTION_ARITY}")


def _all_subsets(k: int):
    for size in range(1, k + 1):
        yield from (frozenset(c) for c in combinations(range(k), size))


def _act_by_transposition(nu: KField, i: int, j: int, flavor: str) -> KField:
    """One application of the swap-action formula for the transposition (i j).

    A splitting of a fixed index set is looked up before its swapped parts
    are formed: only a splitting into two supported parts can add a bracket.
    """
    k = nu.arity
    _check_action_arity(k)
    bracket = _bracket_for(flavor)
    swap = {i: j, j: i}
    get = nu.components.get
    comps: dict[Subset, FreeLRElem] = {}
    for phi in _all_subsets(k):
        image = frozenset(swap.get(x, x) for x in phi)
        if image != phi:
            elem = nu.component(image)
        else:
            elem = nu.component(phi)
            for part1, part2 in _oriented_decompositions(phi):
                a, b = get(part1), get(part2)
                if a is None or b is None:
                    continue
                if _subset_key(frozenset(swap.get(x, x) for x in part1)) > _subset_key(
                    frozenset(swap.get(x, x) for x in part2)
                ):
                    elem = elem + bracket(a, b)
        if not elem.is_zero():
            comps[phi] = elem
    return KField._make(nu.chart, k, comps)


def _oriented_decompositions(phi: Subset):
    """Unordered splittings of phi into two nonempty parts, oriented part1 < part2."""
    items = sorted(phi)
    first = items[0]
    rest = items[1:]
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            part_a = frozenset((first,) + extra)
            part_b = phi - part_a
            if not part_b:
                continue
            if _subset_key(part_a) < _subset_key(part_b):
                yield part_a, part_b
            else:
                yield part_b, part_a


def act(word: Sequence[int], nu: KField, flavor: str = "free") -> KField:
    """Apply a word of adjacent swaps s_i = (i, i+1), first letter first.

    The resulting permutation action satisfies the symmetric-group relations
    exactly, so the value depends only on the permutation the word spells.
    """
    k = nu.arity
    out = nu
    for i in word:
        if not isinstance(i, int) or not 0 <= i < k - 1:
            raise DomainError(f"malformed word: generator index {i!r} at arity {k}")
        out = _act_by_transposition(out, i, i + 1, flavor)
    return out


def act_transposition(nu: KField, i: int, j: int, flavor: str = "free") -> KField:
    """The swap-action formula taken directly on the transposition (i j).

    Unlike folding (i j) into adjacent swaps, this leaves every component not
    containing both i and j untouched up to relabeling, in both flavors.
    """
    k = nu.arity
    if not 0 <= i < j < k:
        raise DomainError(f"need 0 <= i < j < arity, got ({i}, {j}) at arity {k}")
    return _act_by_transposition(nu, i, j, flavor)


def homotopy(nu: KField, i: int, j: int) -> KField:
    """Strong difference of the free- and classical-flavored (i j) swaps.

    The two flavors only disagree on components containing both i and j, so
    the strong-difference precondition holds automatically; at arity k there
    are k*(k-1)/2 of these maps.  Components avoiding i and j are kept, and
    the flip defects summed at u land at u - {j}, both on the face deleting j.
    """
    k = nu.arity
    if k < 2:
        raise DomainError("homotopy needs arity >= 2")
    if not 0 <= i < j < k:
        raise DomainError(f"need 0 <= i < j < arity, got ({i}, {j}) at arity {k}")
    _check_action_arity(k)
    comps = {_drop_slot(phi, j): elem for phi, elem in nu.components.items() if i not in phi and j not in phi}
    flipped = [(p, q) for p, q in _disjoint_pairs(nu) if min(p) == i and j in q]
    for u, elem in _flip_sums(nu, flipped, {}).items():
        comps[_drop_slot(u - {j}, j)] = elem
    return KField._make(nu.chart, k - 1, comps)


def is_trivial_homotopy(nu: KField) -> tuple[bool, tuple | None]:
    """Whether both swap flavors agree for every index pair.

    Returns (True, None) or (False, (i, j, phi, psi)) where (i, j) is the
    least pair whose two swaps differ, and phi, psi is the first disjoint
    pair of component index sets whose free and classical brackets already
    differ.
    """
    _check_action_arity(nu.arity)
    pairs = list(_disjoint_pairs(nu))
    flips: dict[tuple[int, int], list[tuple[Subset, Subset]]] = {}
    for p, q in pairs:
        for j in q:
            flips.setdefault((min(p), j), []).append((p, q))
    defects: dict[tuple[Subset, Subset], FreeLRElem] = {}
    for i, j in sorted(flips):
        if _flip_sums(nu, flips[i, j], defects):
            witness = next(pq for pq in pairs if not _defect(nu, pq, defects).is_zero())
            return False, (i, j, *witness)
    return True, None


def _disjoint_pairs(nu: KField):
    """Disjoint pairs (phi, psi) of supported index sets, phi before psi in subset-lex order."""
    support = sorted(nu.components, key=_subset_key)
    for a, phi in enumerate(support):
        for psi in support[a + 1 :]:
            if not phi & psi:
                yield phi, psi


def _flip_sums(nu: KField, flipped: list[tuple[Subset, Subset]], defects: dict) -> dict[Subset, FreeLRElem]:
    """Free-flavored minus classical-flavored swap, from the pairs it flips.

    Disjoint sets compare by their least elements, so the (i j) swap flips a
    disjoint supported pair p < q exactly when i = min(p) and j is in q, and
    each flip adds D(p, q) at p | q; every other component moves the same
    way in both flavors.  Returns the sums that do not cancel to zero.
    """
    sums: dict[Subset, FreeLRElem] = {}
    for p, q in flipped:
        defect = _defect(nu, (p, q), defects)
        sums[p | q] = sums[p | q] + defect if p | q in sums else defect
    return {u: elem for u, elem in sums.items() if not elem.is_zero()}


def _defect(nu: KField, pq: tuple[Subset, Subset], defects: dict) -> FreeLRElem:
    """D(p, q) = free_bracket(a_p, a_q) - lie_bracket_ext(a_p, a_q), kept in `defects`."""
    if pq not in defects:
        a, b = nu.components[pq[0]], nu.components[pq[1]]
        defects[pq] = free_bracket(a, b) - lie_bracket_ext(a, b)
    return defects[pq]


def trivial_by_disjoint_pairs(nu: KField) -> tuple[bool, tuple | None]:
    """Characterization for classical fields: every disjoint supported pair
    must consist of parallel components, that is, have wedge zero.

    For degree-1 a, b the free bracket minus the classical bracket is
    sum_{i<j} (a_i b_j - a_j b_i) F[d_i, d_j], whose coefficients are those
    of a ^ b; returns (True, None) or (False, (phi, psi)).
    """
    if not nu.is_classical():
        raise DomainError("the disjoint-pair test applies to classical fields")
    for phi, psi in _disjoint_pairs(nu):
        left = Polyvector.from_vfield(nu.component_vfield(phi))
        if not wedge(left, Polyvector.from_vfield(nu.component_vfield(psi))).is_zero():
            return False, (phi, psi)
    return True, None


def lie_derivative_thin(beta: VField, alpha: VField) -> VField:
    """Lie derivative through the composition product's thin structure.

    Composes beta x alpha, swaps with the classical flavor, takes the strong
    difference against alpha x beta and reads the resulting 1-field; the
    value is the classical bracket [beta, alpha].
    """
    chart = ChartSpec(beta.dim, max_degree=2)
    one_beta = KField.from_vfields(chart, 1, {frozenset({0}): beta})
    one_alpha = KField.from_vfields(chart, 1, {frozenset({0}): alpha})
    swapped = act([0], compose(one_beta, one_alpha), "lie")
    diff = strong_diff(swapped, compose(one_alpha, one_beta), (0, 1))
    return diff.component_vfield({0})


def reduce_to_polyvector(nu: KField) -> Polyvector:
    """Cohomology class of a homotopy-trivial field as a decomposable polyvector.

    Projects components to classical fields and rejects fields with
    non-trivial homotopies (NotClosedError).  The class exists when some
    relabeling moves the support into the flag chain {0} < {0,1} < ..., that
    is, when the support is totally ordered by inclusion; otherwise
    NotFlagReducibleError.  The components are wedged in size order after
    dropping consecutive repeated entries.
    """
    chart = nu.chart
    # the projection of a component made of long words vanishes
    projected = ((phi, project_to_lie(elem)) for phi, elem in nu.components.items())
    comps = {phi: FreeLRElem.from_vfield(chart, v) for phi, v in projected if not v.is_zero()}
    classical = KField._make(chart, nu.arity, comps)
    ok, witness = is_trivial_homotopy(classical)
    if not ok:
        raise NotClosedError(witness)
    # A chain support has no disjoint pair, so each swap of the action is a
    # pure relabeling onto another chain.  A bracket correction only lands on
    # the union of two disjoint supported sets, and a disjoint pair of least
    # total size is never corrected, so a non-chain support stays non-chain
    # under every word.  Reading the chain in size order is thus what a search
    # over all relabelings would find.
    support = sorted(classical.components, key=len)
    if any(not small < big for small, big in zip(support, support[1:])):
        raise NotFlagReducibleError("no relabeling moves the support into the flag chain")
    out = Polyvector.zero(chart.dim)
    previous = None
    for phi in support:
        v = classical.component_vfield(phi)
        if v == previous:
            continue
        out = Polyvector.from_vfield(v) if previous is None else wedge(out, Polyvector.from_vfield(v))
        previous = v
    return out
