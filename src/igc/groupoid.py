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

from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import combinations

from .chart_algebra import ChartSpec, VField, _accumulate, _budget, _checked, _index, _int, _Record, _same_chart, _value
from .errors import (
    ArityMismatchError,
    CupUndefinedError,
    DomainError,
    FacePreconditionError,
    NotClosedError,
    NotFlagReducibleError,
    _shown,
)
from .free_lr import FreeLRElem, _bracket, _free_bracket_into, _lie_bracket_into, project_to_lie
from .polyvector import Polyvector, wedge

Subset = frozenset[int]


def _subset_key(s: Subset) -> tuple[int, ...]:
    return tuple(sorted(s))


def _index_set(phi, arity: int, what: str, nonempty: bool = False) -> Subset:
    """phi as a frozenset of indices below arity; a DomainError naming `what` otherwise."""
    phi = frozenset(_index(i, arity, f"{what} index") for i in _value(phi, Iterable, f"{what} index set", phi))
    if nonempty and not phi:
        raise DomainError(f"{what} index set is empty")
    return phi


class KField(_Record, frozen=True):
    """Arity-k field: map from nonempty subsets of {0..k-1} to FreeLRElem."""

    __slots__ = ("chart", "arity", "components")

    # largest arity: `cup` builds the index set of the first k slots, so a
    # literal's arity is held to a size whose index sets are cheap to form;
    # only the swap action still walks every index set, under MAX_ACTION_ARITY
    MAX_ARITY = 1000
    # largest arity the swap action takes on: one application visits all 2^k
    # index sets and their splittings, so its cost grows faster than 2^k.  For
    # `trivial?`, `reduce` and `homotopy` it caps the walk over disjoint
    # supported pairs instead, at most (3^8 - 2*2^8 + 1)/2 = 3,025 of them;
    # every arity in the checks is at most 6
    MAX_ACTION_ARITY = 8
    # longest word `act` takes: each letter is one swap walk, about 2 ms on
    # an 8-slot field with 4 index sets supported and 16 ms with all 255 set
    # to degree-1 fields, so a word at the limit ends within about 8 s
    MAX_WORD_LENGTH = 500

    @_checked
    def __init__(self, chart: ChartSpec, arity: int, components: Mapping[Subset, FreeLRElem] | None = None):
        _check_arity(arity)
        clean: dict[Subset, FreeLRElem] = {}
        for label, elem in (components or {}).items():
            phi = _index_set(label, arity, "component", nonempty=True)
            _same_chart(_value(elem, FreeLRElem, "component", label).chart, chart, "component", label)
            if not elem.is_zero():
                clean[phi] = elem
        self._set(chart, arity, clean)

    @classmethod
    @_checked
    def zero(cls, chart: ChartSpec, arity: int) -> "KField":
        return cls(chart, arity, {})

    @classmethod
    @_checked
    def from_vfields(cls, chart: ChartSpec, arity: int, components: Mapping[Subset, VField]) -> "KField":
        return cls(
            chart,
            arity,
            {phi: FreeLRElem.from_vfield(chart, v) for phi, v in components.items()},
        )

    def component(self, phi) -> FreeLRElem:
        return self.components.get(_index_set(phi, self.arity, "component"), FreeLRElem.zero(self.chart))

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
            raise DomainError(f"component {_shown(sorted(frozenset(phi)))} is not classical")
        return project_to_lie(elem)

    def __hash__(self):
        return hash((self.chart, self.arity, frozenset(self.components.items())))

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
    _budget(_int(arity, "arity", 1), KField, "MAX_ARITY", "arity")


def _check_pair(i: int, j: int, k: int):
    """Refuse (i, j) unless both are slot indices below k and i < j."""
    if _index(i, k, "pair index") >= _index(j, k, "pair index"):
        raise DomainError(f"need i < j, got ({i}, {j})")


def _check_compatible(mu: KField, nu: KField, what: str):
    _same_chart(nu.chart, mu.chart, what, "nu")
    if mu.arity != nu.arity:
        raise ArityMismatchError(f"arities differ: {mu.arity} vs {nu.arity}")


def _check_agreement(mu: KField, nu: KField, shared: Callable[[Subset], bool]):
    """Refuse mu and nu unless they agree on every index set where `shared` holds.

    Stored components are nonzero, so a set stored on one side only is a
    disagreement; the error names the first one in subset-lex order.
    """
    a, b = mu.components, nu.components
    differ = [phi for phi in a.keys() | b.keys() if shared(phi) and a.get(phi) != b.get(phi)]
    if differ:
        raise FacePreconditionError(min(differ, key=_subset_key))


@_checked
def face(nu: KField, i: int) -> KField:
    """Restrict to the face where slot i degenerates: keep subsets avoiding i."""
    k = nu.arity
    _index(i, k, "face index")
    if k == 1:
        raise DomainError("a 1-field has no faces")
    comps = {_drop_slot(phi, i): elem for phi, elem in nu.components.items() if i not in phi}
    return KField._make(nu.chart, k - 1, comps)


def _drop_slot(phi: Subset, i: int) -> Subset:
    """Relabel an index set avoiding i onto the slots left when slot i is deleted."""
    return frozenset(x - (x > i) for x in phi)


@_checked
def add_over_face(mu: KField, nu: KField, psi) -> KField:
    """Fiberwise addition over the face psi of size k-1.

    Components inside psi must agree and are kept; all others add.
    """
    _check_compatible(mu, nu, "add_over_face argument")
    k = mu.arity
    psi = _index_set(psi, k, "face")
    if len(psi) != k - 1:
        raise DomainError(f"psi must be a size-{k - 1} subset of the slot indices")
    _check_agreement(mu, nu, lambda phi: phi <= psi)
    outside = ((phi, elem) for phi, elem in nu.components.items() if not phi <= psi)
    return KField._make(mu.chart, k, _accumulate(dict(mu.components), outside))


@_checked
def strong_diff(mu: KField, nu: KField, pair: tuple[int, int]) -> KField:
    """Strong difference of two fields agreeing outside components with both i and j.

    The result has arity k-1 over the face deleting j: components avoiding
    both i and j are copied, and a component containing i picks up the
    difference of the (component + {j}) entries.  Both sums run over the
    supports alone.
    """
    _check_compatible(mu, nu, "strong_diff argument")
    k = mu.arity
    try:
        i, j = pair
    except (TypeError, ValueError):
        raise DomainError(f"pair {_shown(pair)} is not two slot indices") from None
    _check_pair(i, j, k)
    _check_agreement(mu, nu, lambda phi: i not in phi or j not in phi)
    comps = {phi: elem for phi, elem in mu.components.items() if i not in phi and j not in phi}
    comps.update((phi - {j}, elem) for phi, elem in mu.components.items() if i in phi and j in phi)
    _accumulate(comps, ((phi - {j}, -elem) for phi, elem in nu.components.items() if i in phi and j in phi))
    comps = {_drop_slot(chi, j): elem for chi, elem in comps.items()}
    return KField._make(mu.chart, k - 1, comps)


@_checked
def cup(mu: KField, nu: KField) -> KField:
    """Partial cup product in decomposition form.

    Defined when the second factor is first order (no components of size
    >= 2).  The first factor keeps its components on the first k slots; the
    singleton {s} of the second lands at {0..k-1} + {k+s}; everything else
    is zero.
    """
    _same_chart(nu.chart, mu.chart, "cup argument", "nu")
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


@_checked
def compose(mu: KField, nu: KField) -> KField:
    """Composition product: mu on the first block, nu shifted to the second."""
    _same_chart(nu.chart, mu.chart, "compose argument", "nu")
    k = mu.arity
    _check_arity(k + nu.arity)
    comps: dict[Subset, FreeLRElem] = dict(mu.components)
    for phi, elem in nu.components.items():
        comps[frozenset(x + k for x in phi)] = elem
    return KField._make(mu.chart, k + nu.arity, comps)


def _all_subsets(k: int):
    for size in range(1, k + 1):
        yield from (frozenset(c) for c in combinations(range(k), size))


def _act_by_transposition(nu: KField, i: int, j: int, kernel: Callable) -> KField:
    """One application of the swap-action formula for the transposition (i j).

    The image of an index set s under (i j) is s ^ {i, j} when s holds
    exactly one of i and j, and s itself otherwise.  A splitting of a fixed
    index set is looked up before its swapped parts are formed: only a
    splitting into two supported parts can add a bracket.  The flipped pairs
    of a fixed index set are gathered first and summed with its component by
    one `_bracket` call through the flavor's kernel, so it is reduced once.
    """
    pair = frozenset((i, j))
    get = nu.components.get
    comps: dict[Subset, FreeLRElem] = {}
    for phi in _all_subsets(nu.arity):
        if (i in phi) != (j in phi):
            elem = get(phi ^ pair)
        else:
            elem = get(phi)
            flips = []
            for part1, part2 in _oriented_decompositions(phi):
                a, b = get(part1), get(part2)
                if a is None or b is None:
                    continue
                image1 = part1 ^ pair if (i in part1) != (j in part1) else part1
                image2 = part2 ^ pair if (i in part2) != (j in part2) else part2
                if _subset_key(image1) > _subset_key(image2):
                    flips.append((a, b))
            elem = _bracket(elem, flips, kernel) if flips else elem
        if elem:
            comps[phi] = elem
    return KField._make(nu.chart, nu.arity, comps)


def _oriented_decompositions(phi: Subset):
    """Unordered splittings of phi into two nonempty parts, oriented part1 < part2.

    part1 holds min(phi), so it comes first in subset-lex order.
    """
    first, *rest = sorted(phi)
    for size in range(len(rest)):
        for extra in combinations(rest, size):
            part_a = frozenset((first, *extra))
            yield part_a, phi - part_a


@_checked
def act(word: Sequence[int], nu: KField, flavor: str = "free") -> KField:
    """Apply a word of adjacent swaps s_i = (i, i+1), first letter first.

    The resulting permutation action satisfies the symmetric-group relations
    exactly, so the value depends only on the permutation the word spells.
    The whole input is checked before the first letter is applied.
    """
    _budget(len(word), KField, "MAX_WORD_LENGTH", "word length")
    for i in word:
        _index(i, nu.arity - 1, "swap generator")
    kernel = _action_kernel(nu, flavor)
    out = nu
    for i in word:
        out = _act_by_transposition(out, i, i + 1, kernel)
    return out


@_checked
def act_transposition(nu: KField, i: int, j: int, flavor: str = "free") -> KField:
    """The swap-action formula taken directly on the transposition (i j).

    Unlike folding (i j) into adjacent swaps, this leaves every component not
    containing both i and j untouched up to relabeling, in both flavors.
    """
    _check_pair(i, j, nu.arity)
    return _act_by_transposition(nu, i, j, _action_kernel(nu, flavor))


def _action_kernel(nu: KField, flavor: str) -> Callable:
    """The numerator kernel of `flavor`'s bracket, once nu's arity is within the swap action's budget."""
    _budget(nu.arity, KField, "MAX_ACTION_ARITY", "arity")
    if flavor == "free":
        return _free_bracket_into
    if flavor == "lie":
        return _lie_bracket_into
    raise DomainError(f"unknown bracket flavor {_shown(flavor)}; use 'free' or 'lie'")


@_checked
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
    _check_pair(i, j, k)
    _budget(k, KField, "MAX_ACTION_ARITY", "arity")
    comps = {_drop_slot(phi, j): elem for phi, elem in nu.components.items() if i not in phi and j not in phi}
    flipped = [(p, q) for p, q in _disjoint_pairs(nu) if min(p) == i and j in q]
    for u, elem in _flip_sums(nu, flipped, {}).items():
        comps[_drop_slot(u - {j}, j)] = elem
    return KField._make(nu.chart, k - 1, comps)


@_checked
def is_trivial_homotopy(nu: KField) -> tuple[bool, tuple | None]:
    """Whether both swap flavors agree for every index pair.

    Returns (True, None) or (False, (i, j, phi, psi)) where (i, j) is the
    least pair whose two swaps differ, and phi, psi is the first disjoint
    pair of component index sets whose free and classical brackets already
    differ.
    """
    _budget(nu.arity, KField, "MAX_ACTION_ARITY", "arity")
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
    """D(p, q) = free_bracket(a_p, a_q) - lie_bracket_ext(a_p, a_q), one numerator dict per word, kept in `defects`."""
    if pq not in defects:
        defects[pq] = _bracket(None, [(nu.components[pq[0]], nu.components[pq[1]])], _free_minus_lie_into)
    return defects[pq]


def _free_minus_lie_into(accs: dict, an: list, bn: list, max_degree: int):
    _free_bracket_into(accs, an, bn, max_degree)
    _lie_bracket_into(accs, an, bn, max_degree, -1)


@_checked
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


@_checked
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


@_checked
def reduce_to_polyvector(nu: KField) -> Polyvector:
    """Cohomology class of a homotopy-trivial field as a decomposable polyvector.

    Projects components to classical fields.  The class exists when some
    relabeling moves the support into the flag chain {0} < {0,1} < ..., that
    is, when the support is totally ordered by inclusion; the components are
    then wedged in size order after dropping consecutive repeated entries.
    Otherwise the field is refused: with NotClosedError when some homotopy
    is non-trivial, else with NotFlagReducibleError.
    """
    _budget(nu.arity, KField, "MAX_ACTION_ARITY", "arity")
    # the projection of a component made of long words vanishes
    projected = ((phi, project_to_lie(elem)) for phi, elem in nu.components.items())
    fields = {phi: v for phi, v in projected if not v.is_zero()}
    # A chain support has no disjoint pair, so every homotopy is trivial and
    # each swap of the action is a pure relabeling onto another chain.  A
    # bracket correction only lands on the union of two disjoint supported
    # sets, and a disjoint pair of least total size is never corrected, so a
    # non-chain support stays non-chain under every word.  Reading the chain
    # in size order is thus what a search over all relabelings would find.
    support = sorted(fields, key=len)
    if any(not small < big for small, big in zip(support, support[1:])):
        classical = {phi: FreeLRElem.from_vfield(nu.chart, v) for phi, v in fields.items()}
        ok, witness = is_trivial_homotopy(KField._make(nu.chart, nu.arity, classical))
        if not ok:
            raise NotClosedError(witness)
        raise NotFlagReducibleError("no relabeling moves the support into the flag chain")
    out = Polyvector.zero(nu.chart.dim)
    previous = None
    for phi in support:
        v = fields[phi]
        if v == previous:
            continue
        out = Polyvector.from_vfield(v) if previous is None else wedge(out, Polyvector.from_vfield(v))
        previous = v
    return out
