"""Free Lie algebra over Q on an integer alphabet, in the Lyndon-word basis.

A Lyndon word is strictly smaller than every proper rotation of itself; its
standard bracketing b(w) = [b(u), b(v)], where v is the lexicographically
least proper suffix of w, gives a basis of the free Lie algebra.

Brackets of basis monomials are rewritten through the tensor algebra: the
expansion of b(w) is w plus lexicographically larger words of the same
multidegree, so Lyndon coordinates of any Lie element are recovered by a
triangular elimination against the smallest word in its support.  All
coefficients stay integral (the leading coefficient of b(w) is 1).
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache

from .chart_algebra import _checked, _int
from .errors import DomainError, _shown

Word = tuple[int, ...]

_EXPANSION_CACHE: dict[Word, dict[Word, int]] = {}
_BRACKET_CACHE: dict[tuple[Word, Word], dict[LyndonWord, int]] = {}


class LyndonWord(tuple):
    """An aperiodic word minimal among its rotations; basis label for monomials.

    The word is its tuple of letters, so it equals, hashes and orders like
    that tuple.
    """

    __slots__ = ()

    @_checked
    def __new__(cls, letters: Iterable[int]):
        letters = tuple(_int(a, "generator index") for a in letters)
        if not is_lyndon(letters):
            raise DomainError(f"{_shown(letters)} is not a Lyndon word")
        return tuple.__new__(cls, letters)

    @classmethod
    def _make(cls, letters: Word) -> "LyndonWord":
        """Wrap a tuple of ints that is already a Lyndon word."""
        return tuple.__new__(cls, letters)

    @property
    def letters(self) -> Word:
        """The letters as a plain tuple."""
        return tuple(self)

    def __repr__(self):
        return f"LyndonWord{tuple.__repr__(self)}"


def is_lyndon(word: Word) -> bool:
    """True when word is strictly smaller than all of its proper rotations.

    One left-to-right pass of Duval's factorization (1983): i is the letter the
    next one is matched against; a larger letter makes the prefix so far a
    Lyndon word again, and a smaller one ends the first factor before the end.
    """
    i = 0
    for j in range(1, len(word)):
        if word[i] < word[j]:
            i = 0
        elif word[i] == word[j]:
            i += 1
        else:
            return False
    # a match still running at the end means the word is a power of a shorter one
    return bool(word) and i == 0


def lyndon_words(alphabet: int, length: int) -> list[Word]:
    """All Lyndon words of the given exact length over {0..alphabet-1}, sorted; both are >= 1.

    Duval's generation (1988) steps through the Lyndon words of at most that length in order.
    """
    words, word = [], [-1]
    while word:
        word[-1] += 1
        if len(word) == length:
            words.append(tuple(word))
        # the next one: repeat the word up to the length, drop trailing greatest letters, raise the last
        word = [word[i % len(word)] for i in range(length)]
        while word and word[-1] == alphabet - 1:
            word.pop()
    return words


@cache
def standard_factorization(word: Word) -> tuple[Word, Word]:
    """Split a Lyndon word of length >= 2 as u,v with v the least proper suffix; found once per word."""
    best = 1
    for k in range(2, len(word)):
        if word[k:] < word[best:]:
            best = k
    return word[:best], word[best:]


def tensor_expansion(word: Word) -> dict[Word, int]:
    """Expansion of the standard bracketing of a Lyndon word in the tensor algebra."""
    cached = _EXPANSION_CACHE.get(word)
    if cached is not None:
        return cached
    if len(word) == 1:
        out = {word: 1}
    else:
        u, v = standard_factorization(word)
        out = _commutator(tensor_expansion(u), tensor_expansion(v))
    _EXPANSION_CACHE[word] = out
    return out


def _commutator(e1: dict[Word, int], e2: dict[Word, int]) -> dict[Word, int]:
    """e1*e2 - e2*e1 in the tensor algebra, without zero coefficients."""
    out: dict[Word, int] = {}
    for a, ca in e1.items():
        for b, cb in e2.items():
            out[a + b] = out.get(a + b, 0) + ca * cb
            out[b + a] = out.get(b + a, 0) - ca * cb
    return {w: c for w, c in out.items() if c}


def lie_to_lyndon(tensor: dict[Word, int]) -> dict[LyndonWord, int]:
    """Lyndon coordinates of a Lie element of one length, given by its tensor-word expansion, keyed by LyndonWord.

    Its least word is the least label among its Lyndon coordinates, so each step subtracts the standard
    bracketing of a Lyndon word, met once, and what is left is a Lie element: every least word is Lyndon.
    """
    work = {w: c for w, c in tensor.items() if c}
    out: dict[LyndonWord, int] = {}
    while work:
        wmin = min(work)
        c = out[LyndonWord._make(wmin)] = work[wmin]
        for w2, c2 in tensor_expansion(wmin).items():
            s = work.get(w2, 0) - c * c2
            if s:
                work[w2] = s
            else:
                work.pop(w2, None)
    return out


def monomial_bracket(w1: Word, w2: Word) -> dict[LyndonWord, int]:
    """Bracket of two standard bracketings, as Lyndon coordinates; each word is wrapped once, when cached."""
    if w1 == w2:
        return {}
    if (cached := _BRACKET_CACHE.get((w1, w2))) is None:
        cached = _BRACKET_CACHE[w1, w2] = lie_to_lyndon(_commutator(tensor_expansion(w1), tensor_expansion(w2)))
    return cached
