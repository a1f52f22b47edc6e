"""Reference arithmetic for the benchmark's correctness gate.

Expected answers are computed here, apart from igc's classes, so that a
fault on the timed code path cannot hide itself.  Values are plain
containers:

    poly    {exponent tuple: Fraction}, no zero coefficients
    vf      tuple of polys, one per coordinate (a vector field)
    elem    {Lyndon letters tuple: poly}, no zero coefficients
    comps   {frozenset: elem}, the components of a k-field
    pv      {strictly increasing index tuple: poly}, a polyvector

The converters at the bottom read igc values into these containers.
"""

from __future__ import annotations

from itertools import combinations


def p_add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c * scale
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def p_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def p_derive(a: dict, i: int) -> dict:
    # distinct exponents with e[i] > 0 stay distinct after lowering e[i]
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in a.items() if e[i]}


def v_apply(v: tuple, f: dict) -> dict:
    out: dict = {}
    for i, a in enumerate(v):
        if a:
            out = p_add(out, p_mul(a, p_derive(f, i)))
    return out


def v_bracket(u: tuple, v: tuple) -> tuple:
    return tuple(p_add(v_apply(u, v[i]), v_apply(v, u[i]), -1) for i in range(len(u)))


def v_is_zero(v: tuple) -> bool:
    return not any(v)


def basis(dim: int, i: int, coeff: dict | None = None) -> tuple:
    one = coeff if coeff is not None else {(0,) * dim: 1}
    return tuple(one if j == i else {} for j in range(dim))


# elements --------------------------------------------------------------------


def e_add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for w, p in b.items():
        s = p_add(out.get(w, {}), p, scale)
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def elem_of_vf(v: tuple) -> dict:
    return {(i,): p for i, p in enumerate(v) if p}


def projection(e: dict, dim: int) -> tuple:
    """Degree-1 part: the classical field an element projects to."""
    return tuple(e.get((i,), {}) for i in range(dim))


def lie_bracket(a: dict, b: dict, dim: int) -> dict:
    """Classical bracket of two degree-1 elements."""
    return elem_of_vf(v_bracket(projection(a, dim), projection(b, dim)))


def free_bracket_deg1(a: dict, b: dict, dim: int) -> dict:
    """Free Lie-Rinehart bracket of two degree-1 elements.

    [f*d_p, g*d_q] = f*g*F[d_p,d_q] + f*d_p(g)*d_q - g*d_q(f)*d_p, and
    F[d_q,d_p] = -F[d_p,d_q] in the Lyndon basis.
    """
    out = lie_bracket(a, b, dim)
    u, v = projection(a, dim), projection(b, dim)
    for p in range(dim):
        for q in range(p + 1, dim):
            c = p_add(p_mul(u[p], v[q]), p_mul(u[q], v[p]), -1)
            if c:
                out[(p, q)] = c
    return out


def wedge2_is_zero(a: dict, b: dict, dim: int) -> bool:
    """Whether two degree-1 elements are parallel, i.e. their free and
    classical brackets agree."""
    return free_bracket_deg1(a, b, dim) == lie_bracket(a, b, dim)


# k-fields --------------------------------------------------------------------


def subset_key(s) -> tuple:
    return tuple(sorted(s))


def all_subsets(k: int):
    for size in range(1, k + 1):
        for c in combinations(range(k), size):
            yield frozenset(c)


def oriented_splits(phi: frozenset):
    """Unordered splittings of phi into two nonempty parts, smaller part first."""
    items = sorted(phi)
    first, rest = items[0], items[1:]
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            a = frozenset((first,) + extra)
            b = phi - a
            if b:
                yield (a, b) if subset_key(a) < subset_key(b) else (b, a)


def swap_action(comps: dict, k: int, sigma, bracket) -> dict:
    """The swap-action formula for an involution sigma of the slots.

    A component whose index set moves is relabeled; a fixed one gains
    bracket(a_A, a_B) for every split A < B that sigma turns around.
    """
    out = {}
    for phi in all_subsets(k):
        image = frozenset(sigma(x) for x in phi)
        if image != phi:
            e = comps.get(image, {})
        else:
            e = comps.get(phi, {})
            for a, b in oriented_splits(phi):
                if a in comps and b in comps:
                    if subset_key(sigma(x) for x in a) > subset_key(sigma(x) for x in b):
                        e = e_add(e, bracket(comps[a], comps[b]))
        if e:
            out[phi] = e
    return out


def transposition(i: int, j: int):
    return lambda x: j if x == i else i if x == j else x


def lie_act(word, comps: dict, k: int, dim: int) -> dict:
    """Classical-flavored action of a word of adjacent swaps on a classical field."""
    bracket = lambda a, b: lie_bracket(a, b, dim)  # noqa: E731
    for i in word:
        comps = swap_action(comps, k, transposition(i, i + 1), bracket)
    return comps


def project_comps(comps: dict, dim: int) -> dict:
    out = {}
    for phi, e in comps.items():
        p = elem_of_vf(projection(e, dim))
        if p:
            out[phi] = p
    return out


def relabel(comps: dict, mapping) -> dict:
    return {frozenset(mapping[x] for x in phi): e for phi, e in comps.items()}


# polyvectors -----------------------------------------------------------------


def sort_with_sign(idx: tuple):
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    if any(a == b for a, b in zip(lst, lst[1:])):
        return None
    return tuple(lst), sign


def pv_of_vf(v: tuple) -> dict:
    return {(i,): p for i, p in enumerate(v) if p}


def pv_wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for i1, c1 in a.items():
        for i2, c2 in b.items():
            norm = sort_with_sign(i1 + i2)
            if norm is None:
                continue
            key, sign = norm
            s = p_add(out.get(key, {}), p_mul(c1, c2), sign)
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def pv_wedge_all(vfs) -> dict:
    vfs = list(vfs)
    if not vfs:
        return {}
    out = pv_of_vf(vfs[0])
    for v in vfs[1:]:
        out = pv_wedge(out, pv_of_vf(v))
    return out


def schouten(a: dict, b: dict, dim: int) -> dict:
    """Schouten bracket from its definition on decomposable monomials:
    sum over r, s of (-1)^(r+s) [a_r, b_s] ^ (a without a_r) ^ (b without b_s)."""
    total: dict = {}
    for i1, c1 in a.items():
        fa = [basis(dim, i1[0], c1)] + [basis(dim, i) for i in i1[1:]]
        for i2, c2 in b.items():
            fb = [basis(dim, i2[0], c2)] + [basis(dim, i) for i in i2[1:]]
            for r, ar in enumerate(fa):
                for s, bs in enumerate(fb):
                    br = v_bracket(ar, bs)
                    if v_is_zero(br):
                        continue
                    term = pv_wedge_all([br] + fa[:r] + fa[r + 1 :] + fb[:s] + fb[s + 1 :])
                    total = e_add(total, term, -1 if (r + s) % 2 else 1)
    return total


def chain_class(vectors) -> dict:
    """Class of a flag chain: wedge of its vectors in order, zeros dropped and
    consecutive repeats merged."""
    kept = []
    for v in vectors:
        if not v_is_zero(v) and (not kept or kept[-1] != v):
            kept.append(v)
    return pv_wedge_all(kept)


# readers for igc values ------------------------------------------------------


def poly_of(p) -> dict:
    return dict(p.terms)


def elem_of(e) -> dict:
    return {w.letters: poly_of(p) for w, p in e.terms.items()}


def comps_of(k) -> dict:
    return {frozenset(phi): elem_of(e) for phi, e in k.components.items()}


def pv_of(p) -> dict:
    return {idx: poly_of(c) for idx, c in p.terms.items()}
