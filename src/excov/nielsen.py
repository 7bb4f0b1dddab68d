"""Branch cycle tuples, braid moves, and their orbit bookkeeping.

A cover of the line ramified over r points leaves a combinatorial residue:
an r-tuple of permutations with product one whose entries generate the
monodromy group.  This module manipulates those tuples directly: genus
from the index sum, the braid twists that permute tuples with the same
invariants, orbit counts under declared equivalences, and the small
catalogue of families the rest of the package scans analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, ValidationError, check_field_cap, check_power_cap, field_cap
from .gf import _is_prime, _prime_factors
from .grouptheory import (
    ELEMENT_ARRAY,
    Perm,
    PermGroup,
    _image_rows,
    _orbit_labels,
    _perms,
    _row_keys,
    group_from_gens,
)

# -- tuples -------------------------------------------------------------------------


@dataclass(frozen=True)
class NielsenTuple:
    """Permutation tuple with its declared group."""

    perms: tuple[Perm, ...]
    group: PermGroup

    def __post_init__(self):
        if not self.perms:
            raise ValidationError("empty tuple")
        n = self.perms[0].degree
        for g in self.perms:
            if g.degree != n:
                raise ValidationError("mixed degrees in tuple")
        if self.group.degree != n:
            raise ValidationError("group degree does not match tuple")

    @property
    def r(self) -> int:
        return len(self.perms)

    @property
    def degree(self) -> int:
        return self.perms[0].degree

    def product(self) -> Perm:
        out = Perm.identity(self.degree)
        for g in self.perms:
            out = out * g
        return out


def rh_genus(t: NielsenTuple) -> int:
    """Source genus from the index sum; errors when no cover can exist."""
    n = t.degree
    if set(_orbit_labels([g.images for g in t.perms], n)) != {0}:
        raise ValidationError("not a branch cycle description: group not transitive")
    ind_sum = sum(n - len(g.cycles()) - g.fixed_count() for g in t.perms)
    if ind_sum % 2:
        raise ValidationError("not a branch cycle description: odd index sum")
    genus = ind_sum // 2 - n + 1
    if genus < 0:
        raise ValidationError("not a branch cycle description: negative genus")
    return genus


# -- braid action ---------------------------------------------------------------------


def braid_act(t: NielsenTuple, i: int) -> NielsenTuple:
    """Twist at position i (1-based): (.., a, b, ..) -> (.., a b a^-1, a, ..)."""
    if not 1 <= i <= t.r - 1:
        raise ValidationError(f"braid index {i} outside 1..{t.r - 1}")
    a, b = t.perms[i - 1], t.perms[i]
    new = list(t.perms)
    new[i - 1] = a * b * a.inverse()
    new[i] = a
    return NielsenTuple(tuple(new), t.group)


def _conjugators(t: NielsenTuple, equivalence) -> np.ndarray:
    """The conjugating permutations, one int32 image row each."""
    if equivalence is None or equivalence == "none":
        return np.arange(t.degree, dtype=np.int32)[None]
    if equivalence == "inner":
        return t.group.element_array
    conj = list(equivalence)  # explicit normalizer elements
    if not conj:
        raise ValidationError("need at least one conjugating permutation")
    return _image_rows(conj, t.degree)


def _twist(tup: np.ndarray, i: int) -> np.ndarray:
    """`braid_act` at position i on the (r, n) image array of a tuple."""
    a, b = tup[i - 1], tup[i]
    a_inv = np.empty_like(a)
    a_inv[a] = np.arange(len(a), dtype=a.dtype)
    out = tup.copy()
    out[i - 1] = a_inv[b[a]]
    out[i] = a
    return out


# conjugators per block of `_canonical`, whose keys hold _CONJ_BLOCK * r * n
# entries and never r times the whole conjugator array
_CONJ_BLOCK = 256


def _canonical(tup: np.ndarray, conj: np.ndarray, conj_inv: np.ndarray) -> bytes:
    """The least conjugate of tup, as big-endian bytes.

    Row k of the keys holds h^-1*g*h = h[g[h^-1]] for every entry g of tup,
    h = conj[k].  The images are non-negative, so the byte order of the
    big-endian rows is the order of the image tuples.  Past _CONJ_BLOCK
    conjugators the least key is taken block by block.
    """
    m = _CONJ_BLOCK
    if len(conj) > m:
        starts = range(0, len(conj), m)
        return min(_canonical(tup, conj[s : s + m], conj_inv[s : s + m]) for s in starts)
    inner = tup[:, conj_inv].transpose(1, 0, 2).reshape(len(conj), -1)
    return min(_row_keys(np.take_along_axis(conj, inner, axis=1).astype(">i4")))


def braid_orbit(t: NielsenTuple, equivalence="inner") -> list[NielsenTuple]:
    """Orbit under all twists, one representative per equivalence class.

    equivalence: "none", "inner" (conjugation by the declared group), or an
    explicit list of conjugating permutations (e.g. a known normalizer).
    Twists are invertible on the finite orbit, so forward moves suffice.
    Tuples and conjugators are int32 image arrays: a tuple's key is its
    least conjugate, taken over blocks of conjugators, one gather each.
    The orbit's size * r * n entries count against the field cap, as a
    group closure's order * degree do.
    """
    conj = _conjugators(t, equivalence)
    r, n = t.r, t.degree
    conj_inv = np.empty_like(conj)
    np.put_along_axis(conj_inv, conj, np.arange(n, dtype=np.int32)[None], axis=1)
    tup = _image_rows(t.perms, n)
    seen = {_canonical(tup, conj, conj_inv)}
    most = field_cap() // max(r * n, 1)
    queue = [tup]
    while queue:
        cur = queue.pop()
        for i in range(1, r):
            nxt = _twist(cur, i)
            key = _canonical(nxt, conj, conj_inv)
            if key not in seen:
                if len(seen) >= most:
                    check_field_cap((len(seen) + 1) * r * n, "braid orbit")
                seen.add(key)
                queue.append(nxt)
    # canonical forms are conjugate to visited tuples, hence equally valid
    return [
        NielsenTuple(tuple(_perms(np.frombuffer(key, ">i4").reshape(r, n))), t.group)
        for key in sorted(seen)
    ]


# -- stock families -------------------------------------------------------------------


def cyclic_branch_pair(n: int) -> NielsenTuple:
    """Two inverse n-cycles: the branch cycles of one full twist."""
    if n < 2:
        raise ValidationError("need n >= 2")
    check_field_cap(n * n, ELEMENT_ARRAY)
    s = Perm(tuple((i + 1) % n for i in range(n)))
    return NielsenTuple((s, s.inverse()), group_from_gens([s]))


def _involution_pair(n: int) -> np.ndarray:
    """The image rows of i -> -i - 1 and i -> -i mod n, the two reflections
    whose product steps the n-cycle forward."""
    return (-np.arange(n) - np.array([[1], [0]])) % n


def dickson_branch_triple(n: int) -> NielsenTuple:
    """Two reflections and the inverse n-cycle, for odd n: a genus-0 triple.

    On 1-based letters the reflections pair k with n+1-k and k with n+2-k;
    their product is (1 2 ... n), so the triple multiplies to the identity
    and generates the dihedral group of order 2n.
    """
    if n < 3 or n % 2 == 0:
        raise ValidationError("need odd n >= 3")
    check_field_cap(n * n, ELEMENT_ARRAY)
    g1, g2 = _perms(_involution_pair(n))
    ginf = (g1 * g2).inverse()
    return NielsenTuple((g1, g2, ginf), group_from_gens([g1, g2]))


def dickson_tower_cycles(n: int, levels: int) -> NielsenTuple:
    """Level-blocked branch cycles on N = n^levels letters.

    Each level contributes the reflection pair acting on its own coordinate
    (cross-level twisting is a free choice absorbed by equivalence, taken
    trivial here); the closing entry is the inverse of the full product and
    comes out as n^(levels-1) disjoint n-cycles.  The group is transitive,
    so its element array holds at least N^2 entries; N^2 is checked against
    the field cap before any row is built.  No formula for an
    infinite-level limit is assumed.
    """
    if n < 3 or n % 2 == 0:
        raise ValidationError("need odd n >= 3")
    if levels < 1:
        raise ValidationError("need at least one level")
    check_power_cap(n, 2 * levels, ELEMENT_ARRAY)
    N = n**levels
    pair = _involution_pair(n)
    # level j's reflections act on the base-n digit x // n^j mod n of letter x
    x = np.arange(N)
    rows = []
    for j in range(levels):
        digit = x // n**j % n
        rows.extend(x + (pair[:, digit] - digit) * n**j)
    prod = x
    for row in rows:
        prod = row[prod]
    inverse = np.empty_like(prod)
    inverse[prod] = x
    entries = _perms(rows + [inverse])
    if sorted(len(c) for c in entries[-1].cycles()) != [n] * (N // n):
        raise InternalInvariantError(f"closing entry is not {N // n} disjoint {n}-cycles")
    return NielsenTuple(tuple(entries), group_from_gens(entries))


# -- sign-vector tuples over (Z/p^(k+1))^2 ---------------------------------------------


@dataclass(frozen=True)
class ModularClasses:
    """Point-reflection 4-tuples up to the stated equivalences.

    tuples lists one normalized representative per inner class as four
    vectors (v1 = 0 by translation); the braid count partitions those
    classes under the three twists, the absolute count under the full
    linear normalizer.
    """

    p: int
    k: int
    tuples: tuple[tuple[tuple[int, int], ...], ...]
    inner_class_count: int
    inner_braid_orbit_count: int
    abs_class_count: int


def _primitive_root(m: int, p: int) -> int:
    # (Z/p^j)^* is cyclic; test generators by factoring the group order
    order = m // p * (p - 1)
    fac = _prime_factors(order)
    for g in range(2, m):
        if g % p == 0:
            continue
        if all(pow(g, order // f, m) != 1 for f in fac):
            return g
    raise ValidationError(f"no generator mod {m}")


def modular_nielsen(p: int, k: int = 0) -> ModularClasses:
    """Classify 4-tuples of point reflections x -> v - x of (Z/p^(k+1))^2.

    Product-one forces v1 - v2 + v3 - v4 = 0 and generation needs the
    differences to span; translation normalizes v1 to 0 and the central
    sign folds (v2, v3) with (-v2, -v3).
    """
    for name, value in (("p", p), ("k", k)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
    # every odd prime p has p^(k+1) > 13 once k >= 2, so bound k before the
    # power and the power before the primality test
    if k < 0 or k >= 2 or p ** (k + 1) > 13:
        raise ValidationError("size guard: p^(k+1) must stay <= 13")
    if p == 2 or not _is_prime(p):
        raise ValidationError("p must be an odd prime")
    m = p ** (k + 1)

    # the symbol ((a, b), (c, d)) is the code ((a*m + b)*m + c)*m + d, so the
    # order of the codes is the order of the tuples; m^4 <= 13^4 fits int32
    def code(a, b, c, d):
        return ((a * m + b) * m + c) * m + d

    def negated(a, b, c, d):
        return code(-a % m, -b % m, -c % m, -d % m)

    def canon(a, b, c, d):
        return np.minimum(code(a, b, c, d), negated(a, b, c, d))

    a, b, c, d = np.indices((m, m, m, m), dtype=np.int32).reshape(4, -1)
    codes = np.arange(m**4, dtype=np.int32)
    # a symbol and its negation differ (m is odd and the zero symbol does not
    # span), so the least member of each class is the one below its negation
    keep = ((a * d - b * c) % p != 0) & (codes < negated(a, b, c, d))
    inner = codes[keep]
    a, b, c, d = a[keep], b[keep], c[keep], d[keep]
    del codes, keep

    # every image list holds the same n int objects: .tolist() alone makes a
    # fresh int per entry, which raised a structural round's peak RSS by 1 MB
    ids = list(range(len(inner)))

    def images(a2, b2, c2, d2) -> list[int]:
        return list(map(ids.__getitem__, np.searchsorted(inner, canon(a2, b2, c2, d2)).tolist()))

    # the three twists in normalized symbols; two of them coincide
    braid_moves = [
        images(a, b, (c + a) % m, (d + b) % m),
        images((2 * a - c) % m, (2 * b - d) % m, a, b),
    ]
    g = _primitive_root(m, p)
    abs_moves = [
        images(
            (m0 * a + m1 * b) % m,
            (m2 * a + m3 * b) % m,
            (m0 * c + m1 * d) % m,
            (m2 * c + m3 * d) % m,
        )
        for m0, m1, m2, m3 in ((1, 1, 0, 1), (1, 0, 1, 1), (g, 0, 0, 1))
    ]

    def pairs(x, y):
        return zip(x.tolist(), y.tolist())

    tuples = tuple(
        ((0, 0), v2, v3, v4)
        for v2, v3, v4 in zip(pairs(a, b), pairs(c, d), pairs((c - a) % m, (d - b) % m))
    )
    return ModularClasses(
        p=p,
        k=k,
        tuples=tuples,
        inner_class_count=len(inner),
        inner_braid_orbit_count=len(set(_orbit_labels(braid_moves, len(inner)))),
        abs_class_count=len(set(_orbit_labels(abs_moves, len(inner)))),
    )


def modular_tuple_perms(p: int, k: int, v2, v3) -> NielsenTuple:
    """Realize a normalized symbol as actual point reflections on m^2 letters.

    The point (x, y) is the letter x*m + y; the group is generated by the
    reflection in 0 and the two unit translations.
    """
    m = p ** (k + 1)
    x, y = np.divmod(np.arange(m * m), m)
    v4 = ((v3[0] - v2[0]) % m, (v3[1] - v2[1]) % m)
    reflections = _perms([(a - x) % m * m + (b - y) % m for a, b in ((0, 0), v2, v3, v4)])
    shifts = _perms([(x + 1) % m * m + y, x * m + (y + 1) % m])
    return NielsenTuple(tuple(reflections), group_from_gens(reflections[:1] + shifts))
