"""Permutation groups and coset fixed-point criteria.

The scanning modules measure bijectivity over ever-larger extensions; this
module predicts those measurements from a finite model: a permutation group
G together with a normalizing element tau whose cosets G*tau^t stand in for
the extensions of degree t.  Exceptionality, range equality, and fiber
component counts all become statements about fixed points on those cosets.

Every group is materialized as one (order, degree) int32 array E of the
element images, grown by a breadth-first closure in which each step is one
gather and new rows are found by their bytes; those keys are local to the
closure, so a group holds no second copy of its elements, and a closure's
order * degree entries count against the field cap.  Everything is read
off E:
- Exceptionality of a transitive group is Fried's criterion.  Every
  element of G*tau^t fixes exactly one point iff tau^t fixes no G-orbit on
  the off-diagonal pairs X x X minus the diagonal (the absolutely
  irreducible components of the fiber product).  Those orbits are the
  suborbits of the stabilizer of 0, and one pass over E finds them and the
  permutation tau makes of them, whatever the coset period d.  It serves
  the pr-exceptional mode too (`coset_exceptionality`).
- Every other coset predicate reads the one coset pass, `_coset_fixes`:
  the intransitive groups, the DP and iDP trace tests of a paired model
  (itself a `MonodromyData`) and `pencil.stable_component_count`.  With T
  the images of tau^t, the images of every g*tau^t are the one gather
  T[E], their fixed points T[E] == arange, counted per block, and
  tau^(t+1) is one more gather.
- `analyze_rep` reads transitivity, primitivity and the centralizer off
  the columns of E.
Internally a permutation is an int32 image row, and the models, fiber
products and paired blocks are built as such rows by index arithmetic.
`Perm` is the scalar type of the public boundary (`MonodromyData.tau`,
`PermGroup.generators`, what `fiber_tensor` and `fano_actions` return,
cycle notation) and of the oracles, which live in the tests: the coset
pass against Fried's criterion, the Perm-by-Perm closure against the array
closure, a Perm-by-Perm coset with `Perm.fixed_count` against the coset
pass, the letter-by-letter constructions against the array ones, and the
generator-based orbit, block and centralizer searches against
`analyze_rep`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import InternalInvariantError, ValidationError, check_field_cap, field_cap
from .frobset import FrobeniusSet, _from_closed, _unit_closure
from .gf import _is_prime, _power

ELEMENT_ARRAY = "group element array"


# -- permutations ---------------------------------------------------------------


# images of at most this many letters are checked by a sort, which beats
# numpy's per-call cost there: 22 against 24 us at 500 letters, 115 against
# 85 us at 2000
_PERM_SORT_MAX = 1 << 10


def _is_permutation(images: Sequence[int]) -> bool:
    """Are the images, all integers, those of a permutation of 0..n-1?
    Past ``_PERM_SORT_MAX`` letters they are checked as one int64 row and
    a mask of the letters hit, 9 bytes per letter, not by sorting a copy."""
    n = len(images)
    try:
        if n <= _PERM_SORT_MAX:
            return sorted(map(operator.index, images)) == list(range(n))
        row = np.fromiter(map(operator.index, images), dtype=np.int64, count=n)
    except (TypeError, OverflowError):  # a non-integer, or an int past int64
        return False
    if row.min() < 0 or row.max() >= n:
        return False
    hit = np.zeros(n, dtype=bool)
    hit[row] = True
    return bool(hit.all())


@dataclass(frozen=True)
class Perm:
    """A permutation of {0..n-1} as an image tuple, acting on the right.

    (i)(g1*g2) = ((i)g1)g2, so g1*g2 means "apply g1 first".
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if not _is_permutation(self.images):
            n = len(self.images)
            raise ValidationError(f"not a permutation of 0..{n - 1}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, text: str, degree: Optional[int] = None) -> "Perm":
        """Parse 1-based cycle notation like "(1 2 3)(4 5)"."""
        s = text.replace(",", " ").strip()
        if s in ("", "()"):
            if degree is None:
                raise ValidationError("identity cycle string needs an explicit degree")
            return cls.identity(degree)
        cycles: list[list[int]] = []
        if not s.startswith("("):
            raise ValidationError(f"cycle notation must start with '(': {text!r}")
        depth = 0
        cur: list[int] = []
        for tok in s.replace("(", " ( ").replace(")", " ) ").split():
            if tok == "(":
                if depth:
                    raise ValidationError(f"nested '(' in {text!r}")
                depth, cur = 1, []
            elif tok == ")":
                if not depth:
                    raise ValidationError(f"unmatched ')' in {text!r}")
                depth = 0
                cycles.append(cur)
            else:
                try:
                    v = int(tok)
                except ValueError:
                    raise ValidationError(f"bad label {tok!r} in {text!r}") from None
                if v < 1:
                    raise ValidationError(f"labels are 1-based, got {v} in {text!r}")
                cur.append(v)
        if depth:
            raise ValidationError(f"unclosed '(' in {text!r}")
        top = max((max(c) for c in cycles if c), default=0)
        n = degree if degree is not None else top
        if top > n:
            raise ValidationError(f"label {top} exceeds degree {n} in {text!r}")
        images = list(range(n))
        seen: set[int] = set()
        for c in cycles:
            for v in c:
                if v in seen:
                    raise ValidationError(f"label {v} repeats in {text!r}")
                seen.add(v)
            for a, b in zip(c, c[1:] + c[:1]):
                images[a - 1] = b - 1
        return cls(tuple(images))

    @classmethod
    def from_one_line(cls, images_1based: Sequence[int]) -> "Perm":
        return cls(tuple(v - 1 for v in images_1based))

    @property
    def degree(self) -> int:
        return len(self.images)

    def act(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Perm") -> "Perm":
        if other.degree != self.degree:
            raise ValidationError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        o = other.images
        return Perm(tuple(o[i] for i in self.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, v in enumerate(self.images):
            inv[v] = i
        return Perm(tuple(inv))

    def __pow__(self, e: int) -> "Perm":
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e, Perm.__mul__, Perm.identity(self.degree))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def fixed_count(self) -> int:
        return sum(1 for i, v in enumerate(self.images) if i == v)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            c = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                c.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(c))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self.cycles() else 1

    def cycle_string(self) -> str:
        cs = self.cycles()
        if not cs:
            return "()"
        return "".join("(" + " ".join(str(v + 1) for v in c) + ")" for c in cs)

    def __repr__(self) -> str:
        return f"Perm{self.cycle_string()}"


def _image_rows(perms: Sequence[Perm], degree: int) -> np.ndarray:
    """The images of perms as a (len(perms), degree) int32 array."""
    for g in perms:
        if g.degree != degree:
            raise ValidationError(f"degree {g.degree} does not match {degree}")
    return np.array([g.images for g in perms], dtype=np.int32).reshape(len(perms), degree)


def _perms(rows) -> list[Perm]:
    """One `Perm` per image row."""
    return [Perm(tuple(row)) for row in np.asarray(rows).tolist()]


# -- materialized groups ----------------------------------------------------------


class PermGroup:
    """A finite permutation group as an element array in BFS order.

    The closure grows the frontier by gathers: the products h*g of the
    frontier rows h with the generators g are g[h], taken h-major and
    g-minor, and a row is new when its bytes are not yet in the set of seen
    rows.  That set is the closure's alone, dropped before the blocks are
    joined: a group keeps its generators, their image rows generator_array
    and element_array.  A gather holds at most field_cap() entries, so a
    refused closure never forms more.
    """

    def __init__(self, degree: int, generators: Sequence[Perm]):
        self.degree = degree
        self.generators = tuple(generators)
        self.generator_array = gens = _image_rows(generators, degree)
        # the element array's order * degree entries count against the field
        # cap: len(seen) reaches field_cap() // degree exactly when one more
        # element passes it
        cap = field_cap()
        most = cap // max(degree, 1)
        step = max(cap // max(len(gens) * degree, 1), 1)
        frontier = np.arange(degree, dtype=np.int32)[None]
        blocks = [frontier]
        seen = set(_row_keys(frontier))
        while len(frontier):
            frontier = _new_products(gens, frontier, seen, most, step)
            blocks.append(frontier)
        del seen
        self.element_array = np.concatenate(blocks)
        self.element_array.flags.writeable = False

    @property
    def order(self) -> int:
        return len(self.element_array)

    def __len__(self) -> int:
        return len(self.element_array)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def _new_products(gens: np.ndarray, frontier: np.ndarray, seen: set, most: int, step: int) -> np.ndarray:
    """The products of the frontier rows with gens whose bytes are not yet in
    seen, in closure order, formed for at most step frontier rows at a time.
    Their bytes join seen; a new row past the most-th passes the field cap."""
    if len(frontier) > step:
        chunks = [frontier[s : s + step] for s in range(0, len(frontier), step)]
        return np.concatenate([_new_products(gens, c, seen, most, step) for c in chunks])
    degree = frontier.shape[1]
    products = gens[:, frontier].transpose(1, 0, 2).reshape(len(frontier) * len(gens), degree)
    new = []
    for i, key in enumerate(_row_keys(products)):
        if key not in seen:
            if len(seen) >= most:
                check_field_cap((len(seen) + 1) * degree, ELEMENT_ARRAY)
            seen.add(key)
            new.append(i)
    return products if len(new) == len(products) else products[new]


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a C-contiguous 2-d array."""
    width = rows.shape[1] * rows.itemsize
    if not width:
        return [b""] * len(rows)
    data = rows.tobytes()
    return [data[i : i + width] for i in range(0, len(data), width)]


def group_from_gens(gens: Sequence[Perm]) -> PermGroup:
    if not gens:
        raise ValidationError("need at least one generator")
    return PermGroup(gens[0].degree, gens)


# -- orbit machinery ---------------------------------------------------------------


def _orbit_labels(images: Sequence[Sequence[int]], n: int) -> list[int]:
    """label[x] = number of the orbit of x under the maps x -> img[x].

    Each img in images is an image list on 0..n-1 and must be a
    permutation of range(n): orbits are grown by forward images only, which
    reaches the whole orbit of a group but not of an arbitrary map.  Every
    caller passes permutations (Perm.images, fiber_tensor products, the
    point-reflection symbol moves).  Orbits are numbered 0, 1, ... in the
    order of their least points.
    """
    label = [-1] * n
    count = 0
    for s in range(n):
        if label[s] >= 0:
            continue
        label[s] = count
        queue = [s]
        while queue:
            x = queue.pop()
            for img in images:
                y = img[x]
                if label[y] < 0:
                    label[y] = count
                    queue.append(y)
        count += 1
    return label


def analyze_rep(G: PermGroup) -> dict[str, bool]:
    """Transitivity ladder and self-normalization, read off the element array.

    Column x of E lists the images of x, so G is transitive when column 0
    takes n values and doubly transitive when columns 0 and 1 take n(n-1)
    pairs.  A transitive G is primitive when the stabilizer H of 0 is
    maximal; a regular G (|G| = n, H trivial) is so iff n is prime.
    Otherwise the least block holding 0 and b is the orbit of 0 under
    <H, g>, with g any element taking 0 to b, and G is primitive when every
    such block is everything.  A nontrivial permutation centralizes G
    exactly when two points have one stabilizer, that is when two columns
    of E == arange agree.  Distinct values are counted by sort and diff and
    distinct columns by a set of their packed bytes: np.unique would import
    numpy.ma.
    """
    E, n = G.element_array, G.degree
    fixes = E == np.arange(n)
    at0 = E[:, :1].ravel()  # the images of 0, none when n = 0
    order = np.argsort(at0, kind="stable")
    first = order[np.flatnonzero(np.diff(at0[order], prepend=-1))]  # one row per image
    transitive = n > 0 and len(first) == n
    primitive = transitive
    if transitive and len(E) == n:
        # a regular group: H is trivial, and maximal exactly when |G| = n
        # has no proper nontrivial subgroup, that is when n is prime
        primitive = n == 1 or _is_prime(n)
    elif transitive:
        # h in H maps the block of {0, b} onto that of {0, h(b)}, so one b
        # per suborbit of H is tested, its least point
        H = E[fixes[:, 0]]
        reps = np.flatnonzero(H.min(0) == np.arange(n))[1:]
        H = H.tolist()
        primitive = all(not any(_orbit_labels(H + [g.tolist()], n)) for g in E[first[reps]])
    doubly = False
    if n >= 2:
        pairs = np.sort(E[:, 0].astype(np.int64) * n + E[:, 1])
        doubly = int(np.count_nonzero(np.diff(pairs))) + 1 == n * (n - 1)
    columns = np.packbits(fixes.T, axis=1)
    return {
        "transitive": transitive,
        "primitive": primitive,
        "doubly_transitive": doubly,
        "self_normalizing": len({c.tobytes() for c in columns}) == n,
    }


# -- monodromy models ---------------------------------------------------------------


@dataclass(frozen=True)
class MonodromyData:
    """A group with a distinguished normalizing element and its coset period.

    d is the least positive power of tau landing inside the group, so the
    cosets group*tau^t repeat with period d and t is read modulo d.
    tau_row holds the images of tau.
    """

    group: PermGroup
    tau: Perm
    d: int = field(init=False)
    tau_row: np.ndarray = field(init=False, repr=False, compare=False)

    _what = "the group"  # how a normalization failure names the group

    def __post_init__(self):
        step = _image_rows([self.tau], self.group.degree)[0]
        object.__setattr__(self, "tau_row", step)
        object.__setattr__(self, "d", _coset_period(self.group, step, self._what))


def _coset_period(group: PermGroup, step: np.ndarray, what: str) -> int:
    """Check that tau normalizes group; return the least d >= 1 with tau^d in it.

    step is the image row T of tau.  The conjugates tau^-1*g*tau of the
    generators are T[g[T^-1]], and tau^(d+1) is the gather T[tau^d].
    Membership is read off a set of the element rows' bytes, made here and
    dropped on return.
    """
    members = {row.tobytes() for row in group.element_array}
    inverse = np.empty_like(step)
    inverse[step] = np.arange(len(step), dtype=np.int32)
    for conjugate in step[group.generator_array[:, inverse]]:
        if conjugate.tobytes() not in members:
            raise ValidationError(f"tau does not normalize {what}")
    d = 1
    power = step
    while power.tobytes() not in members:
        power = step[power]
        d += 1
    return d


def _coset_fixes(M: MonodromyData, start: int = 0) -> Iterator[tuple[int, list[np.ndarray]]]:
    """The one coset pass: (t, counts) for t = start..d-1, counts[b][r] the
    letters of block b that element r times tau^t fixes.  A `PairedMonodromy`
    has the blocks of its two actions, any other model one of all letters.
    g*tau^t applies g first, so with T the images of tau^t the images of the
    coset are the one gather T[E], and tau^(t+1) is one more gather."""
    E, n = M.group.element_array, M.group.degree
    edges = (0, M.n1, n) if isinstance(M, PairedMonodromy) else (0, n)
    T = A = np.arange(n, dtype=np.int32)
    for t in range(M.d):
        if t >= start:
            F = T[E] == A
            yield t, [F[:, a:b].sum(1) for a, b in zip(edges, edges[1:])]
        T = M.tau_row[T]


def _suborbit_cycles(group: PermGroup, step: np.ndarray) -> Optional[set[int]]:
    """Lengths of the cycles tau makes on the off-diagonal G-orbits of pairs.

    None when G is not transitive.  G is transitive when every column of E
    holds a 0; to0[a] is a row taking a to 0.  The G-orbits on pairs are
    the orbits (0, s)^G, one per suborbit of s under the stabilizer H of 0,
    named by its least point sub[s].  tau takes (0, s) to (tau(0), tau(s)),
    which the row to0[tau(0)] carries back to (0, E[to0[tau(0)], tau(s)]).
    """
    E, n = group.element_array, group.degree
    if not n:
        return None
    to0 = np.full(n, -1, dtype=np.intp)
    to0[E.argmin(1)] = np.arange(len(E))
    if (to0 < 0).any():
        return None
    sub = E[E[:, 0] == 0].min(0)
    image = sub[E[to0[step[0]], step]].tolist()
    seen = [False] * n
    lengths = set()
    for s in np.flatnonzero(sub[1:] == np.arange(1, n)).tolist():
        x, length = s + 1, 0
        while not seen[x]:
            seen[x] = True
            x = image[x]
            length += 1
        if length:
            lengths.add(length)
    return lengths


def _closed_residues(passing: set[int], d: int, what: str) -> FrobeniusSet:
    closed = _unit_closure(d, passing)
    if closed != passing:
        raise InternalInvariantError(
            f"{what} residues {sorted(passing)} mod {d} not unit-closed"
        )
    return _from_closed(d, closed)


def coset_exceptionality(M: MonodromyData, mode: str = "exceptional") -> FrobeniusSet:
    """Residues t where every element of group*tau^t fixes exactly
    (mode "exceptional") or at least (mode "pr-exceptional") one point.

    For a transitive group both modes are Fried's criterion: t passes
    when no cycle of tau on the off-diagonal pair orbits has a length
    dividing t.  By Burnside's lemma the mean fixed-point count over
    G*tau^t is the number of G-orbits tau^t maps to themselves, 1 for a
    transitive G, so at least one fixed point everywhere is exactly one.
    Otherwise each coset is counted out.
    """
    if mode not in ("exceptional", "pr-exceptional"):
        raise ValidationError(f"unknown mode {mode!r}")
    lengths = _suborbit_cycles(M.group, M.tau_row)
    if lengths is not None:
        passing = {t for t in range(M.d) if all(t % k for k in lengths)}
    else:
        ok = (lambda f: f == 1) if mode == "exceptional" else (lambda f: f >= 1)
        passing = {t for t, counts in _coset_fixes(M) if ok(sum(counts)).all()}
    return _closed_residues(passing, M.d, mode)


def cyclic_cover_model(n: int, q: int) -> MonodromyData:
    """Translations of Z/n with tau = multiplication by q.

    Predicts the power map x^n over a field of order q: the coset at t
    consists of the maps x -> q^t*x + b, with a unique fixed point exactly
    when q^t is not 1 mod n.
    """
    if n < 1 or q < 2 or math.gcd(n, q) != 1:
        raise ValidationError("need n >= 1 and q >= 2 with gcd(n, q) = 1")
    check_field_cap(n * n, ELEMENT_ARRAY)
    shift = Perm(tuple((i + 1) % n for i in range(n)))
    tau = Perm(tuple((i * q) % n for i in range(n)))
    return MonodromyData(PermGroup(n, (shift,)), tau)


def dickson_cover_model(n: int, q: int) -> MonodromyData:
    """Signed translations x -> +-x + b of Z/n with tau = multiplication by q."""
    if n < 3 or n % 2 == 0 or q < 2 or math.gcd(n, q) != 1:
        raise ValidationError("need odd n >= 3 and gcd(n, q) = 1")
    check_field_cap(n * n, ELEMENT_ARRAY)
    shift = Perm(tuple((i + 1) % n for i in range(n)))
    flip = Perm(tuple((-i) % n for i in range(n)))
    tau = Perm(tuple((i * q) % n for i in range(n)))
    return MonodromyData(PermGroup(n, (shift, flip)), tau)


# -- fiber products -----------------------------------------------------------------


def fiber_tensor(gens1: Sequence[Perm], gens2: Sequence[Perm]) -> list[Perm]:
    """Pairwise product action on V1 x V2, index (i, j) -> i*n2 + j.

    Each product's n1 * n2 letters are checked against the field cap before
    it is built.
    """
    if len(gens1) != len(gens2):
        raise ValidationError("parallel generator lists differ in length")
    out = []
    for a, b in zip(gens1, gens2):
        check_field_cap(a.degree * b.degree, "fiber product")
        row = np.array(a.images, dtype=np.int64)[:, None] * b.degree + b.images
        out.append(Perm(tuple(row.ravel().tolist())))
    return out


def component_count(perms: Sequence[Perm], off_diagonal: bool = False) -> int:
    """Orbit count of the generated group, optionally off the diagonal.

    With off_diagonal the permutations must act on V x V (a square degree)
    and preserve the diagonal.  The pair (i, i) is the letter i*(n + 1), so
    the diagonal is every (n + 1)-th letter from 0.
    """
    if not perms:
        raise ValidationError("need at least one permutation")
    N = perms[0].degree
    for g in perms:
        if g.degree != N:
            raise ValidationError("mixed degrees in component_count")
    labels = _orbit_labels([g.images for g in perms], N)
    if off_diagonal:
        n = math.isqrt(N)
        if n * n != N:
            raise ValidationError(f"degree {N} is not a square, cannot split pairs")
        if any(x % (n + 1) for g in perms for x in g.images[:: n + 1]):
            raise ValidationError(
                "action does not preserve the diagonal; off-diagonal "
                "orbits are undefined"
            )
        del labels[:: n + 1]
    return len(set(labels))


# -- paired actions (range and fiber-count tests) -----------------------------------


class PairedMonodromy(MonodromyData):
    """Two parallel actions of one group, under a common normalizing tau.

    A `MonodromyData` whose group acts on n1 + n2 letters, its i-th
    generator as gens1[i] on the first n1 letters and as gens2[i] on the
    last n2; tau either preserves the blocks (parallel images) or, when
    n1 = n2, swaps them wholesale.  A swapping coset exchanges the two
    fibers, so no range comparison can hold there.
    """

    _what = "the paired group"

    def __init__(self, gens1: Sequence[Perm], gens2: Sequence[Perm], tau: Perm):
        if len(gens1) != len(gens2):
            raise ValidationError("parallel generator lists differ in length")
        if not gens1:
            raise ValidationError("both actions need at least one generator")
        n1, n2 = gens1[0].degree, gens2[0].degree
        first = _image_rows([tau], n1 + n2)[0, :n1]
        if (first < n1).all():
            swaps = False
        elif (first >= n1).all():
            if n1 != n2:
                raise ValidationError("block swap needs equal degrees")
            swaps = True
        else:
            raise ValidationError("tau splits a fiber across both blocks")
        self.n1, self.n2, self.swaps = n1, n2, swaps  # not fields, so not frozen
        blocks = np.concatenate([_image_rows(gens1, n1), _image_rows(gens2, n2) + n1], axis=1)
        super().__init__(PermGroup(n1 + n2, _perms(blocks)), tau)

    @classmethod
    def from_parallel(
        cls, gens1: Sequence[Perm], gens2: Sequence[Perm], tau1: Perm, tau2: Perm
    ) -> "PairedMonodromy":
        """The pair under tau1 on the first block and tau2 on the second."""
        return cls(gens1, gens2, Perm(tau1.images + tuple(v + tau1.degree for v in tau2.images)))


def _trace_residues(P: PairedMonodromy, agree, what: str) -> FrobeniusSet:
    """Residues t where agree(f1, f2) holds on every element of group*tau^t,
    with f1 and f2 the fixed-point counts on the two blocks (`_coset_fixes`).
    A swapping coset, at odd t, exchanges the two fibers outright."""
    passing = {
        t for t, (f1, f2) in _coset_fixes(P) if not (P.swaps and t % 2) and agree(f1, f2).all()
    }
    return _closed_residues(passing, P.d, what)


def davenport_trace_test(P: PairedMonodromy) -> FrobeniusSet:
    """Residues where both actions hit or both miss, for every coset element."""
    return _trace_residues(P, lambda a, b: (a > 0) == (b > 0), "range agreement")


def idp_trace_test(P: PairedMonodromy) -> FrobeniusSet:
    """Residues where the two fixed-point counts agree exactly."""
    return _trace_residues(P, lambda a, b: a == b, "fiber-count agreement")


def sdp_check(P: PairedMonodromy) -> bool:
    """Does the exact-count agreement hold at every residue?"""
    got = idp_trace_test(P)
    return got.modulus == 1 and not got.is_empty()


# -- the smallest projective plane ----------------------------------------------------


def fano_actions() -> tuple[list[Perm], list[Perm]]:
    """Parallel generators of the plane of order 2 on points and on lines.

    Points are the 7 nonzero vectors of a 3-dimensional binary space, lines
    the 7 nonzero functionals, both labeled 1..7 by binary value, and a
    point lies on a line where the functional vanishes.  The two generators
    are an order-7 cycle (companion of x^3 + x + 1) and a transvection;
    together they generate the full collineation group.  A matrix moves the
    points by its action on vectors, and each line to the line through the
    images of its three points: the one line that meets them three times,
    since two lines share one point.
    """
    matrices = np.array([
        [[0, 0, 1], [1, 0, 1], [0, 1, 0]],  # rows of the companion matrix
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
    ])
    bits = np.array([4, 2, 1])
    vectors = np.arange(1, 8)[:, None] // bits % 2  # row i: the vector labeled i + 1
    incidence = 1 - vectors @ vectors.T % 2  # [i, j]: point i lies on line j
    points = vectors @ matrices.transpose(0, 2, 1) % 2 @ bits - 1
    lines = (incidence.T @ incidence[points]).argmax(2)
    return _perms(points), _perms(lines)


def block_swap(n: int) -> Perm:
    """The involution exchanging two n-letter blocks index-for-index."""
    return Perm(tuple(range(n, 2 * n)) + tuple(range(n)))
