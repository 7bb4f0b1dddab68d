"""Exact arithmetic in F_{p^k} and in relative extensions F_q within F_{q^t}.

Fields are built as explicit towers: a prime field at the bottom, then a
chain of relative extensions, each defined by the least monic irreducible
modulus over the field below it (coefficient lists compared low-to-high as
little-endian integers).  Keeping the chain explicit makes "is this element
in the base field" a structural question instead of a search.

Elements are represented by nested coefficient tuples mirroring the tower.
The scalar engine here is the reference semantics; `_batch` implements the
same arithmetic on numpy arrays and is cross-checked against this module.
Polynomial arithmetic over a field (``_poly_mul``, ``_poly_divmod``,
``_poly_gcd``) and the one square-and-multiply loop (``_power``) live here
too; ``projmap.Poly`` and every other power in the package call into them.
So does the F_p-matrix engine (``_basis``, ``_element_matrices``): the
matrices of multiplication by field elements, built from the moduli
alone.  It runs the modulus search here and the generator search and
exp-table build in ``_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional, TypeVar, Union

import numpy as np

from .errors import (
    CapExceededError,
    InternalInvariantError,
    ValidationError,
    check_field_cap,
    check_power_cap,
    field_cap,
)

Raw = Union[int, tuple]  # int for prime fields, tuple of base raws above
_T = TypeVar("_T")


def _power(x: _T, e: int, mul: Callable[[_T, _T], _T], one: _T) -> _T:
    """x**e for e >= 0 by square-and-multiply; mul is the product, one its unit."""
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _prime_list(hi: int, lo: int = 2) -> list[int]:
    """The primes p with lo <= p <= hi, increasing (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * (hi + 1)
    out = []
    for i in range(2, hi + 1):
        if sieve[i]:
            if i >= lo:
                out.append(i)
            for j in range(i * i, hi + 1, i):
                sieve[j] = 0
    return out


@dataclass(frozen=True)
class FieldCtx:
    """A finite field, possibly a relative extension of another FieldCtx.

    p: characteristic.  k: absolute degree over F_p, so the order is p^k.
    base: the field one step down the tower, None for the prime field.
    modulus: monic irreducible over base, low-to-high, entries are raw
    base-field values (ints when base is the prime field).  The prime
    field itself carries the degree-one modulus x.
    """

    p: int
    k: int
    base: Optional["FieldCtx"]
    modulus: tuple
    key: tuple = field(compare=False, default=())
    # the raw 0 and 1, made once per field and read by the raw arithmetic
    _zero: Raw = field(init=False, repr=False, compare=False)
    _one: Raw = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.base is None:
            zero, one = 0, 1
        else:
            zero = (self.base._zero,) * self.rel_degree
            one = (self.base._one,) + zero[1:]
        object.__setattr__(self, "_zero", zero)
        object.__setattr__(self, "_one", one)

    @property
    def order(self) -> int:
        return self.p ** self.k

    @property
    def rel_degree(self) -> int:
        return len(self.modulus) - 1

    @property
    def base_order(self) -> int:
        return 1 if self.base is None else self.base.order

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and self.key == other.key

    def __repr__(self) -> str:
        return f"FieldCtx(order={self.p}^{self.k})"

    # -- element constructors -------------------------------------------

    def zero(self) -> "FieldElem":
        return FieldElem(self, self._zero)

    def one(self) -> "FieldElem":
        return FieldElem(self, self._one)

    def from_int(self, n: int) -> "FieldElem":
        """The image of the integer n in the prime subfield."""
        return FieldElem(self, _from_int_raw(self, n))

    def from_index(self, i: int) -> "FieldElem":
        if not 0 <= i < self.order:
            raise ValidationError(f"element index {i} out of range for order {self.order}")
        return FieldElem(self, _raw_from_index(self, i))

    def gen(self) -> "FieldElem":
        """Root of the defining modulus; equals 1 in the prime field."""
        if self.base is None:
            return self.one()
        raw = tuple(self.base._one if i == 1 else self.base._zero for i in range(self.rel_degree))
        return FieldElem(self, raw)

    def embed(self, e: "FieldElem") -> "FieldElem":
        """Carry an element of a field lower in this tower up to here."""
        return FieldElem(self, _embed_raw(self, e.ctx, e.raw))

    def in_chain(self, other: "FieldCtx") -> bool:
        cur: Optional[FieldCtx] = self
        while cur is not None:
            if cur == other:
                return True
            cur = cur.base
        return False


class FieldElem:
    """Immutable element of a FieldCtx; arithmetic via operators."""

    __slots__ = ("ctx", "raw", "_hash")

    def __init__(self, ctx: FieldCtx, raw: Raw):
        self.ctx = ctx
        self.raw = raw
        self._hash = hash((ctx.key, raw))

    # coefficient view over the immediate base field
    @property
    def coeffs(self) -> tuple:
        if self.ctx.base is None:
            return (self.raw,)
        return tuple(FieldElem(self.ctx.base, c) for c in self.raw)

    @property
    def index(self) -> int:
        return _index_raw(self.ctx, self.raw)

    def prime_coeffs(self) -> tuple[int, ...]:
        """Absolute coefficient vector over F_p, low-to-high, length k."""
        out: list[int] = []
        _flatten_raw(self.ctx, self.raw, out)
        return tuple(out)

    def is_zero(self) -> bool:
        return self.raw == self.ctx._zero

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElem)
            and self.ctx == other.ctx
            and self.raw == other.raw
        )

    def __hash__(self) -> int:
        return self._hash

    def _pair(self, other) -> tuple["FieldCtx", Raw, Raw]:
        """Common field plus both raws, lifting the lower operand."""
        if isinstance(other, int):
            return self.ctx, self.raw, _from_int_raw(self.ctx, other)
        if not isinstance(other, FieldElem):
            raise TypeError(f"cannot combine FieldElem with {type(other).__name__}")
        if other.ctx == self.ctx:
            return self.ctx, self.raw, other.raw
        if self.ctx.in_chain(other.ctx):
            return self.ctx, self.raw, _embed_raw(self.ctx, other.ctx, other.raw)
        if other.ctx.in_chain(self.ctx):
            return other.ctx, _embed_raw(other.ctx, self.ctx, self.raw), other.raw
        raise ValidationError(
            f"cannot mix elements of {other.ctx} and {self.ctx}: not in one tower"
        )

    def __add__(self, other):
        ctx, a, b = self._pair(other)
        return FieldElem(ctx, _add_raw(ctx, a, b))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.ctx, _neg_raw(self.ctx, self.raw))

    def __sub__(self, other):
        ctx, a, b = self._pair(other)
        return FieldElem(ctx, _sub_raw(ctx, a, b))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        ctx, a, b = self._pair(other)
        return FieldElem(ctx, _mul_raw(ctx, a, b))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise ValidationError("zero has no inverse")
        return FieldElem(self.ctx, _inv_raw(self.ctx, self.raw))

    def __truediv__(self, other):
        ctx, a, b = self._pair(other)
        binv = FieldElem(ctx, b).inverse()
        return FieldElem(ctx, _mul_raw(ctx, a, binv.raw))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        ctx = self.ctx
        return FieldElem(ctx, _power(self.raw, e, partial(_mul_raw, ctx), ctx._one))

    def __repr__(self) -> str:
        return f"<{','.join(map(str, self.prime_coeffs()))} in {self.ctx.p}^{self.ctx.k}>"


# ---------------------------------------------------------------------------
# raw arithmetic


def _from_int_raw(ctx: FieldCtx, n: int) -> Raw:
    if ctx.base is None:
        return n % ctx.p
    first = _from_int_raw(ctx.base, n)
    return (first,) + tuple(ctx.base._zero for _ in range(ctx.rel_degree - 1))


def _embed_raw(ctx: FieldCtx, src: FieldCtx, raw: Raw) -> Raw:
    if ctx == src:
        return raw
    if ctx.base is None:
        raise ValidationError(f"{src} is not in the tower under {ctx}")
    first = _embed_raw(ctx.base, src, raw)
    return (first,) + tuple(ctx.base._zero for _ in range(ctx.rel_degree - 1))


def _add_raw(ctx: FieldCtx, a: Raw, b: Raw) -> Raw:
    if ctx.base is None:
        return (a + b) % ctx.p
    return tuple(_add_raw(ctx.base, x, y) for x, y in zip(a, b))


def _neg_raw(ctx: FieldCtx, a: Raw) -> Raw:
    if ctx.base is None:
        return (-a) % ctx.p
    return tuple(_neg_raw(ctx.base, x) for x in a)


def _sub_raw(ctx: FieldCtx, a: Raw, b: Raw) -> Raw:
    return _add_raw(ctx, a, _neg_raw(ctx, b))


def _mul_raw(ctx: FieldCtx, a: Raw, b: Raw) -> Raw:
    if ctx.base is None:
        return (a * b) % ctx.p
    base, t = ctx.base, ctx.rel_degree
    zero = base._zero
    prod = [zero] * (2 * t - 1)
    for i, ai in enumerate(a):
        if ai == zero:
            continue
        for j, bj in enumerate(b):
            prod[i + j] = _add_raw(base, prod[i + j], _mul_raw(base, ai, bj))
    # reduce by the monic relative modulus
    mod = ctx.modulus
    for d in range(2 * t - 2, t - 1, -1):
        c = prod[d]
        if c == zero:
            continue
        for j in range(t):
            prod[d - t + j] = _sub_raw(base, prod[d - t + j], _mul_raw(base, c, mod[j]))
        prod[d] = zero
    return tuple(prod[:t])


def _inv_raw(ctx: FieldCtx, a: Raw) -> Raw:
    if ctx.base is None:
        if a % ctx.p == 0:
            raise ValidationError("zero has no inverse")
        return pow(a, ctx.p - 2, ctx.p)
    # extended Euclid on (modulus, a) over the base field
    base = ctx.base
    r0, r1 = list(ctx.modulus), _poly_trim(base, list(a))
    s0: list = []
    s1: list = [base._one]
    while len(r1) > 1:
        q, rem = _poly_divmod(base, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(base, s0, _poly_mul(base, q, s1))
    if not r1:
        raise ValidationError("element not invertible (modulus not irreducible?)")
    # r1 is a nonzero constant c; inverse is s1 / c
    c = r1[0]
    cinv = _inv_raw(base, c)
    inv_poly = [_mul_raw(base, x, cinv) for x in s1]
    inv_poly += [base._zero] * (ctx.rel_degree - len(inv_poly))
    return tuple(inv_poly[: ctx.rel_degree])


def _index_raw(ctx: FieldCtx, a: Raw) -> int:
    if ctx.base is None:
        return a
    idx = 0
    q = ctx.base.order
    for c in reversed(a):
        idx = idx * q + _index_raw(ctx.base, c)
    return idx


def _raw_from_index(ctx: FieldCtx, i: int) -> Raw:
    if ctx.base is None:
        return i % ctx.p
    q = ctx.base.order
    coeffs = []
    for _ in range(ctx.rel_degree):
        coeffs.append(_raw_from_index(ctx.base, i % q))
        i //= q
    return tuple(coeffs)


def _flatten_raw(ctx: FieldCtx, a: Raw, out: list[int]) -> None:
    if ctx.base is None:
        out.append(a)
        return
    for c in a:
        _flatten_raw(ctx.base, c, out)


# ---------------------------------------------------------------------------
# polynomial helpers over a ctx (coefficient lists of raws, low-to-high)


def _poly_trim(ctx: FieldCtx, p: list) -> list:
    zero = ctx._zero
    while p and p[-1] == zero:
        p.pop()
    return p


def _poly_sub(ctx: FieldCtx, a: list, b: list) -> list:
    n = max(len(a), len(b))
    zero = ctx._zero
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else zero
        y = b[i] if i < len(b) else zero
        out.append(_sub_raw(ctx, x, y))
    return _poly_trim(ctx, out)


def _poly_mul(ctx: FieldCtx, a: list, b: list) -> list:
    if not a or not b:
        return []
    n = min(len(a), len(b))
    # prime field: one integer convolution, taken from 4 coefficients on
    # (below that the loop is faster) while no coefficient sum can pass int64
    if ctx.base is None and n >= 4 and (ctx.p - 1) ** 2 * n < 1 << 63:
        prod = np.convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        return _poly_trim(ctx, (prod % ctx.p).tolist())
    zero = ctx._zero
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == zero:
            continue
        for j, bj in enumerate(b):
            out[i + j] = _add_raw(ctx, out[i + j], _mul_raw(ctx, ai, bj))
    return _poly_trim(ctx, out)


def _poly_divmod(ctx: FieldCtx, a: list, b: list) -> tuple[list, list]:
    b = _poly_trim(ctx, list(b))
    if not b:
        raise ValidationError("polynomial division by zero")
    a = _poly_trim(ctx, list(a))
    zero = ctx._zero
    lead_inv = _inv_raw(ctx, b[-1])
    q = [zero] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and r:
        shift = len(r) - len(b)
        factor = _mul_raw(ctx, r[-1], lead_inv)
        q[shift] = factor
        for i, bc in enumerate(b):
            r[shift + i] = _sub_raw(ctx, r[shift + i], _mul_raw(ctx, factor, bc))
        r = _poly_trim(ctx, r)
    return _poly_trim(ctx, q), r


def _poly_gcd(ctx: FieldCtx, a: list, b: list) -> list:
    a, b = _poly_trim(ctx, list(a)), _poly_trim(ctx, list(b))
    while b:
        a, b = b, _poly_divmod(ctx, a, b)[1]
    return a


# ---------------------------------------------------------------------------
# F_p-matrix engine
#
# Multiplication by an element a of F_{p^k} is F_p-linear, so it is a k x k
# matrix M(a) over F_p acting on prime-coefficient rows from the right:
# coeffs(a * y) = coeffs(y) @ M(a).  On base[x]/(g), with base of degree d
# and g monic of degree t, x acts by the block companion matrix of g: row
# block i < t - 1 moves to block i + 1, and row block t - 1 holds
# M(-g_j) in column block j.  The basis element x**i * b (b a basis
# element of base) acts by X**i times the block diagonal of M(b).  Every
# matrix is built from the moduli alone; no scalar product is formed.
# Entries stay in [0, p); products are int64 while k * (p - 1)**2 fits
# and Python integers past that.


def _exact_dtype(p: int, n: int):
    """int64 while a sum of n products of residues mod p fits, else object."""
    return np.int64 if n * (p - 1) ** 2 < 1 << 63 else object


def _digits(idx: np.ndarray, p: int, n: int) -> np.ndarray:
    """(len(idx), n) base-p digits of the indices, low first."""
    rem = np.asarray(idx, dtype=np.int64)
    out = np.empty(rem.shape + (n,), dtype=np.int64)
    for j in range(n):
        out[..., j] = rem % p
        rem = rem // p
    return out


def _index_blocks(start: int, stop: int) -> Iterator[np.ndarray]:
    """[start, stop) in index order, in blocks of 8, 16, ... up to 1024."""
    size = 8
    while start < stop:
        yield np.arange(start, min(start + size, stop), dtype=np.int64)
        start += size
        size = min(2 * size, 1024)


def _companion(base: FieldCtx, low: np.ndarray) -> np.ndarray:
    """Matrices of x on base[x]/(g), one per monic g of degree t.

    low: (n, t, d) prime digits of each g's coefficients below x**t.
    """
    n, t, d = low.shape
    p, D = base.p, t * d
    dt = _exact_dtype(p, D)
    neg = ((-low) % p).astype(dt)
    blocks = np.tensordot(neg, _basis(base).astype(dt), axes=1) % p  # (n, t, d, d)
    X = np.zeros((n, D, D), dtype=dt)
    X[:, :-d, d:] = np.eye(D - d, dtype=dt)
    X[:, -d:, :] = blocks.transpose(0, 2, 1, 3).reshape(n, d, D)
    return X


_BASIS_CACHE: dict[tuple, np.ndarray] = {}


def _basis(ctx: FieldCtx) -> np.ndarray:
    """(k, k, k) matrices of the prime basis elements, index p**i at i."""
    out = _BASIS_CACHE.get(ctx.key)
    if out is None:
        p, dt = ctx.p, _exact_dtype(ctx.p, ctx.k)
        if ctx.base is None:
            out = np.ones((1, 1, 1), dtype=dt)
        else:
            base, t = ctx.base, ctx.rel_degree
            low: list[int] = []
            for c in ctx.modulus[:-1]:
                _flatten_raw(base, c, low)
            X = _companion(base, np.array(low, dtype=np.int64).reshape(1, t, base.k))[0]
            eye = np.eye(t, dtype=dt)
            diag = np.stack([np.kron(eye, b) for b in _basis(base).astype(dt)])
            powers = [np.eye(ctx.k, dtype=dt)]
            for _ in range(t - 1):
                powers.append(powers[-1] @ X % p)
            out = np.concatenate([diag @ P % p for P in powers])
        _BASIS_CACHE[ctx.key] = out
    return out


def _element_matrices(ctx: FieldCtx, idx) -> np.ndarray:
    """(len(idx), k, k) matrices of the elements with the given indices."""
    digits = _digits(idx, ctx.p, ctx.k)
    basis = _basis(ctx)
    return np.tensordot(digits.astype(basis.dtype), basis, axes=1) % ctx.p


def _rank_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """F_p rank of each matrix in a stack (n, r, c), entries in [0, p).

    Gaussian elimination on every matrix at once.  A row is cleared as
    lead * row - row[c] * pivot row, which needs no inverse and keeps the
    rank, as lead is a unit.
    """
    n = a.shape[0]
    at = np.arange(n)
    used = np.zeros(a.shape[:2], dtype=bool)
    for c in range(a.shape[2]):
        col = np.where(used, 0, a[:, :, c])
        has = (col != 0).any(axis=1)
        piv = col.argmax(axis=1)
        lead = np.where(has, col[at, piv], 1)
        col[at, piv] = 0
        a = (lead[:, None, None] * a - col[:, :, None] * a[at, piv][:, None, :]) % p
        used[at, piv] |= has
    return used.sum(axis=1)


def _is_irreducible(base: FieldCtx, low: np.ndarray) -> np.ndarray:
    """Which monic g of degree t over base = F_q are irreducible.

    low: (n, t, d) prime digits of each g's coefficients below x**t.  On
    A = F_q[x]/(g) the q-power map s is F_q-linear.  Its F_p matrix S has
    row block i equal to the first row block of P**i, where P = X**q is
    the matrix of x**q, so each x**(q**j) costs one row-vector product.
    x**(q**t) = x holds exactly when g divides x**(q**t) - x, that is when
    g is squarefree with every factor of degree dividing t (Rabin, 1980).
    Such a g is irreducible exactly when s fixes no more than F_q, i.e.
    when S - 1 has F_p-nullity d: the fixed ring of s is F_q to the power
    of the number of distinct factors of g (Berlekamp).
    """
    n, t, d = low.shape
    p, D = base.p, t * d
    X = _companion(base, low)
    eye = np.eye(D, dtype=X.dtype)
    P = _power(X, base.order, lambda a, b: a @ b % p, eye)
    rows = [np.broadcast_to(eye[:d], (n, d, D))]
    for _ in range(t - 1):
        rows.append(rows[-1] @ P % p)
    S = np.concatenate(rows, axis=1)
    x = eye[d]  # the digits of x itself
    v = np.broadcast_to(x, (n, D))
    for _ in range(t):
        v = (v[:, None, :] @ S)[:, 0] % p
    out = (v == x).all(axis=1)
    if out.any():
        fixed = np.flatnonzero(out)
        out[fixed] = _rank_mod_p((S[fixed] - eye) % p, p) == D - d
    return out


# ---------------------------------------------------------------------------
# field construction

_FIELD_CACHE: dict[tuple, FieldCtx] = {}


def _mk_ctx(p: int, k: int, base: Optional[FieldCtx], modulus: tuple) -> FieldCtx:
    mod_idx = tuple(
        c if base is None else _index_raw(base, c) for c in modulus
    )
    key = (p, k, mod_idx, base.key if base is not None else None)
    cached = _FIELD_CACHE.get(key)
    if cached is not None:
        return cached
    ctx = FieldCtx(p=p, k=k, base=base, modulus=modulus, key=key)
    _FIELD_CACHE[key] = ctx
    return ctx


def make_field(p: int, k: int) -> FieldCtx:
    """The field F_{p^k} with the least monic irreducible modulus.

    Candidate moduli of equal degree are ordered by their low-to-high
    coefficient lists read as little-endian base-p integers; the first
    irreducible one wins.  Deterministic by construction.  Candidates are
    tested in blocks by ``_is_irreducible``, on the F_p matrices of the
    p-power map of F_p[x]/(g), so no scalar product is formed.  The arguments
    and the field cap are checked on every call, the cap before the
    trial division that tests p; only the construction is cached, so a
    lowered cap also refuses fields built before.
    """
    if k < 1:
        raise ValidationError(f"extension degree must be >= 1, got {k}")
    if p < 2:  # the cap's bit-length bound needs p >= 2
        raise ValidationError(f"p must be prime, got {p}")
    check_power_cap(p, k)
    if not _is_prime(p):
        raise ValidationError(f"p must be prime, got {p}")
    prime = _mk_ctx(p, 1, None, (0, 1))
    if k == 1:
        return prime
    return _relative_extension(prime, k)


def make_extension(base: FieldCtx, t: int) -> FieldCtx:
    """F_{q^t} as a relative extension of base = F_q; t = 1 returns base."""
    if t < 1:
        raise ValidationError(f"extension degree must be >= 1, got {t}")
    if t == 1:
        return base
    check_power_cap(base.order, t)
    return _relative_extension(base, t)


_EXT_CACHE: dict[tuple, FieldCtx] = {}


def _relative_extension(base: FieldCtx, t: int) -> FieldCtx:
    cached = _EXT_CACHE.get((base.key, t))
    if cached is not None:
        return cached
    # search moduli x^t + c_{t-1} x^{t-1} + ... + c_0 in index order of
    # (c_0, ..., c_{t-1}) as a little-endian base-q integer, whose base-p
    # digits are the coefficients' prime digits, d per coefficient
    q, d = base.order, base.k
    for idx in _index_blocks(0, q ** t):
        hit = np.flatnonzero(_is_irreducible(base, _digits(idx, base.p, t * d).reshape(-1, t, d)))
        if hit.size:
            i = int(idx[hit[0]])
            mod = tuple(_raw_from_index(base, i // q**j % q) for j in range(t))
            ctx = _mk_ctx(base.p, base.k * t, base, mod + (base._one,))
            _EXT_CACHE[(base.key, t)] = ctx
            return ctx
    raise InternalInvariantError(  # pragma: no cover - an irreducible always exists
        f"no irreducible modulus of degree {t} over order-{q} field"
    )


_SPEC_ECHO = 40  # characters of a field spec that error messages quote


def _spec_int(text: str, cap: int) -> int | str:
    """int(text), or "<N-digit integer>" for a decimal string of more digits
    than cap: past the cap as p, k or order, and maybe too long for int().
    Up to 20 digits it is converted, so cap messages print it whole.  One
    leading "+" is read as int() reads it."""
    text = text.strip()
    digits = text[1:] if text.startswith("+") else text
    if not digits.isdecimal():  # "-", "_" or no number: int() decides
        return int(text)
    digits = digits.lstrip("0") or "0"
    if len(digits) > max(len(str(cap)), 20):
        return f"<{len(digits)}-digit integer>"
    return int(digits)


def parse_field_spec(spec: str) -> FieldCtx:
    """Accept "p^k" or a plain prime power like "9".

    The field cap is checked before any factoring, so an oversized order
    is refused at once; a part too long for the cap is refused unconverted.
    """
    s = spec.strip()
    quoted = repr(s[:_SPEC_ECHO]) + ("..." if len(s) > _SPEC_ECHO else "")
    cap = field_cap()
    if "^" in s:
        base, _, exp = s.partition("^")
        try:
            p, k = _spec_int(base, cap), _spec_int(exp, cap)
        except ValueError:
            raise ValidationError(f"field spec {quoted}: expected p^k with integers") from None
        if isinstance(p, int) and isinstance(k, int):
            return make_field(p, k)
        if (isinstance(p, int) and p < 2) or (isinstance(k, int) and k < 1):
            raise ValidationError(f"field spec {quoted}: expected p >= 2 and k >= 1")
        raise CapExceededError(f"field of size {p}^{k} exceeds cap {cap}")
    try:
        n = _spec_int(s, cap)
    except ValueError:
        raise ValidationError(f"field spec {quoted}: expected p^k or an integer") from None
    if isinstance(n, str):
        raise CapExceededError(f"field of size {n} exceeds cap {cap}")
    if n < 2:
        raise ValidationError(f"field spec {quoted}: order must be at least 2")
    check_field_cap(n)
    factors = _prime_factors(n)
    if len(factors) != 1:
        raise ValidationError(f"field spec {quoted}: {n} is not a prime power")
    p, k = factors[0], 1
    while p ** k < n:
        k += 1
    return make_field(p, k)
