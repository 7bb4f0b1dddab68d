"""Exact arithmetic in F_{p^k} and in relative extensions F_q within F_{q^t}.

Fields are built as explicit towers: a prime field at the bottom, then a
chain of relative extensions, each defined by the least monic irreducible
modulus over the field below it (coefficient lists compared low-to-high as
little-endian integers).  Keeping the chain explicit makes "is this element
in the base field" a structural question instead of a search.

Elements are represented by nested coefficient tuples mirroring the tower.
The scalar engine here is the reference semantics; `_batch` implements the
same arithmetic on numpy arrays and is cross-checked against this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Union

from .errors import InternalInvariantError, ValidationError, check_field_cap

Raw = Union[int, tuple]  # int for prime fields, tuple of base raws above


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
        return FieldElem(self, _zero_raw(self))

    def one(self) -> "FieldElem":
        return FieldElem(self, _one_raw(self))

    def from_int(self, n: int) -> "FieldElem":
        """The image of the integer n in the prime subfield."""
        return FieldElem(self, _from_int_raw(self, n))

    def from_index(self, i: int) -> "FieldElem":
        if not 0 <= i < self.order:
            raise ValidationError(f"element index {i} out of range for order {self.order}")
        return FieldElem(self, _raw_from_index(self, i))

    def from_prime_coeffs(self, coeffs: Sequence[int]) -> "FieldElem":
        """Element from its k absolute coefficients over F_p, low-to-high."""
        if len(coeffs) > self.k:
            raise ValidationError(f"expected at most {self.k} coefficients, got {len(coeffs)}")
        cs = [c % self.p for c in coeffs] + [0] * (self.k - len(coeffs))
        idx = 0
        for c in reversed(cs):
            idx = idx * self.p + c
        return self.from_index(idx)

    def gen(self) -> "FieldElem":
        """Root of the defining modulus; equals 1 in the prime field."""
        if self.base is None:
            return self.one()
        raw = tuple(
            _one_raw(self.base) if i == 1 else _zero_raw(self.base)
            for i in range(self.rel_degree)
        )
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
        return self.raw == _zero_raw(self.ctx)

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
        return FieldElem(self.ctx, _pow_raw(self.ctx, self.raw, e))

    def frobenius(self) -> "FieldElem":
        """x ** base_order; fixes exactly the embedded base field."""
        return self ** self.ctx.base_order

    def __repr__(self) -> str:
        return f"<{','.join(map(str, self.prime_coeffs()))} in {self.ctx.p}^{self.ctx.k}>"


# ---------------------------------------------------------------------------
# raw arithmetic


def _zero_raw(ctx: FieldCtx) -> Raw:
    if ctx.base is None:
        return 0
    return tuple(_zero_raw(ctx.base) for _ in range(ctx.rel_degree))


def _one_raw(ctx: FieldCtx) -> Raw:
    if ctx.base is None:
        return 1
    return tuple(
        _one_raw(ctx.base) if i == 0 else _zero_raw(ctx.base)
        for i in range(ctx.rel_degree)
    )


def _from_int_raw(ctx: FieldCtx, n: int) -> Raw:
    if ctx.base is None:
        return n % ctx.p
    first = _from_int_raw(ctx.base, n)
    return (first,) + tuple(_zero_raw(ctx.base) for _ in range(ctx.rel_degree - 1))


def _embed_raw(ctx: FieldCtx, src: FieldCtx, raw: Raw) -> Raw:
    if ctx == src:
        return raw
    if ctx.base is None:
        raise ValidationError(f"{src} is not in the tower under {ctx}")
    first = _embed_raw(ctx.base, src, raw)
    return (first,) + tuple(_zero_raw(ctx.base) for _ in range(ctx.rel_degree - 1))


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
    zero = _zero_raw(base)
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


def _pow_raw(ctx: FieldCtx, a: Raw, e: int) -> Raw:
    result = _one_raw(ctx)
    acc = a
    while e:
        if e & 1:
            result = _mul_raw(ctx, result, acc)
        e >>= 1
        if e:
            acc = _mul_raw(ctx, acc, acc)
    return result


def _inv_raw(ctx: FieldCtx, a: Raw) -> Raw:
    if ctx.base is None:
        if a % ctx.p == 0:
            raise ValidationError("zero has no inverse")
        return pow(a, ctx.p - 2, ctx.p)
    # extended Euclid on (modulus, a) over the base field
    base = ctx.base
    r0, r1 = list(ctx.modulus), _poly_trim(base, list(a))
    s0: list = []
    s1: list = [_one_raw(base)]
    while _poly_deg(base, r1) > 0:
        q, rem = _poly_divmod(base, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(base, s0, _poly_mul(base, q, s1))
    if not r1:
        raise ValidationError("element not invertible (modulus not irreducible?)")
    # r1 is a nonzero constant c; inverse is s1 / c
    c = r1[0]
    cinv = _inv_raw(base, c)
    inv_poly = [_mul_raw(base, x, cinv) for x in s1]
    inv_poly += [_zero_raw(base)] * (ctx.rel_degree - len(inv_poly))
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
    zero = _zero_raw(ctx)
    while p and p[-1] == zero:
        p.pop()
    return p


def _poly_deg(ctx: FieldCtx, p: list) -> int:
    return len(p) - 1 if p else -1


def _poly_sub(ctx: FieldCtx, a: list, b: list) -> list:
    n = max(len(a), len(b))
    zero = _zero_raw(ctx)
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else zero
        y = b[i] if i < len(b) else zero
        out.append(_sub_raw(ctx, x, y))
    return _poly_trim(ctx, out)


def _poly_mul(ctx: FieldCtx, a: list, b: list) -> list:
    if not a or not b:
        return []
    zero = _zero_raw(ctx)
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
    zero = _zero_raw(ctx)
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


def _poly_powmod(ctx: FieldCtx, a: list, e: int, mod: list) -> list:
    result = [_one_raw(ctx)]
    acc = _poly_divmod(ctx, a, mod)[1]
    while e:
        if e & 1:
            result = _poly_divmod(ctx, _poly_mul(ctx, result, acc), mod)[1]
        e >>= 1
        if e:
            acc = _poly_divmod(ctx, _poly_mul(ctx, acc, acc), mod)[1]
    return result


def _poly_gcd(ctx: FieldCtx, a: list, b: list) -> list:
    a, b = _poly_trim(ctx, list(a)), _poly_trim(ctx, list(b))
    while b:
        a, b = b, _poly_divmod(ctx, a, b)[1]
    return a


def _is_irreducible(base: FieldCtx, mod: list) -> bool:
    """Rabin test: x^(q^t) == x mod g and gcd(x^(q^(t/r)) - x, g) = 1."""
    t = len(mod) - 1
    q = base.order
    x = [_zero_raw(base), _one_raw(base)]
    for r in _prime_factors(t):
        h = _poly_powmod(base, x, q ** (t // r), mod)
        h = _poly_sub(base, h, x)
        g = _poly_gcd(base, h, mod)
        if _poly_deg(base, g) != 0:
            return False
    h = _poly_powmod(base, x, q ** t, mod)
    return _poly_sub(base, h, x) == []


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
    irreducible one wins.  Deterministic by construction.  The arguments
    and the field cap are checked on every call; only the construction
    is cached, so a lowered cap also refuses fields built before.
    """
    if not _is_prime(p):
        raise ValidationError(f"p must be prime, got {p}")
    if k < 1:
        raise ValidationError(f"extension degree must be >= 1, got {k}")
    check_field_cap(p ** k)
    return _least_field(p, k)


@lru_cache(maxsize=None)
def _least_field(p: int, k: int) -> FieldCtx:
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
    check_field_cap(base.order ** t)
    return _relative_extension(base, t)


_EXT_CACHE: dict[tuple, FieldCtx] = {}


def _relative_extension(base: FieldCtx, t: int) -> FieldCtx:
    cached = _EXT_CACHE.get((base.key, t))
    if cached is not None:
        return cached
    one = _one_raw(base)
    # search moduli x^t + c_{t-1} x^{t-1} + ... + c_0 in index order of
    # (c_0, ..., c_{t-1}) as a little-endian base-q integer
    q = base.order
    for idx in range(q ** t):
        rem = idx
        coeffs = []
        for _ in range(t):
            coeffs.append(_raw_from_index(base, rem % q))
            rem //= q
        mod = coeffs + [one]
        if _is_irreducible(base, mod):
            ctx = _mk_ctx(base.p, base.k * t, base, tuple(mod))
            _EXT_CACHE[(base.key, t)] = ctx
            return ctx
    raise InternalInvariantError(  # pragma: no cover - an irreducible always exists
        f"no irreducible modulus of degree {t} over order-{q} field"
    )


def enumerate_field(ctx: FieldCtx) -> Iterator[FieldElem]:
    """All elements in index order, 0 first; index = little-endian rank."""
    check_field_cap(ctx.order, "enumeration")
    for i in range(ctx.order):
        yield ctx.from_index(i)


def parse_field_spec(spec: str) -> FieldCtx:
    """Parse "p^k" or "p" into a field."""
    s = spec.strip()
    if "^" in s:
        ps, ks = s.split("^", 1)
    else:
        ps, ks = s, "1"
    try:
        p, k = int(ps), int(ks)
    except ValueError as exc:
        raise ValidationError(
            f"field spec {spec!r}: expected p^k with integers (col {len(ps) + 1})"
        ) from exc
    return make_field(p, k)


def parse_element(ctx: FieldCtx, literal: str) -> FieldElem:
    """Parse "c0,c1,..." (absolute prime-field residues, low-to-high)."""
    parts = [s.strip() for s in literal.split(",")]
    coeffs = []
    col = 1
    for s in parts:
        try:
            coeffs.append(int(s))
        except ValueError as exc:
            raise ValidationError(
                f"element literal {literal!r}: expected integer at col {col}"
            ) from exc
        col += len(s) + 1
    return ctx.from_prime_coeffs(coeffs)
