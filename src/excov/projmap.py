"""Polynomial and rational self-maps of the projective line.

A polynomial carries its coefficient field and holds only its nonzero
terms, (exponent, coefficient) pairs ascending by exponent, which the
scans read as they are: x^n is one term and Dickson's D_n about n/2.
``Poly(ctx, coeffs)`` takes dense low-to-high coefficients, and products,
division with remainder, gcds and composition run in ``gf`` on a dense
list of raw coefficients.  Rational maps are kept reduced (coprime
numerator/denominator, monic denominator) so degrees and point evaluation
are always well defined.  The classical permutation families (power maps,
Dickson, Chebyshev and its twists, quotient twists of power maps) are
written as terms from closed formulas.  Their binomial coefficients are
taken mod p by Lucas's theorem, and only the terms nonzero mod p are
built: Dickson's are found by an array scan over the exponents, Rédei's
read off the base-p digits of n.  The Rédei map A/B is exempt from
the reducing gcd, as A and B are coprime by construction (see ``redei``).
"""

from __future__ import annotations

import numbers
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .errors import InternalInvariantError, ValidationError, check_field_cap
from .gf import (
    FieldCtx,
    FieldElem,
    _exact_dtype,
    _poly_divmod,
    _poly_gcd,
    _poly_mul,
    _power,
    _rem,
)

CoeffLike = Union[FieldElem, int]


def _lift(ctx: FieldCtx, c: CoeffLike) -> FieldElem:
    if isinstance(c, FieldElem):
        if c.ctx == ctx:
            return c
        if ctx.in_chain(c.ctx):
            return ctx.embed(c)
        raise ValidationError(f"coefficient from {c.ctx} does not lie under {ctx}")
    if isinstance(c, numbers.Integral):
        return ctx.from_int(int(c))
    raise ValidationError(f"coefficient {c!r} is neither an integer nor a field element")


class Poly:
    """Univariate polynomial over one field, held as its nonzero terms."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, coeffs: Iterable[CoeffLike]):
        """From dense coefficients, low to high."""
        self.ctx = ctx
        lifted = (_lift(ctx, c) for c in coeffs)
        self.terms = tuple((e, c) for e, c in enumerate(lifted) if not c.is_zero())

    @classmethod
    def _of_terms(cls, ctx: FieldCtx, terms: Iterable[tuple[int, FieldElem]]) -> "Poly":
        """From (e, c) pairs of ctx ascending by e, dropping those with c = 0."""
        p = cls.__new__(cls)
        p.ctx = ctx
        p.terms = tuple((e, c) for e, c in terms if not c.is_zero())
        return p

    def _dense(self, zero, of_coeff: Callable[[FieldElem], object]) -> list:
        """of_coeff of each coefficient, low to high, with zero at the gaps."""
        out = [zero] * (self.degree + 1)
        for e, c in self.terms:
            out[e] = of_coeff(c)
        return out

    @property
    def coeffs(self) -> tuple[FieldElem, ...]:
        """Dense coefficients, low to high, up to the leading one."""
        return tuple(self._dense(self.ctx.zero(), lambda c: c))

    def indices(self) -> list[int]:
        """The element indices of ``coeffs``, as plain ints (0 for 0)."""
        return self._dense(0, attrgetter("index"))

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return self.terms[-1][0] if self.terms else -1

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def lead(self) -> FieldElem:
        if self.is_zero():
            raise ValidationError("zero polynomial has no leading coefficient")
        return self.terms[-1][1]

    def coeff(self, i: int) -> FieldElem:
        k = bisect_left(self.terms, (i,))  # (i,) sorts before (i, c)
        if k < len(self.terms) and self.terms[k][0] == i:
            return self.terms[k][1]
        return self.ctx.zero()

    def _raws(self) -> list:
        return self._dense(self.ctx._zero, attrgetter("raw"))

    def _of_raws(self, raws: list) -> "Poly":
        ctx = self.ctx
        return Poly._of_terms(ctx, ((e, FieldElem(ctx, r)) for e, r in enumerate(raws)))

    # -- ring structure ------------------------------------------------------

    def _match(self, other: Union["Poly", CoeffLike]) -> "Poly":
        if isinstance(other, Poly):
            if other.ctx != self.ctx:
                raise ValidationError("polynomials over different fields")
            return other
        return Poly(self.ctx, [other])

    def __add__(self, other):
        sums = dict(self.terms)
        for e, c in self._match(other).terms:
            sums[e] = sums[e] + c if e in sums else c
        return Poly._of_terms(self.ctx, sorted(sums.items()))  # exponents are distinct

    __radd__ = __add__

    def __neg__(self):
        return Poly._of_terms(self.ctx, ((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        return self + (-self._match(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (FieldElem, int)):
            s = _lift(self.ctx, other)
            return Poly._of_terms(self.ctx, ((e, c * s) for e, c in self.terms))
        o = self._match(other)
        return self._of_raws(_poly_mul(self.ctx, self._raws(), o._raws()))

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        q, r = _poly_divmod(self.ctx, self._raws(), self._match(other)._raws())
        return self._of_raws(q), self._of_raws(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * self.lead.inverse()

    def gcd(self, other: "Poly") -> "Poly":
        g = _poly_gcd(self.ctx, self._raws(), self._match(other)._raws())
        return self._of_raws(g).monic()

    # -- evaluation and composition -------------------------------------------

    def __call__(self, x: Union[FieldElem, int]) -> FieldElem:
        """The sum of c * x**e, by Horner's rule over the gaps between terms."""
        if isinstance(x, int):
            x = self.ctx.from_int(x)
        acc, prev = x.ctx.zero(), self.degree  # tower coercion lifts coefficients as needed
        for e, c in reversed(self.terms):
            acc = acc * x ** (prev - e) + c
            prev = e
        return acc * x ** max(prev, 0)

    def compose(self, inner: "Poly") -> "Poly":
        o = self._match(inner)
        acc = Poly(self.ctx, [])
        for c in reversed(self.coeffs):
            acc = acc * o + c
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.terms))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i, c in reversed(self.terms):
            cs = str(c.index)
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append(f"{cs}*x" if cs != "1" else "x")
            else:
                parts.append(f"{cs}*x^{i}" if cs != "1" else f"x^{i}")
        return "Poly(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class P1Point:
    """A point of the projective line: a field element or the point at infinity."""

    ctx: FieldCtx
    value: Optional[FieldElem]  # None marks infinity

    @classmethod
    def of(cls, x: Union[FieldElem, int], ctx: Optional[FieldCtx] = None) -> "P1Point":
        if isinstance(x, int):
            if ctx is None:
                raise ValidationError("integer point needs a field")
            x = ctx.from_int(x)
        return cls(x.ctx, x)

    @classmethod
    def infinity(cls, ctx: FieldCtx) -> "P1Point":
        return cls(ctx, None)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def index(self) -> int:
        """Array slot: element index, with infinity one past the field."""
        if self.value is None:
            return self.ctx.order
        return self.value.index

    def __repr__(self) -> str:
        return "P1(inf)" if self.value is None else f"P1({self.value!r})"


class RationalMap:
    """Reduced fraction of polynomials acting on the projective line."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[Poly] = None):
        if den is None:
            den = Poly(num.ctx, [1])
        if den.ctx != num.ctx:
            raise ValidationError("numerator and denominator over different fields")
        if den.is_zero():
            raise ValidationError("denominator is zero")
        if num.is_zero():
            num = Poly(num.ctx, [])
            den = Poly(num.ctx, [1])
        elif num.degree > 0 and den.degree > 0:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
        self._normalise(num, den)

    def _normalise(self, num: Poly, den: Poly) -> None:
        """Hold num/den with den monic; ``redei`` takes this step alone."""
        s = den.lead.inverse()
        self.num = num * s
        self.den = den * s

    @property
    def ctx(self) -> FieldCtx:
        return self.num.ctx if not self.num.is_zero() else self.den.ctx

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree, 0)

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial:
            raise ValidationError("map has a nonconstant denominator")
        return self.num

    def __call__(self, x: Union[P1Point, FieldElem, int]) -> P1Point:
        return eval_p1(self, x)

    def compose(self, inner: "RationalMap") -> "RationalMap":
        return compose(self, inner)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMap)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.is_polynomial:
            return f"RationalMap({self.num!r})"
        return f"RationalMap({self.num!r} / {self.den!r})"


def eval_p1(f: RationalMap, x: Union[P1Point, FieldElem, int]) -> P1Point:
    """Value of f at a projective point.

    At a zero of the denominator the value is infinity; at infinity it is
    the leading-coefficient ratio when degrees tie, else 0 or infinity by
    degree comparison.
    """
    if isinstance(f, Poly):
        f = RationalMap(f)
    ctx = f.ctx
    if isinstance(x, int):
        x = P1Point.of(ctx.from_int(x))
    elif isinstance(x, FieldElem):
        x = P1Point.of(x)
    if x.ctx == ctx or ctx.in_chain(x.ctx):
        target = ctx
    elif x.ctx.in_chain(ctx):
        target = x.ctx
    else:
        raise ValidationError(f"point field {x.ctx} does not match map field {ctx}")
    if x.is_infinity:
        dn, dd = f.num.degree, f.den.degree
        if dn > dd:
            return P1Point.infinity(target)
        val = target.zero() if dn < dd else target.embed(f.num.lead / f.den.lead)
        return P1Point.of(val)
    assert x.value is not None
    d = f.den(x.value)
    if d.is_zero():
        return P1Point.infinity(target)
    return P1Point.of(target.embed(f.num(x.value) / d))


def compose(outer: RationalMap, inner: RationalMap) -> RationalMap:
    """outer . inner on the projective line; degrees multiply."""
    outer, inner = (RationalMap(h) if isinstance(h, Poly) else h for h in (outer, inner))
    if outer.ctx != inner.ctx:
        raise ValidationError("composition across different fields")
    want = outer.degree * inner.degree
    if inner.is_polynomial:
        out = RationalMap(outer.num.compose(inner.num), outer.den.compose(inner.num))
    else:  # the sums of c_i u^i v^(d-i), by Horner's rule in u
        u, v, d = inner.num, inner.den, outer.degree
        vp = [Poly(outer.ctx, [1])]
        for _ in range(d):
            vp.append(vp[-1] * v)
        num = den = Poly(outer.ctx, [])
        for i in range(d, -1, -1):
            num = num * u + vp[d - i] * outer.num.coeff(i)
            den = den * u + vp[d - i] * outer.den.coeff(i)
        out = RationalMap(num, den)
    if out.degree != want:  # pragma: no cover - composition is multiplicative
        raise InternalInvariantError(
            f"composition degree {out.degree}, expected {want}"
        )
    return out


# -- permutation families -----------------------------------------------------


def cyclic(ctx: FieldCtx, n: int) -> RationalMap:
    """The power map x^n."""
    if n < 1:
        raise ValidationError("power map needs n >= 1")
    check_field_cap(n, "map degree")
    return RationalMap(Poly._of_terms(ctx, [(n, ctx.one())]))


# values of i per block of the Dickson coefficient scan, to bound its temporaries
_LUCAS_BLOCK = 1 << 16


def _factorials_mod_p(p: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """x! mod p and its inverse mod p for 0 <= x <= min(top, p - 1), at
    ``_exact_dtype(p, 1)``, so that the product of two entries is exact."""
    n = min(top, p - 1) + 1
    fact = [1] * n
    for x in range(1, n):
        fact[x] = fact[x - 1] * x % p
    inv = [1] * n
    inv[-1] = pow(fact[-1], -1, p)
    for x in range(n - 1, 1, -1):
        inv[x - 1] = inv[x] * x % p
    dt = _exact_dtype(p, 1)
    return np.array(fact, dtype=dt), np.array(inv, dtype=dt)


def _binomials_mod_p(
    top: np.ndarray, bot: np.ndarray, p: int, fact: np.ndarray, inv: np.ndarray
) -> np.ndarray:
    """C(top, bot) mod p per entry, for int64 arrays with 0 <= bot <= top.

    By Lucas's theorem C(top, bot) is the product over the base-p digits
    of C(top_k, bot_k) mod p, each x!/(y!(x-y)!) read off ``fact`` and
    ``inv`` (``_factorials_mod_p`` up to the largest digit), and 0 when
    some bot_k > top_k.  An entry is dropped at the first such digit.
    """
    out = np.zeros(top.shape, dtype=fact.dtype)
    at = np.arange(top.size)
    val = np.ones(top.size, dtype=fact.dtype)
    while at.size and top.any():  # bot <= top, so top = 0 leaves bot = 0
        x, y = _rem(top, p), _rem(bot, p)
        keep = np.flatnonzero(y <= x)
        at, top, bot, val, x, y = (v[keep] for v in (at, top, bot, val, x, y))
        val = _rem(_rem(val * fact[x], p) * inv[y], p)
        val = _rem(val * inv[x - y], p)
        top, bot = top // p, bot // p
    out[at] = val
    return out


def _base_digits(n: int, p: int) -> list[int]:
    """The base-p digits of n >= 0, low first."""
    out = []
    while n:
        n, d = divmod(n, p)
        out.append(d)
    return out


def _dickson_poly(ctx: FieldCtx, n: int, a: CoeffLike) -> Poly:
    """sum over i <= n/2 of n/(n-i) * C(n-i, i) * (-a)**i * x**(n-2i).

    The integer factor is C(n-i, i) + C(n-i-1, i-1), each binomial taken
    mod p by Lucas's theorem (``_binomials_mod_p``) over blocks of i, so
    only the terms whose factor is nonzero mod p are built: 3,072 of the
    90,001 for n = 180,001 over F_3."""
    if ctx.p == 2:
        raise ValidationError("family needs odd characteristic")
    if n < 1:
        raise ValidationError("family needs n >= 1")
    check_field_cap(n, "map degree")
    a = _lift(ctx, a)
    p, unit_period = ctx.p, ctx.order - 1
    half = n // 2 if a else 0  # D_n(x, 0) = x**n
    fact, inv = _factorials_mod_p(p, n)
    terms = [(n, ctx.one())]  # from the top down; i = 0
    for lo in range(1, half + 1, _LUCAS_BLOCK):
        i = np.arange(lo, min(lo + _LUCAS_BLOCK, half + 1), dtype=np.int64)
        c = _binomials_mod_p(n - i, i, p, fact, inv)
        c += _binomials_mod_p(n - 1 - i, i - 1, p, fact, inv)
        c = _rem(c, p)
        hit = np.flatnonzero(c)
        for k, ck in zip(i[hit].tolist(), c[hit].tolist()):
            terms.append((n - 2 * k, ctx.from_int(ck) * (-a) ** (k % unit_period)))
    return Poly._of_terms(ctx, reversed(terms))


def dickson(ctx: FieldCtx, n: int, a: CoeffLike) -> RationalMap:
    """Middle-binomial family: the unique f with f(y + a/y) = y^n + (a/y)^n."""
    return RationalMap(_dickson_poly(ctx, n, a))


def chebyshev(ctx: FieldCtx, n: int) -> RationalMap:
    """Normalized so that doubling the argument halves into the a=1 family."""
    d = _dickson_poly(ctx, n, 1)
    two = ctx.from_int(2)
    half = two.inverse()
    # T_n(x) = D_{n,1}(2x) / 2
    return RationalMap(Poly._of_terms(ctx, ((i, c * two**i * half) for i, c in d.terms)))


def chebyshev_twist(ctx: FieldCtx, n: int, a: CoeffLike) -> RationalMap:
    """Conjugate of the normalized family by the square-root-of-a scaling.

    Only odd-degree terms survive, each picking up a^((1-j)/2), so the
    result has coefficients in the ground field even when a is a non-square.
    """
    if ctx.p == 2:
        raise ValidationError("family needs odd characteristic")
    if n < 1 or n % 2 == 0:
        raise ValidationError("twisted family needs odd n >= 1")
    a = _lift(ctx, a)
    if a.is_zero():
        raise ValidationError("twist parameter must be nonzero")
    t = chebyshev(ctx, n).as_poly()  # n is odd, so every exponent j is odd
    ainv = a.inverse()
    return RationalMap(Poly._of_terms(ctx, ((j, c * ainv ** ((j - 1) // 2)) for j, c in t.terms)))


def redei(ctx: FieldCtx, n: int, a: CoeffLike) -> RationalMap:
    """Quotient twist of x^n by a quadratic non-residue a.

    Splitting (x+u)^n = A(x) + u*B(x) with u^2 = a gives the map A/B, the
    conjugate of x^n by (x-u)/(x+u); it fixes infinity under the
    homogeneous-limit convention.  A and B are coprime, so no gcd is
    taken: a common root x0 would give (x0+u)^n = (x0-u)^n = 0, so
    x0 = -u = u and u = 0, but a != 0.
    """
    if ctx.p == 2:
        raise ValidationError("family needs odd characteristic")
    if n < 1 or n % 2 == 0:
        raise ValidationError("quotient twist needs odd n >= 1")
    a = _lift(ctx, a)
    if a.is_zero():
        raise ValidationError("twist parameter must be nonzero")
    if a ** ((ctx.order - 1) // 2) == ctx.one():
        raise ValidationError("twist parameter must be a non-square")
    check_field_cap(n, "map degree")
    # by Lucas's theorem C(n, j) != 0 mod p exactly when each base-p digit
    # of j is at most n's, and it is then the product of the digits'
    # binomials: the j are built from the top digit down, ascending
    p, digits = ctx.p, _base_digits(n, ctx.p)
    fact, inv = _factorials_mod_p(p, max(digits))
    j = np.zeros(1, dtype=np.int64)
    c = np.ones(1, dtype=fact.dtype)
    for nk in reversed(digits):
        y = np.arange(nk + 1)
        row = _binomials_mod_p(np.full(y.size, nk), y, p, fact, inv)
        j = (j[:, None] * p + y).ravel()
        c = _rem(c[:, None] * row, p).ravel()
    A, B = [], []  # terms, ascending by exponent n - j
    for jk, ck in zip(j[::-1].tolist(), c[::-1].tolist()):
        (B if jk % 2 else A).append((n - jk, ctx.from_int(ck) * a ** (jk // 2 % (ctx.order - 1))))
    f = object.__new__(RationalMap)
    f._normalise(Poly._of_terms(ctx, A), Poly._of_terms(ctx, B))
    return f


# -- equivalences --------------------------------------------------------------


def _affine_poly(ctx: FieldCtx, pair: tuple[CoeffLike, CoeffLike]) -> Poly:
    s, t = (_lift(ctx, pair[0]), _lift(ctx, pair[1]))
    if s.is_zero():
        raise ValidationError("affine map needs nonzero scale")
    return Poly(ctx, [t, s])


def affine_conjugate(
    f: RationalMap,
    outer: tuple[CoeffLike, CoeffLike],
    inner: Optional[tuple[CoeffLike, CoeffLike]] = None,
) -> RationalMap:
    """outer . f . inner with degree-1 polynomials (s, t) meaning s*x + t.

    When inner is omitted it defaults to outer's inverse, giving an honest
    change of coordinate.
    """
    ctx = f.ctx
    op = _affine_poly(ctx, outer)
    if inner is None:  # x -> (x - t) / s
        sinv = op.lead.inverse()
        inner = (sinv, -op.coeff(0) * sinv)
    ip = _affine_poly(ctx, inner)
    return compose(op, compose(f, ip))


# -- tame decomposition ---------------------------------------------------------


def decompose_tame_poly(f: Union[Poly, RationalMap]) -> list[tuple[Poly, Poly]]:
    """All two-step splittings f = g . h over the coefficient field.

    For each proper divisor m of deg f the candidate inner factor (monic,
    zero constant term) is read off the top coefficients, then verified by
    expanding f in its powers.  Empty result means f is indecomposable,
    which by tameness settles the question over the algebraic closure too.
    """
    if isinstance(f, RationalMap):
        f = f.as_poly()
    n = f.degree
    ctx = f.ctx
    if n < 1:
        raise ValidationError("need a nonconstant polynomial")
    if n % ctx.p == 0:
        raise ValidationError(
            f"wild case unsupported: characteristic {ctx.p} divides degree {n}"
        )
    out: list[tuple[Poly, Poly]] = []
    lead_inv = f.lead.inverse()
    for m in range(2, n):
        if n % m != 0:
            continue
        r = n // m
        # build h = x^m + c_{m-1} x^{m-1} + ... + c_1 x from the top of f:
        # below the lead, coefficient n-k of lead*h^r is r*c_{m-k} plus a
        # polynomial in already-known c's, and r is invertible by tameness
        r_inv = ctx.from_int(r).inverse()
        h = Poly(ctx, [0] * m + [1])
        for k in range(1, m):
            hr = _power(h, r, Poly.__mul__, Poly(ctx, [1]))
            delta = (f.coeff(n - k) * lead_inv) - hr.coeff(n - k)
            h = h + Poly(ctx, [0] * (m - k) + [delta * r_inv])
        # digit test: expand f in powers of h; constants iff f factors through h
        rem, digits = f, []
        for _ in range(r + 1):
            rem, d = divmod(rem, h)
            if d.degree > 0:
                break
            digits.append(d.coeff(0))
        if len(digits) == r + 1 and rem.is_zero():
            g = Poly(ctx, digits)
            if g.compose(h) == f:
                out.append((g, h))
    return out


# -- map spec strings ------------------------------------------------------------


def parse_map_spec(ctx: FieldCtx, spec: str) -> RationalMap:
    """Build a map from its string form.

    Forms: "poly:c0,c1,..."; "rat:c0,../d0,.."; "cyclic:n"; "dickson:n,a";
    "cheb:n" or "cheb:n,a" (twisted); "redei:n,a".  Coefficients and a are
    element indices in enumeration order (plain residues on prime fields).
    """
    head, sep, body = spec.partition(":")
    if not sep:
        raise ValidationError(
            f"map spec {spec!r}: missing ':' after the family name (column {len(spec) + 1})"
        )
    col0 = len(head) + 2  # 1-based column where the body starts

    def ints(text: str, at: int) -> list[int]:
        vals = []
        pos = at
        for part in text.split(","):
            try:
                vals.append(int(part))
            except ValueError:
                raise ValidationError(
                    f"map spec {spec!r}: bad integer {part!r} (column {pos})"
                ) from None
            pos += len(part) + 1
        return vals

    def elem(i: int, at: int) -> FieldElem:
        if not 0 <= i < ctx.order:
            raise ValidationError(
                f"map spec {spec!r}: element index {i} outside field of order"
                f" {ctx.order} (column {at})"
            )
        return ctx.from_index(i)

    if head == "poly":
        idxs = ints(body, col0)
        return RationalMap(Poly(ctx, [elem(i, col0) for i in idxs]))
    if head == "rat":
        top, slash, bot = body.partition("/")
        if not slash:
            raise ValidationError(
                f"map spec {spec!r}: 'rat' needs num/den (column {col0 + len(body)})"
            )
        nidx = ints(top, col0)
        didx = ints(bot, col0 + len(top) + 1)
        return RationalMap(
            Poly(ctx, [elem(i, col0) for i in nidx]),
            Poly(ctx, [elem(i, col0 + len(top) + 1) for i in didx]),
        )
    if head in ("cyclic", "dickson", "cheb", "redei"):
        args = ints(body, col0)
        if head == "cyclic":
            if len(args) != 1:
                raise ValidationError(
                    f"map spec {spec!r}: 'cyclic' takes one integer (column {col0})"
                )
            return cyclic(ctx, args[0])
        if head == "cheb" and len(args) == 1:
            return chebyshev(ctx, args[0])
        if len(args) != 2:
            raise ValidationError(
                f"map spec {spec!r}: '{head}' takes n,a (column {col0})"
            )
        n, ai = args
        a = elem(ai, col0 + len(str(n)) + 1)
        if head == "dickson":
            return dickson(ctx, n, a)
        if head == "cheb":
            return chebyshev_twist(ctx, n, a)
        return redei(ctx, n, a)
    raise ValidationError(f"map spec {spec!r}: unknown family {head!r} (column 1)")
