"""Polynomial and rational self-maps of the projective line.

Polynomials carry their coefficient field; rational maps are kept reduced
(coprime numerator/denominator, monic denominator) so degrees and point
evaluation are always well defined.  ``Poly`` wraps field elements around
the polynomial arithmetic of ``gf``: products, division with remainder,
gcds and powers run there on raw coefficients.  The classical permutation
families (power maps, Dickson, Chebyshev and its twists, quotient twists of
power maps) are built from closed coefficient formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .errors import InternalInvariantError, ValidationError, check_field_cap
from .gf import FieldCtx, FieldElem, _poly_divmod, _poly_gcd, _poly_mul, _power

CoeffLike = Union[FieldElem, int]


def _lift(ctx: FieldCtx, c: CoeffLike) -> FieldElem:
    if isinstance(c, int):
        return ctx.from_int(c)
    if c.ctx == ctx:
        return c
    if ctx.in_chain(c.ctx):
        return ctx.embed(c)
    raise ValidationError(f"coefficient from {c.ctx} does not lie under {ctx}")


class Poly:
    """Univariate polynomial over one field, low-to-high coefficients."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: Iterable[CoeffLike]):
        lifted = [_lift(ctx, c) for c in coeffs]
        while lifted and lifted[-1].is_zero():
            lifted.pop()
        self.ctx = ctx
        self.coeffs = tuple(lifted)

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> FieldElem:
        if self.is_zero():
            raise ValidationError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> FieldElem:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ctx.zero()

    def _raws(self) -> list:
        return [c.raw for c in self.coeffs]

    def _of_raws(self, raws: list) -> "Poly":
        return Poly(self.ctx, [FieldElem(self.ctx, r) for r in raws])

    # -- ring structure ------------------------------------------------------

    def _match(self, other: Union["Poly", CoeffLike]) -> "Poly":
        if isinstance(other, Poly):
            if other.ctx != self.ctx:
                raise ValidationError("polynomials over different fields")
            return other
        return Poly(self.ctx, [other])

    def __add__(self, other):
        o = self._match(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(self.ctx, [self.coeff(i) + o.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ctx, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._match(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (FieldElem, int)):
            s = _lift(self.ctx, other)
            return Poly(self.ctx, [c * s for c in self.coeffs])
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
        if isinstance(x, int):
            x = self.ctx.from_int(x)
        acc = x.ctx.zero()  # tower coercion lifts coefficients as needed
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c.is_zero():
                continue
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
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
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
    if isinstance(outer, Poly):
        outer = RationalMap(outer)
    if isinstance(inner, Poly):
        inner = RationalMap(inner)
    if outer.ctx != inner.ctx:
        raise ValidationError("composition across different fields")
    want = outer.degree * inner.degree
    if inner.is_polynomial:
        g = inner.num
        num = outer.num.compose(g)
        den = outer.den.compose(g)
        out = RationalMap(num, den)
    else:
        u, v = inner.num, inner.den
        d = outer.degree
        vp = [Poly(outer.ctx, [1])]
        up = [Poly(outer.ctx, [1])]
        for _ in range(d):
            vp.append(vp[-1] * v)
            up.append(up[-1] * u)
        num = Poly(outer.ctx, [])
        den = Poly(outer.ctx, [])
        for i in range(d + 1):
            num = num + up[i] * vp[d - i] * outer.num.coeff(i)
            den = den + up[i] * vp[d - i] * outer.den.coeff(i)
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
    return RationalMap(Poly(ctx, [0] * n + [1]))


def _dickson_poly(ctx: FieldCtx, n: int, a: CoeffLike) -> Poly:
    """sum over i <= n/2 of n/(n-i) * C(n-i, i) * (-a)**i * x**(n-2i), each
    integer factor stepped from the one before by an exact ratio."""
    check_field_cap(n, "map degree")
    a = _lift(ctx, a)
    coeffs = [ctx.zero()] * (n + 1)
    c, power = 1, ctx.one()
    for i in range(n // 2 + 1):
        if i:
            c = c * (n - 2 * i + 2) * (n - 2 * i + 1) // (i * (n - i))
            power = power * -a
        coeffs[n - 2 * i] = ctx.from_int(c) * power
    return Poly(ctx, coeffs)


def dickson(ctx: FieldCtx, n: int, a: CoeffLike) -> RationalMap:
    """Middle-binomial family: the unique f with f(y + a/y) = y^n + (a/y)^n."""
    if ctx.p == 2:
        raise ValidationError("family needs odd characteristic")
    if n < 1:
        raise ValidationError("family needs n >= 1")
    return RationalMap(_dickson_poly(ctx, n, a))


def chebyshev(ctx: FieldCtx, n: int) -> RationalMap:
    """Normalized so that doubling the argument halves into the a=1 family."""
    if ctx.p == 2:
        raise ValidationError("family needs odd characteristic")
    if n < 1:
        raise ValidationError("family needs n >= 1")
    d = _dickson_poly(ctx, n, 1)
    two = ctx.from_int(2)
    half = two.inverse()
    # T_n(x) = D_{n,1}(2x) / 2
    coeffs = [c * (two**i) * half for i, c in enumerate(d.coeffs)]
    return RationalMap(Poly(ctx, coeffs))


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
    t = chebyshev(ctx, n).as_poly()
    ainv = a.inverse()
    out = [ctx.zero()] * (n + 1)
    for j in range(1, n + 1, 2):
        out[j] = t.coeff(j) * ainv ** ((j - 1) // 2)
    return RationalMap(Poly(ctx, out))


def redei(ctx: FieldCtx, n: int, a: CoeffLike) -> RationalMap:
    """Quotient twist of x^n by a quadratic non-residue a.

    Splitting (x+u)^n = A(x) + u*B(x) with u^2 = a gives the map A/B, the
    conjugate of x^n by (x-u)/(x+u); it fixes infinity under the
    homogeneous-limit convention.
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
    A = [ctx.zero()] * (n + 1)
    B = [ctx.zero()] * (n + 1)
    c, power = 1, ctx.one()  # C(n, j) and a**(j // 2)
    for j in range(n + 1):
        if j % 2 == 0:
            A[n - j] = ctx.from_int(c) * power
        else:
            B[n - j] = ctx.from_int(c) * power
            power = power * a
        c = c * (n - j) // (j + 1)
    return RationalMap(Poly(ctx, A), Poly(ctx, B))


# -- equivalences --------------------------------------------------------------


def _affine_poly(ctx: FieldCtx, pair: tuple[CoeffLike, CoeffLike]) -> Poly:
    s, t = (_lift(ctx, pair[0]), _lift(ctx, pair[1]))
    if s.is_zero():
        raise ValidationError("affine map needs nonzero scale")
    return Poly(ctx, [t, s])


def _affine_inverse(ctx: FieldCtx, pair: tuple[CoeffLike, CoeffLike]):
    s, t = (_lift(ctx, pair[0]), _lift(ctx, pair[1]))
    if s.is_zero():
        raise ValidationError("affine map needs nonzero scale")
    sinv = s.inverse()
    return (sinv, -t * sinv)


def affine_conjugate(
    f: RationalMap,
    outer: tuple[CoeffLike, CoeffLike],
    inner: Optional[tuple[CoeffLike, CoeffLike]] = None,
) -> RationalMap:
    """outer . f . inner with degree-1 polynomials (s, t) meaning s*x + t.

    When inner is omitted it defaults to outer's inverse, giving an honest
    change of coordinate.
    """
    if isinstance(f, Poly):
        f = RationalMap(f)
    ctx = f.ctx
    if inner is None:
        inner = _affine_inverse(ctx, outer)
    op = RationalMap(_affine_poly(ctx, outer))
    ip = RationalMap(_affine_poly(ctx, inner))
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
        h_coeffs = [ctx.zero()] * (m + 1)
        h_coeffs[m] = ctx.one()
        r_inv = ctx.from_int(r).inverse()
        h = Poly(ctx, h_coeffs)
        for k in range(1, m):
            hr = _power(h, r, Poly.__mul__, Poly(ctx, [1]))
            delta = (f.coeff(n - k) * lead_inv) - hr.coeff(n - k)
            h_coeffs[m - k] = delta * r_inv
            h = Poly(ctx, h_coeffs)
        # digit test: expand f in powers of h; constants iff f factors through h
        rem = f
        digits = []
        ok = True
        for _ in range(r + 1):
            rem, d = divmod(rem, h)
            if d.degree > 0:
                ok = False
                break
            digits.append(d.coeff(0))
        if ok and rem.is_zero():
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
