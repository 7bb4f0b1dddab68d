"""Desk-scale acceptance suite, shared by pytest and `excov selftest`.

Each check pits an empirical computation against an independent
prediction and returns a CheckResult.  Everything is deterministic:
random pools draw from one fixed seed, and field enumeration runs under
a fixed cap so runtimes stay flat across machines.  A check never stops
at the first failure; it tallies every comparison and reports the first
few mismatches in the detail string.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

from . import frobset
from .errors import field_cap_scope
from .excscan import dp_range_test, exceptionality_scan
from .gf import FieldCtx, _power, _prime_list, make_extension, make_field, parse_field_spec
from .grouptheory import (
    component_count,
    coset_exceptionality,
    cyclic_cover_model,
    dickson_cover_model,
    fiber_tensor,
)
from .lattes import median_value_check, ogg_curve, oit_scan, reduce_curve
from .nielsen import (
    cyclic_branch_pair,
    dickson_branch_triple,
    modular_nielsen,
    modular_tuple_perms,
    rh_genus,
)
from .pencil import kf_cross_check, pencil_scan
from .projmap import Poly, RationalMap, chebyshev_twist, compose, cyclic, dickson

# Enumeration budget for every scan in the suite.  600000 keeps fields of
# order <= 9 at full depth 6 while truncating 11 and 13 to depth 5, which
# holds the heaviest check well under its two-minute budget.
SCAN_CAP = 600_000
SEED = 20260814

_FAMILY_QS = (3, 5, 7, 9, 11, 13)
_FAMILY_T_MAX = 6


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


class _Tally:
    """Counts comparisons and keeps the first few failures readable."""

    def __init__(self):
        self.count = 0
        self.failures: list[str] = []

    def check(self, cond: bool, msg: str) -> None:
        self.count += 1
        if not cond and len(self.failures) < 4:
            self.failures.append(msg)

    def result(self, name: str, summary: str) -> CheckResult:
        if self.failures:
            detail = f"{summary}; {self.count} comparisons; FAILED: " + " | ".join(
                self.failures
            )
            return CheckResult(name, False, detail)
        return CheckResult(name, True, f"{summary}; {self.count} comparisons")


def _family_ns(q: int) -> list[int]:
    p = parse_field_spec(str(q)).p
    return [n for n in range(1, 16, 2) if math.gcd(n, p) == 1]


@lru_cache(maxsize=None)
def _family_report(kind: str, q: int, n: int, a_idx: int):
    """Scan one family member; shared across the family checks."""
    ctx = parse_field_spec(str(q))
    if kind == "cyclic":
        f = cyclic(ctx, n)
    else:
        f = dickson(ctx, n, ctx.from_index(a_idx))
    with field_cap_scope(SCAN_CAP):
        return exceptionality_scan(
            f, _FAMILY_T_MAX, desc=f"{kind}:{n}/{q}:{a_idx}", with_periods=False
        )


def _dickson_instances():
    for q in _FAMILY_QS:
        for n in _family_ns(q):
            for a_idx in range(1, q):
                yield q, n, a_idx


def _cyclic_instances():
    for q in _FAMILY_QS:
        for n in _family_ns(q):
            yield q, n


# -- 1: middle-binomial family hits exactly the gcd(n, q^2t - 1) = 1 times ----------


def check_dickson_permutation_rule() -> CheckResult:
    tally = _Tally()
    for q, n, a_idx in _dickson_instances():
        rep = _family_report("dickson", q, n, a_idx)
        for rec in rep.records:
            want = math.gcd(n, q ** (2 * rec.t) - 1) == 1
            tally.check(
                rec.bijective == want,
                f"q={q} n={n} a_idx={a_idx} t={rec.t}: "
                f"bijective={rec.bijective}, gcd rule says {want}",
            )
    return tally.result(
        "dickson-permutation-rule",
        f"gcd(n, q^2t-1) = 1 rule over q in {_FAMILY_QS}, odd n <= 15, all a",
    )


# -- 2: power maps hit exactly the gcd(n, q^t - 1) = 1 times ------------------------


def check_power_map_rule() -> CheckResult:
    tally = _Tally()
    for q, n in _cyclic_instances():
        rep = _family_report("cyclic", q, n, 0)
        for rec in rep.records:
            want = math.gcd(n, q ** rec.t - 1) == 1
            tally.check(
                rec.bijective == want,
                f"q={q} n={n} t={rec.t}: bijective={rec.bijective}, gcd rule says {want}",
            )
    return tally.result(
        "power-map-rule",
        f"gcd(n, q^t-1) = 1 rule over q in {_FAMILY_QS}, odd n <= 15",
    )


# -- 3: exact identities of the middle-binomial family ------------------------------

_IDENTITY_QS = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49)


def _a_samples(q: int) -> list[int]:
    if q <= 13:
        return list(range(1, q))
    return sorted({1, 2, 3, (q - 1) // 2, q - 2})


def _dickson_value(z, a, m: int):
    """D_m at the point z by 2x2 matrix power of the two-term recurrence."""
    ctx = z.ctx
    if m == 0:
        return ctx.from_int(2)
    # [[z, -a], [1, 0]] drives (D_k, D_{k-1}) -> (D_{k+1}, D_k)
    one, zero = ctx.one(), ctx.zero()
    acc = _power((z, -a, one, zero), m - 1, _mat2_mul, (one, zero, zero, one))
    # (D_m, D_{m-1}) = acc @ (D_1, D_0) = acc @ (z, 2)
    two = ctx.from_int(2)
    return acc[0] * z + acc[1] * two


def _mat2_mul(a, b):
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def check_family_identities() -> CheckResult:
    tally = _Tally()
    for q in _IDENTITY_QS:
        ctx = parse_field_spec(str(q))
        two = ctx.from_int(2)
        half = two.inverse()
        K2 = make_extension(ctx, 2)
        g2 = K2.gen()
        for a_idx in _a_samples(q):
            a = ctx.from_index(a_idx)
            # (x^2 + a)^i, shared across degrees
            npow = [Poly(ctx, [1])]
            quad = Poly(ctx, [a, 0, 1])
            for _ in range(15):
                npow.append(npow[-1] * quad)
            for n in range(1, 16):
                d = dickson(ctx, n, a).as_poly()
                # sum_i d_i (x^2+a)^i x^(n-i) must equal x^2n + a^n; dividing
                # by w^n at w != 0 gives the w + a/w functional equation in
                # every extension at once
                lhs = Poly(ctx, [])
                for i, c in d.terms:
                    lhs = lhs + npow[i] * Poly(ctx, [0] * (n - i) + [c])
                rhs = Poly(ctx, [a ** n] + [0] * (2 * n - 1) + [1])
                tally.check(
                    lhs == rhs,
                    f"q={q} a_idx={a_idx} n={n}: functional equation fails as a polynomial",
                )
                if n % 2 == 1:
                    # halving bridge: D_n(2x) = 2 a^((n-1)/2) * twisted T_n(x)
                    lhs_b = Poly(ctx, [c * two ** i * half for i, c in enumerate(d.coeffs)])
                    rhs_b = chebyshev_twist(ctx, n, a).as_poly() * (a ** ((n - 1) // 2))
                    tally.check(
                        lhs_b == rhs_b,
                        f"q={q} a_idx={a_idx} n={n}: halving bridge fails",
                    )
            # pointwise spot checks straight from the defining property
            aK = K2.embed(a)
            for n in (2, 5, 7, 15):
                d = dickson(ctx, n, a).as_poly()
                for j in (1, 3, q):
                    w = g2 ** j
                    z = w + aK / w
                    got = d(z)
                    want = w ** n + (aK / w) ** n
                    tally.check(
                        got == want,
                        f"q={q} a_idx={a_idx} n={n} w=g^{j}: value mismatch in the quadratic extension",
                    )
        # composition is multiplication in the degree
        for n1, n2 in ((3, 5), (5, 3), (3, 9), (5, 7), (7, 7)):
            for a_idx in _a_samples(q)[:3]:
                a = ctx.from_index(a_idx)
                t1 = chebyshev_twist(ctx, n1, a)
                t2 = chebyshev_twist(ctx, n2, a)
                tally.check(
                    compose(t1, t2) == chebyshev_twist(ctx, n1 * n2, a),
                    f"q={q} a_idx={a_idx}: twist composition {n1}*{n2} fails",
                )
        # inverse pairs act as the identity on the ground field
        n_inv = next(n for n in (3, 5, 7, 9, 11, 13) if math.gcd(n, q * q - 1) == 1)
        m_inv = pow(n_inv, -1, q * q - 1)
        for a_idx in _a_samples(q)[:3]:
            a = ctx.from_index(a_idx)
            tw = chebyshev_twist(ctx, n_inv, a).as_poly()
            scale = (two * a ** ((m_inv - 1) // 2)).inverse()
            ok_all = True
            for xi in range(q):
                x = ctx.from_index(xi)
                y = tw(x)
                back = _dickson_value(two * y, a, m_inv) * scale
                if back != x:
                    ok_all = False
                    break
            tally.check(
                ok_all,
                f"q={q} a_idx={a_idx}: degree {m_inv} does not invert degree {n_inv}",
            )
    return tally.result(
        "family-identities",
        f"functional equation, halving bridge, composition and inverses over {len(_IDENTITY_QS)} fields",
    )


# -- 4: bijectivity times of a composition are the intersection of the factors' -----


def _composition_pool(q: int) -> list[tuple[str, int]]:
    p = parse_field_spec(str(q)).p
    pool: list[tuple[str, int]] = []
    pool += [("cyclic", n) for n in (2, 3, 4, 5, 7) if math.gcd(n, p) == 1]
    pool += [("dickson", n) for n in (3, 5, 7) if math.gcd(n, p) == 1]
    return pool


def _pool_map(ctx: FieldCtx, kind: str, n: int, a_idx: int) -> RationalMap:
    if kind == "cyclic":
        return cyclic(ctx, n)
    return dickson(ctx, n, ctx.from_index(a_idx))


def check_composition_law() -> CheckResult:
    rng = random.Random(SEED)
    tally = _Tally()
    accepted = 0
    draws = 0
    with field_cap_scope(SCAN_CAP):
        while accepted < 20 and draws < 400:
            draws += 1
            q = rng.choice((3, 5, 7))
            ctx = parse_field_spec(str(q))
            pool = _composition_pool(q)
            kind_f, n_f = rng.choice(pool)
            kind_g, n_g = rng.choice(pool)
            a_f = rng.randrange(1, q)
            a_g = rng.randrange(1, q)
            f = _pool_map(ctx, kind_f, n_f, a_f)
            g = _pool_map(ctx, kind_g, n_g, a_g)
            h = compose(f, g)
            rep_f = exceptionality_scan(f, 12, desc="f", with_periods=False)
            rep_g = exceptionality_scan(g, 12, desc="g", with_periods=False)
            rep_h = exceptionality_scan(h, 12, desc="h", with_periods=False)
            if rep_f.fitted is None or rep_g.fitted is None or rep_h.fitted is None:
                continue
            want = frobset.intersect(rep_f.fitted, rep_g.fitted)
            # only trust the composite fit once the scan is long enough to
            # pin down the combined modulus
            if rep_h.t_reached < 2 * want.modulus:
                continue
            accepted += 1
            tally.check(
                rep_h.fitted == want,
                f"q={q} {kind_f}:{n_f} o {kind_g}:{n_g}: fitted {rep_h.fitted} "
                f"!= intersection {want}",
            )
    tally.check(accepted == 20, f"only {accepted} of 20 instances accepted in {draws} draws")
    return tally.result(
        "composition-law",
        "fitted sets of f o g vs intersection, 20 seeded compositions over F3/F5/F7",
    )


# -- 5: coset fixed-point prediction == empirical scan for every family instance ----


def _family_model(kind: str, n: int, q: int):
    if kind == "cyclic" or n == 1:
        return cyclic_cover_model(n, q)
    return dickson_cover_model(n, q)


def check_model_vs_scan() -> CheckResult:
    tally = _Tally()
    instances = [("dickson", q, n, a) for q, n, a in _dickson_instances()]
    instances += [("cyclic", q, n, 0) for q, n in _cyclic_instances()]
    fitted_compared = 0
    for kind, q, n, a_idx in instances:
        model_set = coset_exceptionality(_family_model(kind, n, q))
        rep = _family_report(kind, q, n, a_idx)
        for rec in rep.records:
            tally.check(
                (rec.t in model_set) == rec.bijective,
                f"{kind} q={q} n={n} a_idx={a_idx} t={rec.t}: model says "
                f"{rec.t in model_set}, scan says {rec.bijective}",
            )
        # the least-modulus fit is only obliged to equal the model once its
        # depth covers the model's modulus; below that it reports the
        # smallest set matching a short prefix
        if rep.fitted is not None and rep.fit_depth >= model_set.modulus:
            fitted_compared += 1
            tally.check(
                rep.fitted == model_set,
                f"{kind} q={q} n={n} a_idx={a_idx}: fitted {rep.fitted} != model {model_set}",
            )
    tally.check(
        fitted_compared >= 100,
        f"only {fitted_compared} instances reached a conclusive fit",
    )
    return tally.result(
        "model-vs-scan",
        "coset prediction vs scan for every family instance, fitted sets compared at full depth",
    )


# -- 6: fiber-product component counts, with a character-sum cross-check ------------


def _mul_orbit_count(n: int, q: int) -> int:
    # orbits of c -> c*q on the nonzero residues mod n
    seen = set()
    orbits = 0
    for c in range(1, n):
        if c in seen:
            continue
        orbits += 1
        x = c
        while x not in seen:
            seen.add(x)
            x = (x * q) % n
    return orbits


def check_fiber_components() -> CheckResult:
    tally = _Tally()
    for n in range(2, 10):
        M = cyclic_cover_model(n, n + 1)
        pairs = fiber_tensor(M.group.generators, M.group.generators)
        tally.check(
            component_count(pairs, off_diagonal=True) == n - 1,
            f"cyclic n={n}: geometric off-diagonal count != {n - 1}",
        )
    for n, q in ((5, 2), (5, 3), (7, 2), (7, 3), (9, 2), (11, 3), (15, 2)):
        M = cyclic_cover_model(n, q)
        pair_gens = fiber_tensor(M.group.generators, M.group.generators)
        tau_pair = fiber_tensor([M.tau], [M.tau])[0]
        arith = component_count(pair_gens + [tau_pair], off_diagonal=True)
        want = _mul_orbit_count(n, q)
        tally.check(
            arith == want,
            f"cyclic n={n} q={q}: arithmetic count {arith} != orbit count {want}",
        )
    for q in (2, 3):
        M = dickson_cover_model(5, q)
        pairs = fiber_tensor(M.group.generators, M.group.generators)
        tally.check(
            component_count(pairs, off_diagonal=True) == 2,
            f"dihedral n=5 q={q}: geometric off-diagonal count != 2",
        )
    # collision counts of the actual maps stay inside the square-root envelope
    # of the component prediction
    for p in _prime_list(101, lo=3):
        ctx = make_field(p, 1)
        cases = []
        if p != 3:
            cases.append((Poly(ctx, [0, 0, 0, 1]), cyclic_cover_model(3, p)))
        if p != 5:
            cases.append((Poly(ctx, [0, 0, 0, 0, 0, 1]), cyclic_cover_model(5, p)))
            cases.append((dickson(ctx, 5, 1).as_poly(), dickson_cover_model(5, p)))
        for f, model in cases:
            res = kf_cross_check(f, model)
            tally.check(
                res.ok,
                f"p={p} deg={f.degree}: |N_f - k_f p| = "
                f"{abs(res.report.n_f - res.model_count * p)} exceeds {res.bound:.1f}",
            )
    return tally.result(
        "fiber-components",
        "geometric and arithmetic component counts plus character-sum envelope to p <= 101",
    )


# -- 7: the summed square identity W = p * N_f on random polynomials ----------------


def check_pencil_identity() -> CheckResult:
    rng = random.Random(SEED)
    tally = _Tally()
    primes = _prime_list(101, lo=3)
    for _ in range(50):
        p = rng.choice(primes)
        ctx = make_field(p, 1)
        deg = rng.randint(1, 6)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        rep = pencil_scan(Poly(ctx, coeffs))
        tally.check(
            rep.identity_ok and rep.w == rep.p * rep.n_f,
            f"p={p} coeffs={coeffs}: W={rep.w} but p*N_f={rep.p * rep.n_f}",
        )
    return tally.result(
        "pencil-identity",
        "W = p * N_f on 50 seeded polynomials of degree <= 6, odd p <= 101",
    )


# -- 8: point-reflection class counts -----------------------------------------------


def check_reflection_classes() -> CheckResult:
    tally = _Tally()
    for p, k, want in ((3, 0, 2), (5, 0, 4), (7, 0, 6), (3, 1, 6)):
        mc = modular_nielsen(p, k)
        tally.check(
            mc.inner_braid_orbit_count == want,
            f"(p,k)=({p},{k}): braid orbit count {mc.inner_braid_orbit_count} != {want}",
        )
        tally.check(
            mc.abs_class_count == 1,
            f"(p,k)=({p},{k}): absolute class count {mc.abs_class_count} != 1",
        )
    return tally.result(
        "reflection-classes",
        "braid orbit and absolute class counts for (3,0), (5,0), (7,0), (3,1)",
    )


# -- 9: genus zero across the constructed branch cycle families ---------------------


def check_genus_zero() -> CheckResult:
    tally = _Tally()
    for n in range(3, 16, 2):
        t = dickson_branch_triple(n)
        g = rh_genus(t)
        tally.check(g == 0, f"dihedral triple n={n}: genus {g}")
    for n in range(2, 16):
        t = cyclic_branch_pair(n)
        g = rh_genus(t)
        tally.check(g == 0, f"two-cycle pair n={n}: genus {g}")
    for p in (3, 5):
        mc = modular_nielsen(p, 0)
        for rep in mc.tuples:
            t = modular_tuple_perms(p, 0, rep[1], rep[2])
            g = rh_genus(t)
            tally.check(
                g == 0, f"reflection tuple p={p} v2={rep[1]} v3={rep[2]}: genus {g}"
            )
    return tally.result(
        "genus-zero",
        "dihedral triples, power-map pairs, and all reflection 4-tuples for p in (3, 5)",
    )


# -- 10: isogeny-map bijectivity scan matches the trace prediction ------------------


def check_isogeny_scan() -> CheckResult:
    tally = _Tally()
    with field_cap_scope(SCAN_CAP):
        rep = oit_scan(ogg_curve(), 5, 60, 1)
    tally.check(len(rep.rows) >= 10, f"only {len(rep.rows)} good primes scanned")
    for row in rep.rows:
        for cell in row.cells:
            tally.check(
                cell.match,
                f"ell={row.ell} t={cell.t}: predicted {cell.predicted}, "
                f"brute force {cell.bijective}",
            )
        if row.disc_nonresidue:
            tally.check(
                row.cells[0].bijective,
                f"ell={row.ell}: trace discriminant is a non-residue yet the map is not bijective",
            )
    return tally.result(
        "isogeny-scan",
        f"degree-25 map over {len(rep.rows)} good primes ell <= 60, prediction vs brute force",
    )


# -- 11: supersingular reductions have ell^t + 1 points exactly at odd t ------------


def check_supersingular_median() -> CheckResult:
    tally = _Tally()
    e = ogg_curve()
    found = []
    with field_cap_scope(SCAN_CAP):
        for ell in _prime_list(60, lo=3):
            if not e.has_good_reduction(ell):
                continue
            red = reduce_curve(e, ell)
            if red.trace != 0:
                continue
            found.append(ell)
            t_max = 1
            while ell ** (t_max + 1) <= SCAN_CAP:
                t_max += 1
            ts = median_value_check(red, t_max)
            want = [t for t in range(1, t_max + 1) if t % 2 == 1]
            tally.check(
                ts == want,
                f"ell={ell}: zero trace at t={ts}, expected odd t {want}",
            )
    tally.check(found == [7, 47], f"trace-zero good primes {found}, expected [7, 47]")
    return tally.result(
        "supersingular-median",
        f"power sums vanish exactly at odd t for trace-zero primes {found}",
    )


# -- 12: range agreement of paired maps ---------------------------------------------


def check_value_set_pairs() -> CheckResult:
    tally = _Tally()
    for p in _prime_list(199, lo=3):
        ctx = make_field(p, 1)
        f = Poly(ctx, [0] * 8 + [1])
        g = Poly(ctx, [0] * 8 + [ctx.from_int(16)])
        tally.check(
            dp_range_test(f, g, 1),
            f"p={p}: x^8 and 16x^8 have different value sets over the prime field",
        )
    ctx5 = make_field(5, 1)
    f2 = Poly(ctx5, [0, 0, 1])
    g2 = Poly(ctx5, [0, 0, 2])
    tally.check(not dp_range_test(f2, g2, 1), "x^2 vs 2x^2 over F_5: ranges agree at t=1")
    tally.check(dp_range_test(f2, g2, 2), "x^2 vs 2x^2 over F_5: ranges differ at t=2")
    return tally.result(
        "value-set-pairs",
        "x^8 vs 16x^8 for every odd prime to 199, plus the square pair over F_5",
    )


# -- registry ------------------------------------------------------------------------

ALL_CHECKS = (
    ("dickson-permutation-rule", check_dickson_permutation_rule),
    ("power-map-rule", check_power_map_rule),
    ("family-identities", check_family_identities),
    ("composition-law", check_composition_law),
    ("model-vs-scan", check_model_vs_scan),
    ("fiber-components", check_fiber_components),
    ("pencil-identity", check_pencil_identity),
    ("reflection-classes", check_reflection_classes),
    ("genus-zero", check_genus_zero),
    ("isogeny-scan", check_isogeny_scan),
    ("supersingular-median", check_supersingular_median),
    ("value-set-pairs", check_value_set_pairs),
)


def run_all(only: str | None = None) -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        if only is not None and only not in name:
            continue
        results.append(fn())
    return results
