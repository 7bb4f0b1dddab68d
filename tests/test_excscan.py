"""Value tables over the projective line and exceptionality scans."""

import dataclasses
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from excov import _batch
from excov._batch import _BLOCK, _QUOTIENT_MIN_R, get_batch, permutation_period
from excov.errors import CapExceededError, ValidationError
from excov.excscan import (
    TRecord,
    _dp_flags,
    _record,
    _table,
    _terms,
    dp_range_test,
    exceptionality_scan,
    idp_multiset_test,
    period_series,
    value_table,
)
from excov.frobset import from_residues
from excov.gf import _is_prime, make_extension, make_field
from excov.projmap import (
    Poly,
    RationalMap,
    compose,
    cyclic,
    dickson,
    parse_map_spec,
    redei,
)

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F7 = make_field(7, 1)


def brute_table(f, t):
    """Pointwise oracle for value_table, scalar arithmetic only."""
    ctx = make_extension(f.num.ctx, t)
    q = ctx.order
    from excov.projmap import P1Point, eval_p1

    out = [eval_p1(f, P1Point.of(ctx.from_index(i))).index() for i in range(q)]
    out.append(eval_p1(f, P1Point.infinity(ctx)).index())
    return out


def test_value_table_cubing_matches_pointwise():
    f = cyclic(F5, 3)
    for t in (1, 2):
        tab = value_table(f, t)
        assert tab.tolist() == brute_table(f, t)


def test_value_table_rational_matches_pointwise():
    # 1/x has a pole at 0 and sends infinity to 0
    f = RationalMap(Poly(F5, [1]), Poly(F5, [0, 1]))
    tab = value_table(f, 1)
    assert tab.tolist() == brute_table(f, 1)
    assert tab[0] == 5  # pole lands on the infinity slot
    assert tab[5] == 0


def test_value_table_degree_mismatch_at_infinity():
    # (x^2+1)/x fixes infinity since the numerator dominates
    f = RationalMap(Poly(F5, [1, 0, 1]), Poly(F5, [0, 1]))
    tab = value_table(f, 1)
    assert tab.tolist() == brute_table(f, 1)
    assert tab[5] == 5


F9 = make_field(3, 2)
A9 = F9.gen()  # in F_9 but not in F_3
F4 = make_field(2, 2)

FROBENIUS_CASES = [  # (map over F_q, t, has a pole in F_{q^t})
    (dickson(F3, 7, 1), 9, False),
    (redei(F5, 7, 2), 6, True),
    (RationalMap(Poly(F5, [1, 0, 1]), Poly(F5, [0, 1])), 5, True),  # (x^2+1)/x
    (RationalMap(Poly(F9, [A9, 0, 1, 0, 0, A9 * A9]), Poly(F9, [-(A9**3), 0, 0, 1])), 4, True),
    (RationalMap(Poly(F4, [F4.gen(), 1, 0, 0, 1, 0, 0, F4.gen()])), 5, False),
    (RationalMap(Poly(F5, [2])), 3, False),  # a constant
]


@pytest.mark.parametrize("f, t, poles", FROBENIUS_CASES, ids=lambda v: str(v)[:40])
def test_value_table_commutes_with_frobenius(f, t, poles):
    # f has coefficients in F_q, so f(x^q) = f(x)^q on every slot of
    # P1(F_{q^t}), poles and infinity included (infinity^q = infinity)
    K = make_extension(f.ctx, t)
    frob = np.append(get_batch(K).pow_indices(np.arange(K.order), f.ctx.order), K.order)
    tab = value_table(f, t)
    assert np.array_equal(tab[frob], frob[tab])
    assert bool((tab[: K.order] == K.order).any()) == poles


def test_scan_power_map_over_f3():
    rep = exceptionality_scan(cyclic(F3, 5), 12)
    assert rep.t_reached == 12
    bij = [rec.bijective for rec in rep.records]
    assert bij == [math.gcd(5, 3**t - 1) == 1 for t in range(1, 13)]
    assert rep.fitted == from_residues(4, {1, 2, 3})


def test_scan_dickson_over_f3():
    rep = exceptionality_scan(dickson(F3, 5, F3.one()), 12)
    assert rep.fitted == from_residues(2, {1})


def test_scan_square_map_is_never_bijective():
    rep = exceptionality_scan(cyclic(F5, 2), 8)
    assert rep.fitted is not None
    assert rep.fitted.is_empty()


def test_scan_records_carry_multiplicity_histograms():
    rep = exceptionality_scan(cyclic(F5, 2), 2)
    rec = rep.records[0]
    # squaring on P1(F_5): 0 and infinity hit once, two squares hit twice
    assert rec.value_counts == {0: 2, 1: 2, 2: 2}
    assert not rec.bijective
    assert not rec.surjective


def test_scan_stops_at_cap(monkeypatch):
    monkeypatch.setenv("EXCOV_CAP", str(5**3))
    rep = exceptionality_scan(cyclic(F5, 3), 12)
    assert rep.t_reached == 3
    assert len(rep.records) == 3
    # honest fit depth: only what the samples support
    assert rep.fit_depth == 1


def test_scan_cap_below_first_step(monkeypatch):
    monkeypatch.setenv("EXCOV_CAP", "3")
    with pytest.raises(CapExceededError):
        exceptionality_scan(cyclic(F5, 3), 4)


def test_oversized_scan_degree_exits_with_cap_error():
    # F_5^20000 is refused before 5^20000 is computed or formatted
    with pytest.raises(CapExceededError, match=r"scan of size 5\^20000 exceeds"):
        value_table(cyclic(F5, 3), 20000)


def test_chain_law_on_sample_composition():
    from excov.projmap import compose

    f = dickson(F5, 3, F5.from_int(2))
    g = cyclic(F5, 7)
    h = compose(f, g)
    tmax = 8
    ef = exceptionality_scan(f, tmax)
    eg = exceptionality_scan(g, tmax)
    eh = exceptionality_scan(h, tmax)
    for i in range(tmax):
        assert eh.records[i].bijective == (
            ef.records[i].bijective and eg.records[i].bijective
        )


def test_period_series_identity_and_cube():
    ident = cyclic(F5, 1)
    assert period_series(ident, 3) == [(1, 1), (2, 1), (3, 1)]
    # cubing on P1(F_5) is an involution away from fixed points
    assert period_series(cyclic(F5, 3), 1) == [(1, 2)]


def test_period_of_nonbijective_map_is_none():
    rep = exceptionality_scan(cyclic(F5, 2), 2, with_periods=True)
    assert rep.records[0].period is None


def test_dp_range_test_octic_pair():
    f = parse_map_spec(F7, "poly:0,0,0,0,0,0,0,0,1")
    g = parse_map_spec(F7, "poly:0,0,0,0,0,0,0,0,2")  # 16 = 2 mod 7
    for t in range(1, 5):
        assert dp_range_test(f, g, t)


def test_dp_range_test_square_pair_over_f5():
    f = parse_map_spec(F5, "poly:0,0,1")
    g = parse_map_spec(F5, "poly:0,0,2")
    assert not dp_range_test(f, g, 1)
    assert dp_range_test(f, g, 2)


def test_idp_implies_dp():
    f = parse_map_spec(F7, "poly:0,0,0,0,0,0,0,0,1")
    g = parse_map_spec(F7, "poly:0,0,0,0,0,0,0,0,2")
    for t in range(1, 4):
        if idp_multiset_test(f, g, t):
            assert dp_range_test(f, g, t)


def test_idp_multiset_direct():
    # x^8 and 16*x^8 differ by a unit square factor over F_7; same value
    # multiset at every level since 16 = 2^4 is an eighth power there
    f = parse_map_spec(F7, "poly:0,0,0,0,0,0,0,0,1")
    g = parse_map_spec(F7, "poly:0,0,0,0,0,0,0,0,2")
    assert idp_multiset_test(f, g, 3)


def test_report_json_shape():
    rep = exceptionality_scan(cyclic(F3, 5), 8)
    d = rep.to_json_dict()
    assert d["t_reached"] == 8
    assert len(d["records"]) == 8
    assert set(d["records"][0]) >= {"t", "bijective", "surjective", "value_counts"}
    assert d["fitted"] == {"modulus": 4, "residues": [1, 2, 3]}


# -- large characteristic and the former dtype widths -------------------------


@pytest.mark.parametrize("p", [32771, 46349, 65537, 1000003])
def test_value_table_matches_scalar_oracle_at_large_characteristic(p):
    ctx = make_field(p, 1)
    f = RationalMap(Poly(ctx, [3, 0, 5, 1]))  # x^3 + 5x^2 + 3
    tab = value_table(f, 1)
    for i in random.Random(p).sample(range(p), 200):
        assert tab[i] == f(ctx.from_index(i)).index(), (p, i)


def test_cubing_permutes_p1_over_f65537():
    rep = exceptionality_scan(cyclic(make_field(65537, 1), 3), 1)
    assert math.gcd(3, 65536) == 1
    assert rep.records[0].bijective
    assert rep.records[0].value_counts == {1: 65538}


# -- records and pair flags in log coordinates ---------------------------------


def record_oracle(f, t):
    """A scan record read off the index-order value table."""
    tab = value_table(f, t)
    counts = np.bincount(tab, minlength=tab.shape[0])
    bij = bool(counts.max(initial=0) == 1)
    surj = bool(counts.min(initial=1) >= 1)
    hist = {int(k): int(v) for k, v in enumerate(np.bincount(counts)) if v}
    del counts
    period = permutation_period(tab) if bij else None
    return TRecord(t, bij, surj, hist, period)


F2 = make_field(2, 1)
F11 = make_field(11, 1)
# m > 2 * _BLOCK, and p = 2 mod 3, so x^3 + c permutes F_p
BIG_P = next(n for n in range(2 * _BLOCK + 3, 4 * _BLOCK) if n % 3 == 2 and _is_prime(n))
BIG = make_field(BIG_P, 1)


def rat(ctx, num, den):
    return RationalMap(Poly(ctx, num), Poly(ctx, den))


RECORD_CASES = [  # (map, largest t)
    # polynomials with a constant term
    (RationalMap(Poly(F5, [3, 0, 1, 1])), 5),
    (RationalMap(Poly(F7, [1, 2, 0, 0, 1])), 4),
    (dickson(F7, 5, 3), 4),
    (RationalMap(Poly(F11, [4, 1, 0, 7, 0, 0, 0, 1])), 3),
    # rational maps: poles at 0 and infinity, and finite values at infinity
    (rat(F5, [1, 0, 1], [0, 1]), 6),  # (x^2+1)/x: pole at 0, fixes infinity
    (rat(F7, [3, 0, 2], [0, 1, 1]), 4),  # (2x^2+3)/(x^2+x): infinity -> 2
    (rat(F5, [1, 1], [0, 0, 0, 1]), 5),  # (x+1)/x^3: infinity -> 0
    (rat(F5, [0, 0, 0, 1], [3, 0, 1]), 5),  # x^3/(x^2-2): poles off F_5
    (redei(F5, 7, 2), 5),
    (rat(F7, [2], [1]), 3),  # a constant
    # coefficients from a proper subfield: the orbit path
    (FROBENIUS_CASES[3][0], 4),
    (RationalMap(Poly(F9, [1, 2, 0, 1, 0, 1])), 5),
    (dickson(F3, 7, 1), 10),
    # the F_2 and F_4 towers
    (RationalMap(Poly(F2, [1, 1, 0, 1])), 12),
    (RationalMap(Poly(F2, [0, 1, 1])), 10),
    (rat(F2, [1, 1, 1], [0, 1]), 10),
    (cyclic(F2, 3), 10),
    (FROBENIUS_CASES[4][0], 5),
    (cyclic(F4, 3), 6),
    (rat(F4, [F4.gen(), 0, 1], [1, 1]), 6),
]


@pytest.mark.parametrize("f, t_max", RECORD_CASES, ids=lambda v: str(v)[:40])
def test_records_match_index_order_oracle(f, t_max):
    for t in range(1, t_max + 1):
        assert _record(f, t, True) == record_oracle(f, t), t


@pytest.mark.parametrize(
    "f, t",
    [
        (RationalMap(Poly(BIG, [5, 0, 0, 1])), 1),  # x^3 + 5: bijective, a period
        (RationalMap(Poly(BIG, [1, 1, 0, 1])), 1),
        (rat(BIG, [2, 0, 1], [0, 0, 1, 1]), 1),  # (x^2+2)/(x^3+x^2)
        (cyclic(BIG, 3), 1),
        (dickson(F3, 11, 1), 12),  # permutes F_{3^12}: 11 does not divide 3^24 - 1
        (RationalMap(Poly(F2, [1, 1, 0, 1, 1])), 18),
    ],
    ids=lambda v: str(v)[:40],
)
def test_records_match_index_order_oracle_past_two_blocks(f, t):
    assert f.ctx.order**t - 1 > 2 * _BLOCK
    assert _record(f, t, True) == record_oracle(f, t)


def quotient_features(f, t):
    """The features of the quotient rule that f shows at t, read off its
    full table and its orbit quotient; the quotient's codes must be the
    ``orbit_lookup`` codes of the full table's values."""
    bf = get_batch(make_extension(f.ctx, t))
    d = bf.orbit_step(_terms(f))
    assert d < bf.D  # evaluated on representatives, so read off the quotient
    code = _table(f, bf, d)
    full = _table(f, bf, bf.D)
    tab = np.append(full[bf.orbit_reps(d)], full[-2:])  # then f(0), f(infinity)
    lookup, size = bf.orbit_lookup(d)
    assert np.array_equal(code, lookup[tab])
    r = bf.D // d
    tgt = code // r
    rec = _record(f, t, True)
    units = bf.order - 1  # labels below it are units
    found = {
        "short orbit": bool(((size[:-2] > 1) & (size[:-2] < r)).any()),
        "subfield": d > 1,
        "pole": bool((tab[:-2] == bf.order).any()),
        "vanishes": bool((tab[:-2] == units).any()),
        "f(0) a unit": tab[-2] < units,
        "f(inf) a unit": tab[-1] < units,
        # the summed rotations change the period: the orbit map alone has another
        "rotation": rec.bijective and rec.period != permutation_period(tgt),
        "not bijective": not rec.bijective,
    }
    return {name for name, hit in found.items() if hit}


QUOTIENT_CASES = [  # (map, t, features of the quotient at that t)
    (RationalMap(Poly(F3, [1, 0, 0, 1])), 6, {"short orbit", "rotation", "f(0) a unit"}),  # x^3 + 1
    (RationalMap(Poly(F2, [1, 0, 1])), 12, {"short orbit", "rotation", "f(0) a unit"}),  # x^2 + 1
    (RationalMap(Poly(F2, [1, 1, 0, 1])), 12, {"short orbit", "not bijective", "f(0) a unit"}),
    # (x^2+x)/(x-1)^3
    (rat(F3, [0, 1, 1], [2, 0, 0, 1]), 6, {"vanishes", "pole", "not bijective"}),
    (rat(F5, [3, 0, 2], [1, 1, 1]), 4, {"short orbit", "pole", "f(0) a unit", "f(inf) a unit"}),
    (FROBENIUS_CASES[3][0], 4, {"subfield", "short orbit", "pole"}),
    (rat(F4, [F4.gen(), 0, 1], [1, 1]), 6, {"subfield", "short orbit", "pole", "f(0) a unit"}),
    (RationalMap(Poly(F4, [F4.gen(), 0, 0, 0, 1])), 6, {"subfield", "short orbit", "rotation"}),
    (dickson(F3, 7, 1), 10, {"short orbit"}),
    # x^2 + x + 1
    (RationalMap(Poly(F4, [1, 1, 1])), 6, {"short orbit", "vanishes", "not bijective"}),
]


def _case_id(v):
    # a set prints in string-hash order, which changes from run to run;
    # shortest names first keeps the test ids stable
    if isinstance(v, set):
        v = "{" + ", ".join(map(repr, sorted(v, key=lambda s: (len(s), s)))) + "}"
    return str(v)[:40]


@pytest.mark.parametrize("f, t, features", QUOTIENT_CASES, ids=_case_id)
def test_quotient_records_match_index_order_oracle(f, t, features):
    assert features <= quotient_features(f, t)
    assert _record(f, t, True) == record_oracle(f, t)


def brute_flags(f, t):
    """(bijective, surjective, histogram) from the scalar engine's value at
    every point, counted point by point."""
    vals = brute_table(f, t)
    pre = Counter(vals)
    counts = [pre[y] for y in range(len(vals))]
    return all(c == 1 for c in counts), all(counts), dict(Counter(counts))


@pytest.mark.parametrize(
    "f, t, full, bij, surj",
    [
        (cyclic(make_field(31, 1), 3), 1, True, False, False),  # 3 divides 30
        (cyclic(make_field(31, 1), 7), 1, True, True, True),
        (RationalMap(Poly(F4, [1, 1, 1])), 6, False, False, False),  # x^2 + x + 1
        (RationalMap(Poly(F3, [1, 0, 0, 1])), 6, False, True, True),  # x^3 + 1
    ],
    ids=lambda v: str(v)[:40],
)
def test_record_flags_read_off_the_histogram_match_brute_counts(f, t, full, bij, surj):
    bf = get_batch(make_extension(f.ctx, t))
    assert (bf.orbit_step(_terms(f)) == bf.D) is full
    rec = _record(f, t, True)
    assert (rec.bijective, rec.surjective, rec.value_counts) == brute_flags(f, t)
    assert (rec.bijective, rec.surjective) == (bij, surj)


def test_records_without_periods():
    f = dickson(F3, 5, 1)
    for t in range(1, 7):
        want = record_oracle(f, t)
        assert _record(f, t, False) == dataclasses.replace(want, period=None)


def dp_oracle(f, g, t):
    """(range equal, multiset equal) from the index-order value tables."""
    tf, tg = value_table(f, t), value_table(g, t)
    cf, cg = (np.bincount(x, minlength=tf.shape[0]) for x in (tf, tg))
    return bool(np.array_equal(cf > 0, cg > 0)), bool(np.array_equal(cf, cg))


# the F_2..F_9 towers, and primes on both sides of 2**6, 2**7, 2**15 and
# sqrt(2**31), and 2**16 + 1
MONIC_BASES = [F2, F3, F4, F5, F7, make_field(2, 3), F9] + [
    make_field(p, 1) for p in (61, 67, 127, 131, 32749, 32771, 46337, 46349, 65537)
]


def monic_t_max(ctx, cap=1 << 16):
    """The largest t with q**t <= cap, and at least 1."""
    t = 1
    while ctx.order ** (t + 1) <= cap:
        t += 1
    return t


def monic_maps(ctx):
    """x^n, and x^a/x^b, which reduces to 1/x^(b-a)."""
    mono = [[0] * n + [1] for n in range(7)]
    return [cyclic(ctx, n) for n in (1, 2, 3, 5)] + [
        rat(ctx, mono[a], mono[b]) for a, b in ((1, 2), (2, 5), (4, 6))
    ]


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty field cache and generator memo, restored afterwards."""
    monkeypatch.setattr(_batch, "_CACHE", {})
    monkeypatch.setattr(_batch, "_GENERATORS", {})


def assert_no_table_built():
    """No generator, exp, log or Zech table; the orbit representatives
    and lookups of step 1 exactly where a monic map's r = D reaches the
    quotient threshold, and none elsewhere."""
    for bf in _batch._CACHE.values():
        assert bf._tables is None and bf._zech is None
        steps = {1} if bf.D >= _QUOTIENT_MIN_R else set()
        assert set(bf._reps) == set(bf._lookups) == steps, bf.order
    assert not _batch._GENERATORS  # no generator was searched


@pytest.mark.parametrize("ctx", MONIC_BASES, ids=lambda c: f"{c.p}^{c.k}")
def test_monic_scans_build_no_table_and_match_index_order_oracle(ctx, fresh_tables):
    t_max = monic_t_max(ctx)
    maps = monic_maps(ctx)
    for f in maps:
        _batch._CACHE.clear()
        _batch._GENERATORS.clear()
        rep = exceptionality_scan(f, t_max)
        flags = [_dp_flags(f, maps[-1], t) for t in range(1, t_max + 1)]
        assert_no_table_built()
        assert rep.t_reached == t_max
        assert list(rep.records) == [record_oracle(f, t) for t in range(1, t_max + 1)], f
        assert flags == [dp_oracle(f, maps[-1], t) for t in range(1, t_max + 1)], f


@pytest.mark.parametrize("ctx", [F3, F4, F7, F9, make_field(131, 1)], ids=lambda c: f"{c.p}^{c.k}")
def test_scaled_power_map_reads_the_log_table(ctx, fresh_tables):
    t_max = monic_t_max(ctx)
    c = ctx.from_index(ctx.order - 1)  # neither 0 nor 1
    f = RationalMap(Poly(ctx, [0, 0, 0, c]))
    rep = exceptionality_scan(f, t_max)
    for t in range(1, t_max + 1):
        bf = _batch._CACHE[make_extension(ctx, t).key]
        # the log of a coefficient in the scan field's base, the map's own
        # field once t >= 2, is read off that base's powers
        # (``BatchField.label``), without the table; a prime field has no base
        assert (bf._tables is not None) == (c.index >= bf.ctx.base_order), t
        assert bf._zech is None
    assert list(rep.records) == [record_oracle(f, t) for t in range(1, t_max + 1)]


def test_full_table_record_peaks_at_two_tables(fresh_tables):
    # r = 1: the table and its int64 fiber counts, which the histogram reads
    # without a copy; 3 divides p - 1, so x^3 is no bijection and no period
    # pass runs
    F = make_field(1048573, 1)
    f = cyclic(F, 3)
    tracemalloc.start()
    try:
        rec = _record(f, 1, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rec.bijective and rec.value_counts[3] == (F.order - 1) // 3
    table = 8 * (F.order + 1)
    assert peak < 2.5 * table, peak / table


def test_dp_flags_match_index_order_oracle_on_seeded_pairs():
    rng = random.Random(18)
    seen = set()
    for ctx in (F2, F4, F5, F7, F9):

        def elem(nonzero=False):
            return ctx.from_index(rng.randrange(1 if nonzero else 0, ctx.order))

        for _ in range(8):
            num = [elem() for _ in range(rng.randint(1, 6))] + [elem(True)]
            f = RationalMap(Poly(ctx, num))
            if rng.random() < 0.5:
                f = RationalMap(f.num, Poly(ctx, [elem(), elem(True)]))
            kind = rng.randrange(3)
            if kind == 0:  # f after an affine bijection: the same multiset
                g = compose(f, RationalMap(Poly(ctx, [elem(), elem(True)])))
            elif kind == 1:  # a scalar multiple
                g = RationalMap(Poly(ctx, [elem(True) * c for c in f.num.coeffs]), f.den)
            else:
                g = RationalMap(Poly(ctx, [elem() for _ in range(4)] + [elem(True)]))
            for t in (1, 2, 3):
                want = dp_oracle(f, g, t)
                assert _dp_flags(f, g, t) == want, (f, g, t)
                assert (dp_range_test(f, g, t), idp_multiset_test(f, g, t)) == want
                seen.add(want)
    assert seen == {(False, False), (True, False), (True, True)}


# -- single-term maps and pair flags on the orbit quotient ---------------------

G4 = F4.gen()  # in F_4 but not in F_2
SINGLE_TERM_CASES = [  # (map, the step d of its coefficients, the t to read)
    # monomials on the prime-field towers: d = 1, so r = D = t
    (cyclic(F2, 3), 1, (4, 5, 6, 9)),
    (cyclic(F3, 5), 1, (4, 5, 6, 8)),
    (cyclic(F5, 3), 1, (4, 5, 6)),
    (cyclic(F7, 5), 1, (4, 5)),
    (cyclic(F7, 2), 1, (4, 5)),
    # c * x^n with c generating F_{p^2}: d = 2 and r = t
    (RationalMap(Poly(F4, [0] * 5 + [G4])), 2, (4, 5, 6)),
    (RationalMap(Poly(F9, [0] * 5 + [A9])), 2, (4, 5)),
    (RationalMap(Poly(F9, [0] * 5 + [2])), 1, (2, 3)),  # c in F_3: r = 2t
    # x^a / x^b, which reduce to c / x^(b-a)
    (rat(F2, [0, 1], [0, 0, 0, 1]), 1, (4, 5, 7)),
    (rat(F3, [0, 0, 1], [0] * 5 + [1]), 1, (4, 5, 6)),
    (rat(F4, [0, 0, G4], [0] * 7 + [1]), 2, (4, 5)),
]


def test_single_term_records_match_index_order_oracle():
    # each t on the quotient exactly when r = D/d reaches the threshold
    paths, seen = set(), set()
    for f, d, ts in SINGLE_TERM_CASES:
        for t in ts:
            bf = get_batch(make_extension(f.ctx, t))
            step = bf.orbit_step(_terms(f))
            r = bf.D // d
            assert step == (d if r >= _QUOTIENT_MIN_R else bf.D), (f, t)
            paths.add((min(r, _QUOTIENT_MIN_R), step < bf.D))
            if step < bf.D:
                seen |= quotient_features(f, t)
            assert _record(f, t, True) == record_oracle(f, t), (f, t)
    assert paths == {(4, False), (_QUOTIENT_MIN_R, True)}
    assert {"short orbit", "subfield", "rotation", "not bijective"} <= seen


G64 = make_field(2, 6).gen()
C4, C8 = G64**21, G64**9  # in F_4 and in F_8, not in F_2


def dp_with_steps(f, g, t, monkeypatch):
    """_dp_flags(f, g, t), and the step each evaluation was given: None for
    a full table."""
    steps = []
    eval_sparse = _batch.BatchField.eval_sparse

    def spy(self, *args, **kwargs):
        steps.append(kwargs.get("step"))
        return eval_sparse(self, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(_batch.BatchField, "eval_sparse", spy)
        flags = _dp_flags(f, g, t)
    return flags, steps


def poly(ctx, coeffs):
    return RationalMap(Poly(ctx, coeffs))


DP_CASES = [  # (f, g, t, the common step of the quotient, None for full tables)
    # equal steps: two monomials stay whole below r = 5
    (poly(F3, [0] * 8 + [1]), poly(F3, [0] * 8 + [2]), 4, None),
    (poly(F3, [0] * 8 + [1]), poly(F3, [0] * 8 + [2]), 5, 1),
    (poly(F3, [0] * 8 + [1]), poly(F3, [0] * 8 + [2]), 7, 1),
    (poly(F3, [0, 1, 0, 1]), poly(F3, [0, 2, 0, 1]), 1, None),  # x^3 + x, x^3 - x
    (poly(F3, [0, 1, 0, 1]), poly(F3, [0, 2, 0, 1]), 4, 1),
    (poly(F4, [0, 1, 0, G4]), poly(F4, [0, G4, 0, G4]), 1, None),
    (poly(F4, [0, 1, 0, G4]), poly(F4, [0, G4, 0, G4]), 3, 2),
    # mixed steps: the lcm, which over F_64 exceeds both
    (poly(F4, [0, 1, 0, 1]), poly(F4, [0, 1, 0, G4]), 3, 2),
    (poly(make_field(2, 6), [0, 1, 0, C4]), poly(make_field(2, 6), [0, 1, 0, C8]), 1, None),
    (poly(make_field(2, 6), [0, 1, 0, C4]), poly(make_field(2, 6), [0, 1, 0, C8]), 2, 6),
    (poly(F4, [0] * 5 + [1]), poly(F4, [0] * 5 + [G4]), 4, None),
    (poly(F4, [0] * 5 + [1]), poly(F4, [0] * 5 + [G4]), 5, 2),
    # a sum against a monomial: on the quotient whatever r
    (dickson(F3, 5, 1), cyclic(F3, 5), 1, None),
    (dickson(F3, 5, 1), cyclic(F3, 5), 2, 1),
    (dickson(F3, 5, 1), cyclic(F3, 5), 4, 1),
    (poly(F4, [1, 0, 0, 1]), rat(F4, [1], [0, 0, 0, G4]), 2, 2),  # x^3 + 1, 1/(c x^3)
]


@pytest.mark.parametrize("f, g, t, step", DP_CASES, ids=lambda v: str(v)[:40])
def test_dp_flags_on_the_quotient_match_index_order_oracle(f, g, t, step, monkeypatch):
    flags, steps = dp_with_steps(f, g, t, monkeypatch)
    assert steps == [step, step]  # each map evaluated once, on one quotient
    assert flags == dp_oracle(f, g, t)


@pytest.mark.parametrize("p", [p for p in range(3, 32) if _is_prime(p)])
def test_octic_pair_flags_match_index_order_oracle(p, monkeypatch):
    # x^8 against c x^8, c = 2 and 16: single terms with d = 1, so r = t
    ctx = make_field(p, 1)
    seen = set()
    for c in (2, 16 % p):
        f, g = poly(ctx, [0] * 8 + [1]), poly(ctx, [0] * 8 + [c])
        for t in range(1, monic_t_max(ctx) + 1):
            flags, steps = dp_with_steps(f, g, t, monkeypatch)
            assert steps == [1 if t >= _QUOTIENT_MIN_R else None] * 2
            assert flags == dp_oracle(f, g, t), (c, t)
            seen.add(flags)
    if p in (3, 5, 7):
        assert monic_t_max(ctx) >= _QUOTIENT_MIN_R
    if p == 5:  # 2 is no fourth power mod 5: the pair differs at t = 1
        assert seen == {(True, True), (False, False)}
