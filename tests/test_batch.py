"""The index-space field engine must agree with the scalar field engine."""

import math
import random

import numpy as np
import pytest

from excov._batch import (
    _CACHE,
    BatchField,
    get_batch,
    is_permutation,
    multiplicity_histogram,
    permutation_period,
)
from excov.errors import CapExceededError
from excov.gf import make_extension, make_field


FIELDS = [
    make_field(3, 2),
    make_field(5, 2),
    make_field(2, 4),
    make_extension(make_field(2, 2), 2),  # 16 over 4
    make_field(7, 2),
    make_extension(make_field(3, 2), 2),  # 81 over 9
]


def zech_sum(bf, a_idx, b_idx):
    """a + b on index arrays by Zech's rule on the engine's own tables."""
    exp, log, zech = bf.tables()
    m = bf.order - 1
    la, lb = log[a_idx], log[b_idx]
    z = zech[(lb - la) % m]
    total = np.where(z == m, 0, exp[(la + z) % m])
    return np.where(a_idx == 0, b_idx, np.where(b_idx == 0, a_idx, total))


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"{c.p}^{c.k}")
def test_element_table_matches_enumeration(ctx):
    bf = BatchField(ctx)
    rows = np.array([ctx.from_index(i).prime_coeffs() for i in range(ctx.order)])
    assert np.array_equal(bf.pack(rows), np.arange(ctx.order))


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"{c.p}^{c.k}")
def test_tables_match_scalar_powers(ctx):
    bf = BatchField(ctx)
    exp, log, zech = bf.tables()
    g, m = bf.generator(), ctx.order - 1
    x = ctx.one()
    for j in range(m):
        assert exp[j] == x.index
        assert log[x.index] == j
        s = ctx.one() + x
        assert zech[j] == (m if s.is_zero() else log[s.index])
        x = x * g


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"{c.p}^{c.k}")
def test_mul_add_agree_with_scalar_engine(ctx):
    bf = BatchField(ctx)
    q = ctx.order
    rng = random.Random(7)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(120)]
    if q <= 81:
        pairs = [(i, j) for i in range(q) for j in range(q)]
    a_idx = np.array([i for i, _ in pairs])
    b_idx = np.array([j for _, j in pairs])
    minus_one = ctx.from_int(-1).index
    got_mul = bf.mul_indices(a_idx, b_idx)
    got_add = zech_sum(bf, a_idx, b_idx)
    got_sub = zech_sum(bf, a_idx, bf.mul_indices(b_idx, minus_one))
    for n, (i, j) in enumerate(pairs):
        x, y = ctx.from_index(i), ctx.from_index(j)
        assert got_mul[n] == (x * y).index
        assert got_add[n] == (x + y).index
        assert got_sub[n] == (x - y).index


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"{c.p}^{c.k}")
def test_power_tables_agree_with_scalar_engine(ctx):
    bf = BatchField(ctx)
    for n in (0, 1, 2, 3, 5, 8, 13):
        tab = bf.power_table(n)
        for i in range(0, ctx.order, max(1, ctx.order // 23)):
            assert tab[i] == (ctx.from_index(i) ** n).index


def test_pow_and_inverse():
    ctx = make_field(7, 2)
    bf = BatchField(ctx)
    elems = np.arange(ctx.order)
    inv = bf.pow_indices(elems, ctx.order - 2)
    for i in range(1, ctx.order):
        assert inv[i] == ctx.from_index(i).inverse().index
    assert inv[0] == 0  # convention: caller masks zeros
    cube = bf.pow_indices(elems, 3)
    for i in range(ctx.order):
        assert cube[i] == (ctx.from_index(i) ** 3).index


def test_pow_indices_keeps_zero_at_nonpositive_exponents():
    ctx = make_field(7, 1)
    bf = BatchField(ctx)
    elems = np.arange(ctx.order)
    assert bf.pow_indices(elems, 0).tolist() == [0] + [1] * 6
    inv = bf.pow_indices(elems, -1)
    assert inv[0] == 0
    assert inv[1:].tolist() == [ctx.from_index(i).inverse().index for i in range(1, 7)]


def test_scalar_broadcast_multiplication():
    base = make_field(3, 2)
    ctx = make_extension(base, 2)
    bf = BatchField(ctx)
    g = base.gen()
    got = bf.mul_indices(np.arange(ctx.order), ctx.embed(g).index)
    for i in range(ctx.order):
        assert got[i] == (ctx.from_index(i) * g).index


def test_eval_sparse_matches_pointwise():
    base = make_field(5, 1)
    ctx = make_extension(base, 3)
    bf = BatchField(ctx)
    a = base.from_int(3)
    # 2*x^7 + a*x^2 + 4
    vals = bf.eval_sparse([(7, 2), (2, a), (0, 4)])
    for i in range(0, ctx.order, 7):
        x = ctx.from_index(i)
        want = x**7 * 2 + x**2 * a + ctx.from_int(4)
        assert vals[i] == want.index


def test_eval_sparse_subfield_coefficients():
    base = make_field(3, 2)
    ctx = make_extension(base, 2)
    bf = BatchField(ctx)
    a = base.gen()  # not a prime-field constant
    vals = bf.eval_sparse([(3, a), (1, a * a)])
    for i in range(ctx.order):
        x = ctx.from_index(i)
        assert vals[i] == (a * x**3 + a * a * x).index


def horner(ctx, coeffs, x):
    acc = ctx.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_eval_dense_matches_horner():
    # a dense coefficient list, every exponent 0..4 present
    ctx = make_field(2, 4)
    coeffs = [ctx.from_index(i) for i in (5, 0, 9, 1, 14)]
    vals = BatchField(ctx).eval_sparse(list(enumerate(coeffs)))
    for i in range(ctx.order):
        assert vals[i] == horner(ctx, coeffs, ctx.from_index(i)).index


def test_budget_forces_reduction_passes_on_long_sums():
    # a 200-term polynomial over F_101 whose partial sums pass through zero
    # many times on the way must still come out exactly
    ctx = make_field(101, 1)
    rng = random.Random(11)
    coeffs = [ctx.from_int(rng.randrange(101)) for _ in range(200)] + [ctx.one()]
    vals = BatchField(ctx).eval_sparse(list(enumerate(coeffs)))
    for i in range(ctx.order):
        assert vals[i] == horner(ctx, coeffs, ctx.from_index(i)).index


def test_is_permutation_and_histogram():
    assert is_permutation(np.array([2, 0, 1]), 3)
    assert not is_permutation(np.array([2, 2, 1]), 3)
    assert not is_permutation(np.array([0, 1]), 3)
    hist = multiplicity_histogram(np.array([0, 0, 3, 3, 3, 1]), 5)
    assert hist == {0: 2, 1: 1, 2: 1, 3: 1}


def test_permutation_period_known_cycles():
    # disjoint 3-cycle and 2-cycle: order 6
    perm = np.array([1, 2, 0, 4, 3])
    assert permutation_period(perm) == 6
    assert permutation_period(np.arange(9)) == 1
    rng = random.Random(11)
    for _ in range(10)          :
        n = rng.randrange(2, 60)
        p = list(range(n))
        rng.shuffle(p)
        arr = np.array(p)
        # reference lcm from explicit cycle walk
        seen = [False] * n
        want = 1
        for s in range(n):
            if seen[s]:
                continue
            ln, c = 0, s
            while not seen[c]:
                seen[c] = True
                c = p[c]
                ln += 1
            want = math.lcm(want, ln)
        assert permutation_period(arr) == want


def test_index_space_multiplication():
    ctx = make_field(3, 3)
    bf = BatchField(ctx)
    q = ctx.order
    a = np.arange(q).repeat(q)
    b = np.tile(np.arange(q), q)
    got = bf.mul_indices(a, b)
    for n in range(0, q * q, 11):
        want = (ctx.from_index(int(a[n])) * ctx.from_index(int(b[n]))).index
        assert got[n] == want
    pw = bf.pow_indices(np.arange(q), 5)
    for i in range(q):
        assert pw[i] == (ctx.from_index(i) ** 5).index


def test_log_parity_is_quadratic_character():
    ctx = make_field(7, 2)
    bf = BatchField(ctx)
    log = bf.tables()[1]
    squares = {(ctx.from_index(i) ** 2).index for i in range(1, ctx.order)}
    for i in range(1, ctx.order):
        assert (log[i] % 2 == 0) == (i in squares)


def test_generator_has_full_order():
    for ctx in (make_field(2, 1), make_field(3, 2), make_extension(make_field(2, 2), 2)):
        g = BatchField(ctx).generator()
        seen = set()
        x = ctx.one()
        for _ in range(ctx.order - 1):
            seen.add(x.index)
            x = x * g
        assert len(seen) == ctx.order - 1


def test_frobenius_power_is_linear_over_base():
    base = make_field(2, 2)
    ctx = make_extension(base, 3)
    bf = BatchField(ctx)
    frob = bf.pow_indices(np.arange(ctx.order), base.order)
    fixed = [i for i in range(ctx.order) if frob[i] == i]
    assert len(fixed) == base.order


def test_get_batch_caches_and_evicts():
    a = get_batch(make_field(3, 1))
    assert get_batch(make_field(3, 1)) is a
    for p in (5, 7, 11, 13):
        get_batch(make_field(p, 1))
    assert get_batch(make_field(3, 1)) is not a


def test_generator_survives_table_eviction():
    ctx = make_field(17, 1)
    g = get_batch(ctx).generator()
    for p in (19, 23, 29, 31):
        get_batch(make_field(p, 1))
    assert ctx.key not in _CACHE
    assert get_batch(ctx).generator() is g


def test_wide_characteristic_agrees_with_scalar_engine():
    # the fields on both sides of the old int8/int16 digit and int16/int32
    # product widths
    rng = random.Random(3)
    for p, t in ((131, 1), (199, 1), (131, 2), (67, 1)):
        ctx = make_field(p, 1)
        K = make_extension(ctx, t)
        bf = BatchField(K)
        coeffs = [ctx.from_index(rng.randrange(p)) for _ in range(9)]
        terms = [(e, c) for e, c in enumerate(coeffs) if not c.is_zero()]
        got = bf.eval_sparse(terms)
        for i in rng.sample(range(K.order), min(80, K.order)):
            x = K.from_index(i)
            want = K.zero()
            for e, c in terms:
                want = want + K.embed(c) * x ** e
            assert int(got[i]) == want.index, (p, t, i)


def test_int64_guard_refuses_fields_before_building_tables(monkeypatch):
    # (p - 1)**2 < 2**63 exactly up to 3037000500; tables are built lazily,
    # so constructing the largest field inside the bound allocates nothing
    monkeypatch.setenv("EXCOV_CAP", str(2**32))
    assert BatchField(make_field(3037000493, 1))._tables is None
    big = make_field(3037000507, 1)
    with pytest.raises(CapExceededError, match="int64"):
        get_batch(big)
    assert big.key not in _CACHE
