"""The index-space field engine must agree with the scalar field engine."""

import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import excov
from excov import _batch
from excov._batch import (
    _BLOCK,
    _CACHE,
    _CACHE_BYTES,
    _GOLDEN64,
    _RULING_MIN,
    _SPLIT_BITS,
    BatchField,
    _index_dtype,
    get_batch,
    permutation_period,
)
from excov.acceptance import SCAN_CAP
from excov.errors import CapExceededError, ValidationError, field_cap_scope
from excov.excscan import value_table
from excov.gf import _is_prime, make_extension, make_field
from excov.projmap import P1Point, Poly, RationalMap, _lift, cyclic, eval_p1


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


def index_table(bf, terms, den=None):
    """eval_sparse's table of a sum or quotient, in index order, without
    the spare last slot."""
    return bf.index_order(bf.eval_sparse(terms, den)[:-1])


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
    vals = index_table(bf, [(7, 2), (2, a), (0, 4)])
    for i in range(0, ctx.order, 7):
        x = ctx.from_index(i)
        want = x**7 * 2 + x**2 * a + ctx.from_int(4)
        assert vals[i] == want.index


def test_eval_sparse_subfield_coefficients():
    base = make_field(3, 2)
    ctx = make_extension(base, 2)
    bf = BatchField(ctx)
    a = base.gen()  # not a prime-field constant
    vals = index_table(bf, [(3, a), (1, a * a)])
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
    vals = index_table(BatchField(ctx), list(enumerate(coeffs)))
    for i in range(ctx.order):
        assert vals[i] == horner(ctx, coeffs, ctx.from_index(i)).index


def test_budget_forces_reduction_passes_on_long_sums():
    # a 200-term polynomial over F_101 whose partial sums pass through zero
    # many times on the way must still come out exactly
    ctx = make_field(101, 1)
    rng = random.Random(11)
    coeffs = [ctx.from_int(rng.randrange(101)) for _ in range(200)] + [ctx.one()]
    vals = index_table(BatchField(ctx), list(enumerate(coeffs)))
    for i in range(ctx.order):
        assert vals[i] == horner(ctx, coeffs, ctx.from_index(i)).index


def cycle_walk_period(perm):
    """Oracle: lcm of the cycle lengths, found by walking each cycle once."""
    perm = [int(v) for v in perm]
    seen = [False] * len(perm)
    want = 1
    for s in range(len(perm)):
        if seen[s]:
            continue
        ln, c = 0, s
        while not seen[c]:
            seen[c] = True
            c = perm[c]
            ln += 1
        want = math.lcm(want, ln)
    return want


def test_permutation_period_known_cycles():
    # disjoint 3-cycle and 2-cycle: order 6
    perm = np.array([1, 2, 0, 4, 3])
    assert permutation_period(perm) == 6
    assert permutation_period(np.arange(9)) == 1
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randrange(2, 60)
        p = list(range(n))
        rng.shuffle(p)
        assert permutation_period(np.array(p)) == cycle_walk_period(p)


def test_permutation_period_refuses_a_non_permutation():
    # every walk from a splitter ends in the loop at node 1, which no splitter
    # lies on; without a bound on the walk this never returns
    with pytest.raises(ValidationError):
        permutation_period(np.ones(_RULING_MIN, dtype=np.int64))


def first_level_walk_free(n):
    """Nodes that are not splitters at the first ruling-set level of n < 2**31
    nodes; on the identity no walk reaches them."""
    h = np.arange(n, dtype=np.uint32) * np.uint32(_GOLDEN64 >> 32)
    return np.flatnonzero(h >= 1 << (32 - _SPLIT_BITS))


def not_a_permutation(shape):
    n = 4 * _RULING_MIN
    perm = np.arange(n)
    free = first_level_walk_free(n)
    if shape == "walk onto a walked node":
        return np.ones(n, dtype=np.int64)  # every walk enters the loop at 1
    if shape == "two walks end at one splitter":
        return np.zeros(n, dtype=np.int64)
    if shape == "small level":
        return np.zeros(100, dtype=np.int64)
    if shape == "unreached node maps to a reached one":
        perm[free[0]] = 0  # 0 is a splitter
    elif shape == "unreached nodes share a successor":
        perm[free[0]] = free[1]
    return perm


@pytest.mark.parametrize(
    "shape",
    [
        "walk onto a walked node",
        "two walks end at one splitter",
        "small level",
        "unreached node maps to a reached one",
        "unreached nodes share a successor",
    ],
)
def test_permutation_period_refuses_each_non_permutation_at_once(shape):
    perm = not_a_permutation(shape)
    for args in ((perm,), (perm, np.arange(perm.size) % 12, 12)):  # plain and rotated
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="not a permutation"):
            permutation_period(*args)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
def test_permutation_period_transient_memory_per_node(rotated):
    # the int32 successor copy walked in place, the index hash and the
    # splitters: 9.5 bytes per node here, against 13.3 with a separate tag
    # array and 36.0 with (n, 2) int64 weights
    n = 1 << 20
    perm = np.random.default_rng(3).permutation(n).astype(np.int32)
    args = (perm, np.random.default_rng(4).integers(0, 31, n).astype(np.int8), 31)
    args = args if rotated else (perm,)
    permutation_period(*args)  # numpy's first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        permutation_period(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * n, peak / n


def test_permutation_period_refuses_rotations_past_int8():
    with pytest.raises(ValidationError, match="r must lie"):
        permutation_period(np.arange(4), np.zeros(4, dtype=np.int64), 128)


# sizes on both sides of the doubling/ruling-set crossover, and one past
# 16 crossovers so that a contracted level is contracted again
RULING_SIZES = [_RULING_MIN - 1, _RULING_MIN, 3 * _RULING_MIN + 5, 17 * _RULING_MIN]


@pytest.mark.parametrize("n", RULING_SIZES)
def test_permutation_period_random_matches_cycle_walk(n):
    rng = np.random.default_rng(n)
    for _ in range(2):
        perm = rng.permutation(n)
        assert permutation_period(perm) == cycle_walk_period(perm)


def lifted_orbit_map(succ, rot, size):
    """The permutation of points a bijection of orbits induces: point a of
    orbit i (its representative rotated a times) goes to point
    a + rot[i] mod size[i] of orbit succ[i]."""
    start = np.concatenate([[0], np.cumsum(size)[:-1]])
    node = np.repeat(np.arange(size.size), size)
    a = np.arange(size.sum()) - start[node]
    return start[succ[node]] + (a + rot[node]) % size[node]


@pytest.mark.parametrize("n", [50, *RULING_SIZES[1:]])
def test_period_of_an_orbit_map_matches_lifted_permutation(n):
    # orbits of every length dividing r, a length-keeping bijection on them
    # with random rotations, and long cycles past _RULING_MIN, contracted
    # twice at 17 * _RULING_MIN; r = 31, the largest D of a field below
    # 2**32, has orbit lengths 1 and 31 only
    rng = np.random.default_rng(n)
    for r in (12, 31):
        size = rng.choice([e for e in range(1, r + 1) if r % e == 0], n)
        for shuffle in (True, False):
            succ = np.empty(n, dtype=np.int64)
            for length in np.unique(size):
                at = np.flatnonzero(size == length)
                succ[at] = rng.permutation(at) if shuffle else np.roll(at, 1)
            rot = rng.integers(0, size)
            got = permutation_period(succ, rot * (r // size), r)
            assert got == permutation_period(lifted_orbit_map(succ, rot, size)), (r, shuffle)


@pytest.mark.parametrize("n", RULING_SIZES)
def test_permutation_period_structured_shapes(n):
    n -= n % 2  # even, for the all-2-cycles shape
    ident = np.arange(n)
    assert permutation_period(ident) == 1
    assert permutation_period(np.roll(ident, 1)) == n  # a single n-cycle
    assert permutation_period(ident ^ 1) == 2
    # fixed points and one long cycle through a random third of the nodes
    rng = np.random.default_rng(7)
    on = rng.choice(n, n // 3, replace=False)
    perm = ident.copy()
    perm[on] = np.roll(on, 1)
    assert permutation_period(perm) == n // 3


def test_permutation_period_of_frobenius():
    # x -> x^3 on P1(F_{3^13}): 13-cycles and fixed points, 1.6e6 points
    tab = value_table(cyclic(make_field(3, 1), 3), 13)
    assert tab.shape[0] > 16 * _RULING_MIN
    assert permutation_period(tab) == 13


def test_scan_and_structural_ops_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use (10-13 ms under NumPy 2.4); a
    # scan's periods and the structural passes dedupe without it
    def child(code):
        path = [str(Path(excov.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert run.returncode == 0, run.stderr
        return run.stdout.split()

    if child("import sys, numpy; print('numpy.ma' in sys.modules)") == ["True"]:
        pytest.skip("this NumPy imports numpy.ma together with numpy")
    out = child(
        "import sys, excov\n"
        "rep = excov.exceptionality_scan(excov.cyclic(excov.make_field(3, 1), 5), 6)\n"
        "print(sum(r.period is not None for r in rep.records))\n"
        "excov.coset_exceptionality(excov.dickson_cover_model(7, 3))\n"
        "excov.braid_orbit(excov.dickson_branch_triple(5))\n"
        "excov.analyze_rep(excov.dickson_cover_model(7, 3).group)\n"
        "M = excov.cyclic_cover_model(7, 2)\n"
        "pairs = excov.fiber_tensor(M.group.generators, M.group.generators)\n"
        "excov.component_count(pairs, off_diagonal=True)\n"
        "excov.stable_component_count(M)\n"
        "from excov.grouptheory import PairedMonodromy, block_swap, fano_actions, idp_trace_test\n"
        "points, lines = fano_actions()\n"
        "idp_trace_test(PairedMonodromy(points, lines, block_swap(7)))\n"
        "excov.dickson_tower_cycles(3, 2)\n"
        "from excov.nielsen import modular_tuple_perms\n"
        "modular_tuple_perms(3, 0, (1, 0), (0, 1))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert out == ["5", "False"]


def mult_order(a, m):
    x, k = a % m, 1
    while x != 1:
        x, k = x * a % m, k + 1
    return k


@pytest.mark.parametrize("n", [7, 11, 19, 23])
def test_power_map_period_is_multiplicative_order(n):
    # x^n permutes g^j by j -> n j mod (Q - 1) and fixes 0 and infinity
    tab = value_table(cyclic(make_field(5, 1), n), 8)
    Q = 5**8
    assert math.gcd(n, Q - 1) == 1
    assert permutation_period(tab) == mult_order(n, Q - 1)


def test_index_dtype_narrows_below_2_31():
    assert _index_dtype(2**31 - 1) is np.int32
    assert _index_dtype(2**31) is np.int64


# int32 tables where a product of two logs passes 2**31: m**2 >= 2**31
WIDE_PRODUCT_FIELDS = [make_field(46349, 1), make_field(65537, 1), make_field(7, 6)]


def sample_indices(bf, rng):
    """0, 1, the elements of the 40 largest logs (where products of logs
    are largest) and random others."""
    exp = bf.tables()[0]
    m = bf.order - 1
    top = [int(exp[j]) for j in range(m - 40, m)]
    return np.array([0, 1] + top + rng.sample(range(2, bf.order), 60))


@pytest.mark.parametrize("ctx", WIDE_PRODUCT_FIELDS, ids=lambda c: f"{c.p}^{c.k}")
def test_int32_tables_agree_with_scalar_engine_past_int32_products(ctx):
    bf = BatchField(ctx)
    m = ctx.order - 1
    assert m * m >= 2**31
    assert all(t.dtype == np.int32 for t in bf.tables())
    rng = random.Random(ctx.order)
    idx = sample_indices(bf, rng)
    elems = [ctx.from_index(int(i)) for i in idx]
    for e in (-1, m - 1, m - 2, 2 * m + 3):
        got = bf.pow_indices(idx, e)
        assert got[0] == 0
        for n in range(1, len(idx)):
            assert got[n] == (elems[n] ** e).index, (e, int(idx[n]))
    other = idx[rng.sample(range(len(idx)), len(idx))]
    got = bf.mul_indices(idx, other)
    for n in range(len(idx)):
        assert got[n] == (elems[n] * ctx.from_index(int(other[n]))).index
    coeffs = [ctx.from_index(rng.randrange(1, ctx.order)) for _ in range(4)]
    terms = list(zip((m - 1, m - 3, m + 1, 2), coeffs))
    lab = bf.eval_sparse(terms)[:-1]
    assert lab.dtype == np.int64
    vals = bf.index_order(lab)
    assert vals.dtype == np.int64
    for i, x in zip(idx, elems):
        want = ctx.zero()
        for e, c in terms:
            want = want + c * x**e
        assert vals[i] == want.index, int(i)


def assert_exp_rows_match_scalar_powers(bf):
    """The first two blocks of the exp build, the doubled one and one
    product with M(g)**_CHUNK, packed as ``_exp_log`` packs them, against
    the scalar engine's powers of the generator."""
    ctx = bf.ctx
    g, x = bf.generator(), ctx.one()
    for n, (lo, block) in zip(range(2), bf._exp_rows()):
        assert lo == n * _batch._CHUNK and block.shape == (_batch._CHUNK, bf.D)
        assert block.dtype == bf._work
        assert ((block >= 0) & (block < bf.p) & (block == np.floor(block))).all()
        idx = np.empty(block.shape[0], dtype=bf.dtype)
        idx[:] = block @ bf._pack_weights
        for j in range(block.shape[0]):
            assert idx[j] == x.index, lo + j
            x = x * g


# D = 2 on both sides of p = 2**15, where D * (p-1)**2 leaves int32, and of
# Q = 2**31, where the index tables widen to int64
@pytest.mark.parametrize("p", [32749, 32771, 46337, 46349])
def test_exp_rows_match_scalar_powers_at_degree_two(p):
    # the whole tables would take 8-34 GB: the first two blocks only
    with field_cap_scope(2**32):
        bf = BatchField(make_field(p, 2))
    assert bf.dtype is (np.int32 if p * p < 2**31 else np.int64)
    assert_exp_rows_match_scalar_powers(bf)
    # the float reduction at the top of its range: sums of two digit products
    top = 2 * (p - 1) ** 2
    y = np.arange(top - 3 * p, top + 1, dtype=np.int64)
    assert np.array_equal(bf._mod_p(y.astype(np.float64)), y % p)


# both sides of each float32 bound: Q = 2**24 (under a raised cap, 2**25),
# and at D = 2, D * (p-1)**2 < 2**22 (p = 1447, the largest such prime)
@pytest.mark.parametrize(
    "p, D, work",
    [(2, 24, np.float32), (2, 25, np.float64), (1447, 2, np.float32), (1451, 2, np.float64)],
)
def test_exp_rows_match_scalar_powers_at_the_float32_bounds(p, D, work):
    with field_cap_scope(2**25):
        bf = BatchField(make_field(p, D))
    assert bf._work is work
    assert_exp_rows_match_scalar_powers(bf)


@pytest.mark.parametrize("p", [2, 3, 1447])
def test_float32_mod_p_is_exact_below_2_22(p):
    # _mod_p's error proof holds for every y < 2**(t-2), t = 24; D * (p-1)**2
    # reaches 4181832 of it at p = 1447
    bf = BatchField(make_field(p, 2))
    assert bf._work is np.float32
    y = np.arange(2**22, dtype=np.int64)
    assert np.array_equal(bf._mod_p(y.astype(np.float32)), y % p)


class IdentityTable:
    """Stands in for an exp table too large to build: exp[k] = k."""

    def __getitem__(self, k):
        return np.asarray(k)


def test_table_width_edge_without_building_tables():
    # the largest prime field with int32 tables and the smallest with int64;
    # neither builds its 6-17 GB of tables
    with field_cap_scope(2**32):
        narrow = BatchField(make_field(2**31 - 1, 1))
        wide = BatchField(make_field(2147483659, 1))
    # every table is counted once built, and none is
    assert narrow.dtype is np.int32
    assert narrow.table_bytes == 0
    assert wide.dtype is np.int64
    assert wide.table_bytes == 0
    assert narrow._tables is None and wide._tables is None
    assert narrow._zech is None and wide._zech is None
    # at m = 2**31 - 2 even a sum of two int32 logs passes int32; with exp
    # stubbed to the identity the results are the log arithmetic itself
    m = narrow.order - 1
    logs = [m, 1, m - 1, m - 2, m // 2 + 1, 2**30, 12345]
    narrow._tables = (IdentityTable(), np.array(logs, dtype=np.int32))
    idx = np.arange(1, len(logs))
    a, b = np.repeat(idx, idx.size), np.tile(idx, idx.size)
    got = narrow.mul_indices(a, b)
    assert got.tolist() == [(logs[i] + logs[j]) % m for i, j in zip(a, b)]
    for e in (-1, m - 1, 3):
        got = narrow.pow_indices(idx, e)
        assert got.tolist() == [(e % m) * logs[i] % m for i in idx]


def test_eval_sparse_block_edges_match_scalar_engine():
    # three blocks of j, the last one partial
    ctx = make_field(primes_above(2 * _BLOCK + _BLOCK // 2)[0], 1)
    bf = BatchField(ctx)
    m = ctx.order - 1
    assert m > 2 * _BLOCK and m % _BLOCK
    exp = bf.tables()[0]
    edges = [0, 1, m - 1] + [k * _BLOCK + d for k in (1, 2) for d in (-1, 0, 1)]
    # x^2 - x0*x is 0 at x0 = g**j0, inside the last block, so the cubic
    # term lands on a partial sum that is zero there
    j0 = 2 * _BLOCK + _BLOCK // 4
    x0, one = ctx.from_index(int(exp[j0])), ctx.one()
    for terms in ([(2, one), (1, -x0)], [(2, one), (1, -x0), (3, one), (0, ctx.from_int(5))]):
        vals = index_table(bf, terms)
        for j in edges + [j0]:
            x = ctx.from_index(int(exp[j]))
            want = ctx.zero()
            for e, c in terms:
                want = want + c * x**e
            assert vals[int(exp[j])] == want.index, j
    assert vals[x0.index] == (x0**3 + ctx.from_int(5)).index


# the largest m that BatchField accepts: m**2 < 2**63 <= (m + 1)**2
M_MAX = math.isqrt(2**63 - 1)


@pytest.mark.parametrize("m", [2**31 - 2, 2**31 + 1, M_MAX])
def test_wrap_matches_remainder_at_its_bounds(m):
    # every value a log sum takes lies in [0, 2m), past int32 here and up to
    # the refusal bound of m**2
    assert M_MAX**2 < 2**63 <= (M_MAX + 1) ** 2
    x = np.array([0, 1, m - 1, m, m + 1, 2 * m - 1], dtype=np.int64)
    want = (x % m).tolist()
    spare = np.full(x.size + 3, 7, dtype=np.uint64)  # longer than x
    got = _batch._wrap(x, m, spare)
    assert got is x and x.dtype == np.int64
    assert x.tolist() == want


def test_single_term_labels_at_block_edges_match_scalar_engine():
    # the full table of c * x**e is a progression base per term, shifted by
    # a Python int offset per block: at each block's edges and at m - 1 the
    # label must be the log of the scalar engine's value
    ctx = make_field(primes_above(2 * _BLOCK + _BLOCK // 2)[0], 1)
    bf = BatchField(ctx)
    m = ctx.order - 1
    assert m > 2 * _BLOCK and m % _BLOCK
    exp, log = bf.tables()[:2]
    c = ctx.from_int(5)
    assert log[c.index] != 0
    edges = [0, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK, m - 1]
    for e in (1, 3, m - 2, 2 * m + 7):
        lab = bf.eval_sparse([(e, c)])
        assert lab[m] == m  # f(0) = 0
        for j in edges:
            x = ctx.from_index(int(exp[j]))
            assert lab[j] == log[(c * x**e).index], (e, j)


@pytest.mark.parametrize("ctx", WIDE_PRODUCT_FIELDS, ids=lambda c: f"{c.p}^{c.k}")
def test_rational_full_table_agrees_with_scalar_engine_past_int32_products(ctx):
    # numerator minus denominator logs, both sums with exponents near m, a
    # zero of the numerator at x1 and a pole at x0
    bf = BatchField(ctx)
    m = ctx.order - 1
    rng = random.Random(ctx.order + 1)
    idx = sample_indices(bf, rng)
    x0, x1 = (ctx.from_index(int(i)) for i in idx[-2:])
    a, c0, c1 = (ctx.from_index(rng.randrange(1, ctx.order)) for _ in range(3))
    c2 = -(c0 * x1 ** (m - 1) + c1 * x1 ** (m - 3)) / (x1 * x1)
    num = [(m - 1, c0), (m - 3, c1), (2, c2)]
    den = [(m - 1, a), (0, -(a / x0))]  # a / x - a / x0
    vals = index_table(bf, num, den)
    assert vals[x0.index] == ctx.order and vals[x1.index] == 0
    for i in idx:
        x = ctx.from_index(int(i))
        top = sum((c * x**e for e, c in num), ctx.zero())
        bottom = sum((c * x**e for e, c in den), ctx.zero())
        want = ctx.order if bottom.is_zero() else (top / bottom).index
        assert vals[i] == want, int(i)


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
    # against Euler's criterion x^((q-1)/2) = +-1 in scalar arithmetic
    for p, k in ((7, 1), (13, 1), (5, 2), (3, 3), (7, 2)):
        ctx = make_field(p, k)
        chi = BatchField(ctx).quadratic_character(np.arange(ctx.order))
        assert chi[0] == 0
        half = (ctx.order - 1) // 2
        for i in range(1, ctx.order):
            euler = ctx.from_index(i) ** half
            assert euler in (ctx.one(), -ctx.one())
            assert chi[i] == (1 if euler == ctx.one() else -1), (p, k, i)
    # every unit of F_8 is a square
    chi = BatchField(make_field(2, 3)).quadratic_character(np.arange(8))
    assert chi.tolist() == [0] + [1] * 7


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


@pytest.fixture
def empty_cache():
    _CACHE.clear()
    yield
    _CACHE.clear()


def tower_depth(q, cap):
    """Largest t with q**t within cap."""
    t = 0
    while q ** (t + 1) <= cap:
        t += 1
    return t


def primes_above(n, k=1):
    out = []
    while len(out) < k:
        n += 1
        if _is_prime(n):
            out.append(n)
    return out


# exp and log of a prime field below 2**31 points: 4 bytes per point each
EXP_LOG_BYTES_PER_POINT = 8


def with_exp_log(ctx):
    """get_batch's field for ctx, with exp and log built: the cache counts
    their bytes from its next get_batch call."""
    bf = get_batch(ctx)
    bf._exp_log()
    return bf


def over_budget_field():
    """A prime field whose exp and log alone exceed the cache budget."""
    return make_field(primes_above(_CACHE_BYTES // EXP_LOG_BYTES_PER_POINT)[0], 1)


def test_get_batch_caches_and_evicts(empty_cache):
    a = get_batch(make_field(3, 1))
    assert get_batch(make_field(3, 1)) is a
    big = with_exp_log(over_budget_field())
    get_batch(big.ctx)
    assert get_batch(make_field(3, 1)) is not a


def test_generator_survives_table_eviction(empty_cache):
    ctx = make_field(17, 1)
    g = get_batch(ctx).generator()
    get_batch(with_exp_log(over_budget_field()).ctx)
    assert ctx.key not in _CACHE
    assert get_batch(ctx).generator() is g


def test_tower_walk_builds_each_field_once(monkeypatch, empty_cache):
    # the F_3, F_5 and F_7 towers the acceptance suite's composition check
    # climbs under its cap, each field read as a scan of a sum reads it (on
    # the quotient from t = 2 on): 12.2 MB of tables together, all kept
    built = []

    class Counting(BatchField):
        def __init__(self, ctx):
            built.append(ctx.key)
            super().__init__(ctx)

    monkeypatch.setattr(_batch, "BatchField", Counting)
    tower = [
        make_extension(make_field(p, 1), t)
        for p in (3, 5, 7)
        for t in range(1, tower_depth(p, SCAN_CAP) + 1)
    ]
    assert len(tower) == 12 + 8 + 6
    for K in tower:
        get_batch(K).eval_sparse([(2, 1), (1, 1)], step=1 if K.k > 1 else None)
    assert sum(bf.table_bytes for bf in _CACHE.values()) > 12_000_000
    for K in tower:
        get_batch(K)
    assert len(built) == len(tower)
    assert set(built) == {K.key for K in tower}


def test_get_batch_drops_least_recently_used(empty_cache):
    # each field's exp and log take about 0.35 of the budget, and a field
    # counts half that while it holds less: two fit, three do not
    near = 7 * _CACHE_BYTES // (20 * EXP_LOG_BYTES_PER_POINT)
    a, b, c = (make_field(q, 1) for q in primes_above(near, 3))
    bf_a = with_exp_log(a)
    sizes = [bf.table_bytes for bf in (bf_a, with_exp_log(b), with_exp_log(c))]
    assert sizes[0] + sizes[2] <= _CACHE_BYTES < sum(sizes)
    assert list(_CACHE) == [a.key, b.key, c.key]  # c's tables not counted yet
    assert get_batch(a) is bf_a
    get_batch(c)
    assert list(_CACHE) == [a.key, c.key]


def test_over_budget_field_is_kept_alone(empty_cache):
    get_batch(make_field(3, 1))
    big = over_budget_field()
    bf = with_exp_log(big)
    assert bf.table_bytes > _CACHE_BYTES
    assert get_batch(big) is bf
    assert list(_CACHE) == [big.key]


def held_bytes(bf):
    """Bytes of the exp, log and zech tables, the tower base's logs, and the
    orbit_reps and orbit_lookup arrays bf holds now."""
    held = [*(bf._tables or ()), *bf._reps.values()]
    held += [a for lookup in bf._lookups.values() for a in lookup]
    held += [a for a in (bf._zech, bf._base_logs) if a is not None]
    return sum(a.nbytes for a in held)


def test_accounted_bytes_match_built_tables(empty_cache):
    # a field counts what it holds, each array from its build on: nothing at
    # first, then a quotient sum's representatives, lookup, zech and base
    # logs, then exp and log
    for ctx in FIELDS + [make_field(101, 1)]:
        bf = get_batch(ctx)
        assert bf.table_bytes == 0
        step = 1 if ctx.k > 1 else None
        c = ctx.from_index(ctx.base_order - 1) if ctx.base_order > 2 else 1
        bf.eval_sparse([(3, 1), (1, c), (0, 1)], step=step)
        assert bf._zech is not None and (bf._tables is None) == (step is not None)
        assert bf.table_bytes == held_bytes(bf)
        bf.tables()
        assert bf.table_bytes == held_bytes(bf)
    accounted = sum(bf.table_bytes for bf in _CACHE.values())
    assert accounted == sum(held_bytes(bf) for bf in _CACHE.values())


def test_power_map_scan_leaves_zech_unbuilt(empty_cache):
    # neither exp, log nor zech is built, and none is counted
    excov.exceptionality_scan(cyclic(make_field(3, 1), 5), 8)
    assert len(_CACHE) == 8
    for bf in _CACHE.values():
        assert bf._tables is None and bf._zech is None
        assert bf.table_bytes == held_bytes(bf)


def test_labels_of_zero_and_infinity_and_monic_terms_read_no_table():
    bf = BatchField(make_field(101, 1))
    assert bf.label(0) == 100
    lab = bf.eval_sparse([(3, 1)], [(5, 1)])  # x^3 / x^5, a pole at 0
    assert lab[-1] == 100  # and a zero at infinity
    lab = lab[:-1]
    assert np.array_equal(lab, np.append(-2 * np.arange(100) % 100, 101))
    assert bf._tables is None
    vals = bf.index_order(lab)  # index order reads exp
    assert bf._tables is not None
    ctx = bf.ctx
    assert vals.tolist() == [101] + [(ctx.from_index(i) ** -2).index for i in range(1, 101)]


PRIME_LABEL_FIELDS = [
    *(make_field(p, D) for p, D in [(3, 2), (3, 7), (5, 4), (7, 3), (11, 2), (13, 3), (2, 10)]),
    make_extension(make_field(3, 2), 3),  # 3^6 over 9
    make_extension(make_field(5, 2), 2),  # 5^4 over 25
]


@pytest.mark.parametrize("ctx", PRIME_LABEL_FIELDS, ids=lambda c: f"{c.p}^{c.k}/{c.rel_degree}")
def test_prime_field_labels_read_no_table_and_match_the_log_table(ctx):
    bf = BatchField(ctx)
    got = [bf.label(ctx.from_int(c).index) for c in range(ctx.p)]
    assert bf._tables is None
    assert got == bf._exp_log()[1][: ctx.p].tolist()


TOWER_BASE_FIELDS = [
    make_field(3, 6),  # over F_3
    make_extension(make_field(3, 2), 3),  # 9^3 over 9
    make_field(5, 4),  # over F_5
    make_extension(make_field(5, 2), 2),  # 5^4 over 25
    make_field(2, 12),  # over F_2
    make_field(131, 2),  # over F_131
]


@pytest.mark.parametrize("ctx", TOWER_BASE_FIELDS, ids=lambda c: f"{c.p}^{c.k}/{c.rel_degree}")
def test_tower_base_labels_read_no_table_and_match_the_log_table(ctx):
    bf = BatchField(ctx)
    K = ctx.base_order
    got = [bf.label(i) for i in range(K)]
    assert bf._tables is None
    assert bf.table_bytes == held_bytes(bf)
    assert got == bf._exp_log()[1][:K].tolist()


ZECH_FIELDS = [(2, 6), (2, 12), (3, 4), (3, 6), (3, 12), (5, 4), (7, 3), (13, 2)]


@pytest.mark.parametrize("p, D", ZECH_FIELDS, ids=lambda v: str(v))
def test_zech_from_the_representatives_matches_the_log_built_one(p, D):
    ctx = make_field(p, D)
    want = BatchField(ctx).tables()[2]
    m = ctx.order - 1
    # 1 + g**j = 0 only at j = 0 for p = 2, and at j = m/2 else
    assert (want == m).sum() == 1 and want[0 if p == 2 else m // 2] == m
    for d in (d for d in range(1, D) if D % d == 0):
        # with the lookup made in the same rotation passes, and after it
        for lookup_first in (False, True):
            bf = BatchField(ctx)
            if lookup_first:
                bf.orbit_lookup(d)
            code = bf._quotient_tables(d, True)[0]
            assert bf._tables is None, d
            assert np.array_equal(bf._zech, want), (d, lookup_first)
            assert code is bf.orbit_lookup(d)[0]
            assert bf.table_bytes == held_bytes(bf)


def test_zech_from_the_representatives_over_a_relative_extension():
    ctx = make_extension(make_field(3, 2), 3)  # 9^3 over 9: steps 1 and 2
    want = BatchField(ctx).tables()[2]
    for d in (1, 2, 3):
        bf = BatchField(ctx)
        bf._quotient_tables(d, True)
        assert bf._tables is None and np.array_equal(bf._zech, want), d


def test_quotient_sum_scans_build_no_exp_or_log(empty_cache):
    # Dickson over F_3 and a Redei map over F_9 with a non-square outside
    # F_3: past t = 1 every field is read on the quotient, and its zech is
    # made from the representatives
    F3, F9 = make_field(3, 1), make_field(3, 2)
    a = next(c for c in map(F9.from_index, range(3, 9)) if c ** 4 != F9.one())
    for f, t_max in ((excov.dickson(F3, 7, F3.one()), 8), (excov.redei(F9, 5, a), 4)):
        _CACHE.clear()
        excov.exceptionality_scan(f, t_max)
        for t in range(2, t_max + 1):
            bf = _CACHE[make_extension(f.ctx, t).key]
            assert bf._tables is None and bf._zech is not None, (f, t)
            assert bf.table_bytes == held_bytes(bf)


def test_large_field_clears_the_cache_before_its_build(empty_cache):
    # a field asked for counts as one table of its points before it holds
    # any: one of 4 bytes per point past the budget drops the rest at once
    small = with_exp_log(make_field(101, 1))
    big = make_field(primes_above(_CACHE_BYTES // 4)[0], 1)
    bf = get_batch(big)
    assert bf.table_bytes == 0 and list(_CACHE) == [big.key]
    assert get_batch(small.ctx) is not small


def test_binomial_scan_builds_zech(empty_cache):
    F3 = make_field(3, 1)
    excov.exceptionality_scan(excov.RationalMap(excov.Poly(F3, [0, 1, 0, 0, 0, 1])), 8)
    assert len(_CACHE) == 8
    for bf in _CACHE.values():
        assert bf._zech is not None
        assert bf.table_bytes == held_bytes(bf)


def test_next_get_batch_counts_a_zech_built_since(monkeypatch, empty_cache):
    a, b = make_field(101, 1), make_field(103, 1)
    bf_a, bf_b = get_batch(a), get_batch(b)
    monkeypatch.setattr(_batch, "_CACHE_BYTES", bf_a.table_bytes + bf_b.table_bytes)
    bf_b.eval_sparse([(2, 1), (1, 1)])  # x^2 + x, a sum: builds zech
    assert bf_b._zech is not None and bf_a._zech is None
    assert bf_a.table_bytes + bf_b.table_bytes > _batch._CACHE_BYTES
    assert list(_CACHE) == [a.key, b.key]
    assert get_batch(b) is bf_b
    assert list(_CACHE) == [b.key]


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
        got = index_table(bf, terms)
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


# -- evaluation once per Frobenius orbit --------------------------------------


def least_rotations(m, s, r):
    """Oracle for orbit_reps: the logs j at most each of j * s**k mod m."""
    j = np.arange(m, dtype=np.int64)
    img = j
    for _ in range(r - 1):
        img = img * s % m
        keep = j <= img
        j, img = j[keep], img[keep]
    return j


@pytest.mark.parametrize(
    "p, D",
    # (67, 2) and (3, 12) extend more prefixes at once than one block holds
    [(2, 2), (2, 6), (2, 10), (3, 4), (3, 6), (5, 3), (7, 2), (67, 2), (3, 12)],
)
def test_orbit_reps_are_the_least_log_of_each_orbit(p, D):
    bf = BatchField(make_field(p, D))
    m = bf.order - 1
    built = 0
    for d in (d for d in range(1, D) if D % d == 0):
        reps = bf.orbit_reps(d)
        assert reps.dtype == bf.dtype
        assert np.array_equal(reps, least_rotations(m, p**d, D // d)), d
        built += reps.nbytes
        assert bf.orbit_reps(d) is reps
    assert bf._zech is None
    assert bf.table_bytes == built


@pytest.mark.parametrize("p, D", [(2, 6), (2, 12), (3, 4), (5, 3), (67, 2)])
def test_orbit_lookup_names_each_label_by_orbit_and_least_rotation(p, D):
    bf = BatchField(make_field(p, D))
    Q, m = bf.order, bf.order - 1
    before = bf.table_bytes
    for d in (d for d in range(1, D) if D % d == 0):
        s, r = p**d, D // d
        reps = bf.orbit_reps(d)
        n = reps.size
        code, size = bf.orbit_lookup(d)
        assert bf.orbit_lookup(d)[0] is code
        i, k = np.divmod(code[:m].astype(np.int64), r)
        # x is reps[i] rotated k times, k below the orbit's length
        x = reps[i].astype(np.int64)
        for step in range(r):
            x = np.where(k > step, x * s % m, x)
        assert np.array_equal(x, np.arange(m)), d
        assert (k < size[i]).all()
        # the length is the least e >= 1 with reps * s**e = reps
        least = [next(e for e in range(1, r + 1) if j * s**e % m == j) for j in reps.tolist()]
        assert size[:n].tolist() == least
        assert code[m] == n * r and code[Q] == (n + 1) * r and size[n:].tolist() == [1, 1]
        assert code.size == Q + 1 and code.dtype == _index_dtype((n + 2) * r)
        before += reps.nbytes + code.nbytes + size.nbytes
    assert bf.table_bytes == before


def subfield_element(x, e):
    """The norm of x from its field down to F_{p**e}, an element of that subfield."""
    return x ** ((x.ctx.order - 1) // (x.ctx.p**e - 1))


ORBIT_FIELDS = [  # (p, k, t): maps over F_{p^k} evaluated on F_{p^(kt)}
    (3, 1, 1),
    (11, 1, 3),
    (13, 1, 4),
    (2, 1, 14),
    (2, 2, 7),
    (7, 1, 6),
    (5, 1, 8),
    (3, 2, 6),
    (3, 1, 12),
]


def random_sums(rng, base, trial):
    """Seeded (terms, den) over base, whose coefficients lie in a random
    subfield: zeros on short orbits for odd trials, a denominator with
    poles from trial 3 on."""
    k = base.k
    e = rng.choice([e for e in range(1, k + 1) if k % e == 0])

    def coeff():
        return subfield_element(base.from_index(rng.randrange(1, base.order)), e)

    terms = [(rng.randrange(40), coeff()) for _ in range(rng.randint(2, 5))]
    if trial % 2:  # a root in F_q: the sum is 0 on a short orbit
        root = base.from_index(rng.randrange(1, base.order))
        n = rng.randrange(1, 9)
        terms += [(n, 1), (0, -(root**n))]
    den = None
    if trial >= 3:  # x**n - c: poles wherever c has an n-th root
        n = rng.randrange(1, 9)
        den = [(n, 1), (0, -coeff()), (rng.randrange(n + 1, 30), coeff())]
    return terms, den


def assert_quotient_reads_full_table(bf, terms, den, d):
    """The quotient's codes are the ``orbit_lookup(d)`` codes of the full
    table's values at ``orbit_reps(d)``, at 0 and at infinity."""
    full = bf.eval_sparse(terms, den)
    got = bf.eval_sparse(terms, den, step=d)
    at = np.append(bf.orbit_reps(d), [bf.order - 1, bf.order])
    code = bf.orbit_lookup(d)[0]
    assert got.size == at.size and got.dtype == code.dtype
    assert np.array_equal(got, code[full[at]]), (terms, den, d)


@pytest.mark.parametrize("p, k, t", ORBIT_FIELDS, ids=lambda v: str(v))
def test_orbit_path_matches_full_field_evaluation(p, k, t):
    rng = random.Random(p * 100 + k * 10 + t)
    base = make_field(p, k)
    K = make_extension(base, t)
    bf = BatchField(K)
    for trial in range(6):
        terms, den = random_sums(rng, base, trial)
        d = bf.orbit_step(bf.term_logs(terms, den))  # a sum: its coefficients' least step
        if d < bf.D:
            assert_quotient_reads_full_table(bf, terms, den, d)
    if K.k > 1:
        assert bf._reps  # some trial took the orbit path


def from_labels(bf, lab):
    """Element indices of log-coordinate labels: j < m is g**j, m is 0, and
    Q, infinity, stays Q."""
    exp = bf._exp_log()[0]
    m = bf.order - 1
    out = np.where(lab == m, 0, exp[np.minimum(lab, m - 1)])
    return np.where(lab == bf.order, bf.order, out)


def scalar_value(K, terms, den, x):
    """Index of the sum, or the quotient of the two sums, at x; Q at a pole."""

    def total(ts):
        acc = K.zero()
        for e, c in ts:
            acc = acc + _lift(K, c) * x**e
        return acc

    if den is None:
        return total(terms).index
    bottom = total(den)
    return K.order if bottom.is_zero() else (total(terms) / bottom).index


@pytest.mark.parametrize(
    "p, k, t", ORBIT_FIELDS + [(2, 1, 1), (2, 1, 5), (2, 2, 1), (2, 2, 4)], ids=lambda v: str(v)
)
def test_log_coordinate_table_relabels_the_index_table(p, k, t):
    # slot j of the labelled table is the point g**j and slot m the point 0;
    # index_order moves both slots and values, as from_labels reads them
    rng = random.Random(p * 100 + k * 10 + t + 1)
    base = make_field(p, k)
    K = make_extension(base, t)
    bf = BatchField(K)
    m = K.order - 1
    exp = bf._exp_log()[0]
    sample = [0, m - 1] + rng.sample(range(m), min(m, 60))
    for trial in range(6):
        terms, den = random_sums(rng, base, trial)
        out = bf.eval_sparse(terms, den)[:-1]
        want = bf.index_order(out)
        assert np.array_equal(from_labels(bf, out[:m]), want[exp]), (terms, den)
        assert from_labels(bf, out[m]) == want[0], (terms, den)
        for j in sample:
            x = K.from_index(int(exp[j]))
            assert want[x.index] == scalar_value(K, terms, den, x), (terms, den, j)
        assert want[0] == scalar_value(K, terms, den, K.zero()), (terms, den)
    # a constant and a zero map: every slot takes the one value
    for terms in ([(0, base.one())], []):
        lab = bf.eval_sparse(terms)[:-1]
        value = scalar_value(K, terms, None, K.zero())
        assert np.array_equal(from_labels(bf, lab), np.full(K.order, value))
        assert np.array_equal(bf.index_order(lab), np.full(K.order, value))
    # a scan's table of Q + 1 slots keeps slot Q, infinity, in place
    lab = bf.eval_sparse([(1, 1)], [(2, 1)])  # 1/x: a pole at 0, a zero at infinity
    assert bf.index_order(lab)[[0, K.order]].tolist() == [K.order, 0]


def test_orbit_path_marks_poles():
    base = make_field(3, 2)
    K = make_extension(base, 3)  # F_{9^3}, F_9 coefficients: d = 2, r = 3
    bf = BatchField(K)
    a = base.gen()
    num = [(5, a), (2, 1), (0, a * a)]
    for den in ([(2, 1), (0, -a)], [(3, 1), (0, -(a**3))]):
        assert bf.orbit_step(bf.term_logs(num, den)) == 2
        assert_quotient_reads_full_table(bf, num, den, 2)
    # x^3 - a^3 vanishes at a, whose orbit's node then holds infinity's code
    assert index_table(bf, num, den)[K.embed(a).index] == K.order
    code = bf.orbit_lookup(2)[0]
    node = code[bf.label(K.embed(a).index)] // 3
    assert bf.eval_sparse(num, den, step=2)[node] == code[K.order]
    assert set(bf._reps) == {2}


def end_cases(a):
    """(terms, den) pairs that reach each rule for the ends: a is a unit
    of the base other than 1, and no case has both constant terms 0, so
    the reduced map has the same values at 0 and at infinity."""
    return [
        ([(0, a), (2, 1), (5, 2)], None),  # a polynomial: a pole at infinity
        ([(1, a), (3, 1)], None),  # a zero at 0
        ([(0, a)], None),  # a constant
        ([], None),  # the zero map
        ([(3, 1), (3, -1), (1, 1)], None),  # x: the top exponent cancels
        ([(3, 1), (0, a)], [(1, 1), (0, 1)]),  # deg num > deg den
        ([(1, a)], [(2, 1), (0, 1)]),  # deg num < deg den
        ([(2, a), (0, 1)], [(2, 2), (1, 1)]),  # equal degrees, a pole at 0
        ([(2, a), (0, 1)], [(2, 1), (0, a)]),  # equal degrees, units at both ends
        ([(2, 1), (0, 1)], [(3, 1), (3, -1), (2, 2), (0, 1)]),  # den's top cancels
        ([], [(1, 1), (0, a)]),  # the zero map as a quotient
    ]


def as_map(base, terms, den):
    """The RationalMap of the sum, or of the quotient of the two sums."""

    def poly(ts):
        coeffs = [base.zero()] * (max((e for e, _ in ts), default=0) + 1)
        for e, c in ts:
            coeffs[e] = coeffs[e] + _lift(base, c)
        return Poly(base, coeffs)

    return RationalMap(poly(terms), None if den is None else poly(den))


@pytest.mark.parametrize(
    "p, k, t", [(5, 1, 4), (3, 2, 3), (2, 2, 3), (7, 1, 1), (3, 2, 1)], ids=lambda v: str(v)
)
def test_table_ends_match_scalar_engine_at_zero_and_infinity(p, k, t):
    # slots m and Q of a full table, and the last two codes of the quotient
    # table over the base's step, hold f(0) and f(infinity) as eval_p1 has them
    base = make_field(p, k)
    K = make_extension(base, t)
    bf = BatchField(K)
    Q, m = K.order, K.order - 1
    for terms, den in end_cases(base.gen() if k > 1 else base.from_int(2)):
        f = as_map(base, terms, den)
        want = [eval_p1(f, P1Point.of(K.zero())).index(), eval_p1(f, P1Point.infinity(K)).index()]
        full = bf.eval_sparse(terms, den)
        assert full.size == Q + 1
        assert from_labels(bf, full[[m, Q]]).tolist() == want, (terms, den)
        if t > 1:
            code = bf.orbit_lookup(k)[0]
            got = bf.eval_sparse(terms, den, step=k)
            assert got[-2:].tolist() == code[full[[m, Q]]].tolist(), (terms, den)
