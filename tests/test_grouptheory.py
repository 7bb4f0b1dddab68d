"""Coset fixed-point criteria against hand-checked small groups."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from excov.errors import CapExceededError, ValidationError, field_cap_scope
from excov.frobset import from_residues
from excov.grouptheory import (
    MonodromyData,
    PairedMonodromy,
    Perm,
    PermGroup,
    _coset_fixes,
    _member_test,
    _orbit_labels,
    _suborbit_cycles,
    analyze_rep,
    block_swap,
    component_count,
    coset_exceptionality,
    cyclic_cover_model,
    davenport_trace_test,
    dickson_cover_model,
    fano_actions,
    fiber_tensor,
    group_from_gens,
    idp_trace_test,
    sdp_check,
)
from excov.pencil import stable_component_count


def C(text, degree=None):
    return Perm.from_cycles(text, degree)


# -- the scalar oracles: Perm-by-Perm versions of the array code -----------------


def elements(G):
    """The rows of G's element array as `Perm`s, in the same order."""
    return tuple(Perm(tuple(row)) for row in G.element_array.tolist())


def random_element(rng, G):
    return Perm(tuple(rng.choice(G.element_array).tolist()))


def contains(G, g):
    """Membership among the rows of the element array."""
    return bool((G.element_array == np.array(g.images, dtype=np.int32)).all(1).any())


def coset(M, t):
    """The elements g*tau^t of the coset at t, one `Perm` each."""
    tt = M.tau ** (t % M.d)
    for g in elements(M.group):
        yield g * tt


def block_sum(a, b):
    n1 = a.degree
    return Perm(tuple(list(a.images) + [v + n1 for v in b.images]))


def fiber_sum(gens1, gens2):
    """Blockwise sum: each parallel pair acts on the disjoint union."""
    return [block_sum(a, b) for a, b in zip(gens1, gens2)]


def fix_pair(P, h):
    """The fixed points of h on the two blocks of a paired model."""
    f1 = sum(1 for i in range(P.n1) if h.act(i) == i)
    f2 = sum(1 for i in range(P.n1, P.n1 + P.n2) if h.act(i) == i)
    return f1, f2


def fiber_tensor_oracle(gens1, gens2):
    out = []
    for a, b in zip(gens1, gens2):
        n1, n2 = a.degree, b.degree
        images = [0] * (n1 * n2)
        for i in range(n1):
            ai = a.act(i) * n2
            for j in range(n2):
                images[i * n2 + j] = ai + b.act(j)
        out.append(Perm(tuple(images)))
    return out


def fano_oracle():
    """The plane of order 2 from matrix-vector products: points by m, lines
    by the inverse transpose of m, which over F_2 (det m = 1) is the matrix
    of cofactors."""

    def matvec(m, v):
        return tuple(sum(r[j] * v[j] for j in range(3)) % 2 for r in m)

    def cofactors(m):
        def minor(r, c):
            rows = [i for i in range(3) if i != r]
            cols = [j for j in range(3) if j != c]
            return (m[rows[0]][cols[0]] * m[rows[1]][cols[1]] + m[rows[0]][cols[1]] * m[rows[1]][cols[0]]) % 2

        assert sum(m[0][c] * minor(0, c) for c in range(3)) % 2 == 1
        return tuple(tuple(minor(r, c) for c in range(3)) for r in range(3))

    def vector(label):
        return ((label >> 2) & 1, (label >> 1) & 1, label & 1)

    def label(v):
        return (v[0] << 2) | (v[1] << 1) | v[2]

    cyc = ((0, 0, 1), (1, 0, 1), (0, 1, 0))
    trans = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    points, lines = [], []
    for m in (cyc, trans):
        mit = cofactors(m)
        points.append(Perm(tuple(label(matvec(m, vector(i + 1))) - 1 for i in range(7))))
        lines.append(Perm(tuple(label(matvec(mit, vector(i + 1))) - 1 for i in range(7))))
    return points, lines


# -- permutations -------------------------------------------------------------


def test_right_action_composition_order():
    # apply (1 2) first, then (2 3): 1 -> 2 -> 3
    p = C("(1 2)", 3) * C("(2 3)", 3)
    assert p == C("(1 3 2)", 3)
    assert p.act(0) == 2


def test_cycle_string_round_trip():
    for text in ["(1 2 3)(4 5)", "(2 7)", "(1 4)(2 5)(3 6)"]:
        p = C(text, 7)
        assert C(p.cycle_string(), 7) == p


def test_perm_inverse_power_order():
    p = C("(1 2 3 4 5)(6 7)", 7)
    assert p * p.inverse() == Perm.identity(7)
    assert p ** 10 == (p ** 5) * (p ** 5)
    assert p.order() == 10
    assert (p ** -3) * (p ** 3) == Perm.identity(7)
    assert p ** 0 == Perm.identity(7)
    assert p ** -1 == p.inverse()
    assert p ** -4 == p.inverse() ** 4 == p ** 6
    assert sorted(len(c) for c in p.cycles()) == [2, 5]


def test_perm_rejects_non_permutations_within_9_bytes_per_letter():
    long = tuple(range(2000))
    for images in [(0, 0), (1, 2), (-1, 0), (0, 1, 3), (0, 0.5), ("a",), (0, 2**70)]:
        for pad in ((), long[len(images):]):  # a sort, and the int64 row
            with pytest.raises(ValidationError, match="not a permutation"):
                Perm(images + pad)
    assert Perm(long).images == long
    assert Perm(()).images == () and Perm((np.int64(1), 0)) == Perm((1, 0))
    # the check holds an int64 row and a mask, not two sorted n-entry lists
    n = 10**6
    images = tuple(range(1, n)) + (0,)
    tracemalloc.start()
    try:
        Perm(images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n, peak / (8 * n)


# -- groups -------------------------------------------------------------------


def test_cyclic_group_order():
    G = group_from_gens([C("(1 2 3 4 5)")])
    assert G.order == 5


def test_dihedral_from_involution_pair():
    # two involutions whose product is a 5-cycle generate a 10-element group
    g1 = C("(2 5)(3 4)", 5)
    g2 = C("(1 2)(3 5)", 5)
    assert [len(c) for c in (g1 * g2).cycles()] == [5]
    assert group_from_gens([g1, g2]).order == 10


def test_fano_group_order():
    points, lines = fano_actions()
    assert group_from_gens(points).order == 168
    assert group_from_gens(lines).order == 168


def test_fano_actions_match_the_matrix_oracle():
    points, lines = fano_actions()
    assert (points, lines) == fano_oracle()
    assert [g.images for g in points] == [(5, 0, 6, 1, 3, 2, 4), (0, 5, 6, 3, 4, 1, 2)]
    assert [g.images for g in lines] == [(3, 0, 4, 5, 1, 6, 2), (0, 1, 2, 5, 6, 3, 4)]


def test_fano_generators_preserve_incidence():
    points, lines = fano_actions()

    def bits(label):
        return ((label >> 2) & 1, (label >> 1) & 1, label & 1)

    for gp, gl in zip(points, lines):
        for v in range(7):
            for w in range(7):
                before = sum(a * b for a, b in zip(bits(v + 1), bits(w + 1))) % 2
                gv, gw = gp.act(v), gl.act(w)
                after = sum(a * b for a, b in zip(bits(gv + 1), bits(gw + 1))) % 2
                assert before == after


def test_group_cap():
    # S_8 has 40320 elements: 100 of degree 8 fit, the 101st does not
    with field_cap_scope(100 * 8), pytest.raises(CapExceededError, match="of size 808 exceeds cap 800"):
        group_from_gens([C("(1 2 3 4 5 6 7 8)"), C("(1 2)", 8)])


def test_refused_closure_forms_products_within_the_cap():
    # 20 generators of degree 100: the fourth step's 8000 frontier rows have
    # 160000 products, 64 MB formed at once (206 MB peak); under a 2^20-entry
    # cap they are formed 524 rows, 4 MB, at a time
    rng = random.Random(26)
    gens = [random_perm(rng, 100) for _ in range(20)]
    tracemalloc.start()
    try:
        with field_cap_scope(2**20), pytest.raises(CapExceededError, match="of size 1048600 exceeds"):
            PermGroup(100, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak


def test_chunked_closure_keeps_the_element_order():
    # S_5 from its 10 transpositions under the tightest cap: 12 frontier rows
    # at a time, where the frontier after two steps holds 35
    gens = [C(f"({i} {j})", 5) for i, j in itertools.combinations(range(1, 6), 2)]
    whole = PermGroup(5, gens)
    with field_cap_scope(120 * 5):
        chunked = PermGroup(5, gens)
    assert whole.order == 120
    assert np.array_equal(chunked.element_array, whole.element_array)
    assert chunked.element_array.tolist() == [list(g.images) for g in closure_oracle(5, gens)]


def test_closure_counts_order_times_degree_against_the_field_cap():
    with field_cap_scope(120):
        assert group_from_gens([C("(1 2 3 4 5 6 7 8 9 10)")]).order == 10
        with pytest.raises(CapExceededError, match="group element array of size 121"):
            group_from_gens([C("(1 2 3 4 5 6 7 8 9 10 11)")])
    with field_cap_scope(49):
        assert cyclic_cover_model(7, 2).group.order == 7
        with pytest.raises(CapExceededError, match="of size 81"):
            cyclic_cover_model(9, 2)  # refused before any permutation is built
        with pytest.raises(CapExceededError, match="of size 50"):
            dickson_cover_model(5, 2)  # the model passes, its closure does not


def test_analyze_dihedral_5():
    info = analyze_rep(dickson_cover_model(5, 3).group)
    assert info["transitive"]
    assert info["primitive"]
    assert not info["doubly_transitive"]
    assert info["self_normalizing"]


def test_analyze_cyclic_4_regular():
    info = analyze_rep(group_from_gens([C("(1 2 3 4)")]))
    assert info["transitive"]
    assert not info["primitive"]  # blocks {1,3},{2,4}
    assert not info["self_normalizing"]  # regular abelian centralizes itself


def test_analyze_affine_sign_group_on_nine_points():
    # maps x -> +-x + v on pairs over Z/3; parallel lines form blocks
    def aff(mult, v0, v1):
        images = []
        for i in range(9):
            x, y = divmod(i, 3)
            images.append(((mult * x + v0) % 3) * 3 + ((mult * y + v1) % 3))
        return Perm(tuple(images))

    G = group_from_gens([aff(1, 1, 0), aff(1, 0, 1), aff(-1, 0, 0)])
    assert G.order == 18
    info = analyze_rep(G)
    assert info["transitive"]
    assert not info["primitive"]


def test_analyze_fano_points_two_transitive():
    points, _ = fano_actions()
    info = analyze_rep(group_from_gens(points))
    assert info["doubly_transitive"]
    assert info["primitive"]
    assert info["self_normalizing"]


# -- the analysis against the generator oracle ---------------------------------


def primitive_oracle(gens, n):
    """For each b, grow the finest G-congruence gluing 0 to b by union-find."""
    for b in range(1, n):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        work = [(0, b)]
        parent[find(b)] = find(0)
        while work:
            x, y = work.pop()
            for g in gens:
                gx, gy = find(g.act(x)), find(g.act(y))
                if gx != gy:
                    parent[gx] = gy
                    work.append((gx, gy))
        if sum(1 for x in range(n) if find(x) == find(0)) < n:
            return False
    return True


def equivariant_map(gens, base, target):
    """Propagate c(base)=target through c(x^g)=c(x)^g; None on conflict."""
    c = {base: target}
    queue = [base]
    while queue:
        x = queue.pop()
        for g in gens:
            y, cy = g.act(x), g.act(c[x])
            if y in c:
                if c[y] != cy:
                    return None
            else:
                c[y] = cy
                queue.append(y)
    return c if len(set(c.values())) == len(c) else None


def centralizer_trivial_oracle(gens, n):
    """No nontrivial equivariant bijection between orbits of equal size.

    Such a bijection, paired with its inverse and extended by the identity,
    centralizes G; a nontrivial centralizing permutation restricts to one.
    """
    labels = _orbit_labels([g.images for g in gens], n)
    orbits = [[x for x in range(n) if labels[x] == k] for k in sorted(set(labels))]
    for i, A in enumerate(orbits):
        for j, B in enumerate(orbits):
            if len(A) != len(B):
                continue
            for target in B:
                if (i, target) == (j, A[0]):
                    continue  # propagates to the identity on A
                if equivariant_map(gens, A[0], target) is not None:
                    return False
    return True


def analyze_oracle(G):
    """analyze_rep from the generators: orbit search, blocks, fiber tensor."""
    gens = G.generators or (Perm.identity(G.degree),)
    n = G.degree
    transitive = set(_orbit_labels([g.images for g in gens], n)) == {0}
    return {
        "transitive": transitive,
        "primitive": transitive and primitive_oracle(gens, n),
        "doubly_transitive": n >= 2
        and component_count(fiber_tensor(gens, gens), off_diagonal=True) == 1,
        "self_normalizing": centralizer_trivial_oracle(gens, n),
    }


def ambient_groups():
    """Transitive groups of degree 1-9: affine, symmetric, plane, wreath."""
    out = []
    for n in range(1, 10):
        units = [a for a in range(1, n) if math.gcd(a, n) == 1] or [0]
        affine = [Perm(tuple((a * x + 1) % n for x in range(n))) for a in units]
        out.append(PermGroup(n, affine))
    for n in range(2, 6):
        out.append(PermGroup(n, [C("(1 2)", n), Perm(tuple((i + 1) % n for i in range(n)))]))
    out.append(group_from_gens(fano_actions()[0]))
    # S_a wr S_b on blocks {i*a .. i*a + a-1}: S_a on the first block, S_b on blocks
    for a, b in ((2, 2), (2, 3), (3, 2), (2, 4)):
        first = [C("(1 2)", a * b), C("(" + " ".join(map(str, range(1, a + 1))) + ")", a * b)]
        blocks = [Perm(tuple((x + a) % (a * b) for x in range(a * b)))]
        swap = list(range(a * b))
        swap[:2 * a] = swap[a:2 * a] + swap[:a]
        out.append(group_from_gens(first + blocks + [Perm(tuple(swap))]))
    return out


def random_group(rng, ambient):
    """A seeded random group of degree 1-9: trivial, one block or two blocks.

    A block action is up to three random elements of an ambient group,
    relabeled by a random permutation.  Two blocks act in parallel; half of
    the time the second repeats the first under a relabeling, so that the
    two orbits are equivalent and the centralizer is nontrivial.
    """
    shape = rng.choice(("trivial", "one", "two"))
    if shape == "trivial":
        return PermGroup(rng.randrange(1, 10), ())

    def block(A, k):
        s = random_perm(rng, A.degree)
        return [conj(random_element(rng, A), s) for _ in range(k)]

    k = rng.randrange(1, 4)
    A = rng.choice([G for G in ambient if shape == "one" or G.degree <= 8])
    first = block(A, k)
    if shape == "one":
        return PermGroup(A.degree, first)
    if A.degree <= 4 and rng.random() < 0.5:
        s = random_perm(rng, A.degree)
        second = [conj(g, s) for g in first]
    else:
        second = block(rng.choice([G for G in ambient if G.degree <= 9 - A.degree]), k)
    return PermGroup(first[0].degree + second[0].degree, fiber_sum(first, second))


def test_analysis_matches_generator_oracle_on_random_groups():
    rng = random.Random(15)
    ambient = ambient_groups()
    seen = {key: set() for key in ("transitive", "primitive", "doubly_transitive", "self_normalizing")}
    for _ in range(2000):
        G = random_group(rng, ambient)
        info = analyze_rep(G)
        assert info == analyze_oracle(G), [g.images for g in G.generators]
        for key, value in info.items():
            seen[key].add(value)
    assert all(values == {True, False} for values in seen.values())


def regular_groups():
    """Regular groups: cyclic of every degree 1-16 and some primes past it,
    and the Klein four, (Z/3)^2 and S_3 acting on themselves."""
    out = [PermGroup(n, [Perm(tuple((x + 1) % n for x in range(n)))]) for n in range(1, 17)]
    out += [cyclic_cover_model(n, 2).group for n in (17, 31, 61)]
    out.append(PermGroup(4, [Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1))]))
    out.append(PermGroup(9, [Perm(tuple(x // 3 * 3 + (x + 1) % 3 for x in range(9))),
                             Perm(tuple((x + 3) % 9 for x in range(9)))]))
    s3 = sorted(itertools.permutations(range(3)))

    def left(g):
        return Perm(tuple(s3.index(tuple(g[h[i]] for i in range(3))) for h in s3))

    out.append(PermGroup(6, [left((1, 0, 2)), left((1, 2, 0))]))
    return out


def test_regular_groups_are_primitive_exactly_at_prime_degree():
    for G in regular_groups():
        n = G.degree
        assert len(G.element_array) == n
        info = analyze_rep(G)
        assert info == analyze_oracle(G), n
        assert info["primitive"] == (n == 1 or all(n % d for d in range(2, n))), n


@pytest.mark.parametrize("n", [5, 9, 15, 499])
def test_analysis_matches_generator_oracle_on_models(n):
    for M in (cyclic_cover_model(n, 2), dickson_cover_model(n, 2)):
        assert analyze_rep(M.group) == analyze_oracle(M.group)


# -- coset exceptionality -----------------------------------------------------


def test_cyclic_model_matches_gcd_law():
    M = cyclic_cover_model(5, 3)
    assert M.d == 4
    assert coset_exceptionality(M) == from_residues(4, {1, 2, 3})


def test_dickson_model_odd_exponents():
    M = dickson_cover_model(5, 3)
    # multiplication by 9 = -1 already lies in the signed translations
    assert M.d == 2
    assert coset_exceptionality(M) == from_residues(2, {1})


def test_cyclic_model_various():
    # q^t = 1 mod n exactly when ord_n(q) | t
    M = cyclic_cover_model(7, 3)  # ord_7(3) = 6
    got = coset_exceptionality(M)
    for t in range(1, 19):
        assert got.contains(t) == (pow(3, t, 7) != 1)


def test_pr_mode_with_global_fixed_point():
    # append a letter fixed by everything: pr-exceptionality at every t
    base = cyclic_cover_model(5, 2)
    gens = [Perm(g.images + (5,)) for g in base.group.generators]
    tau = Perm(base.tau.images + (5,))
    M = MonodromyData(group_from_gens(gens), tau)
    assert coset_exceptionality(M, "pr-exceptional") == from_residues(1, {0})
    # but exact-one fails at t = 0 since the identity fixes all six
    assert not coset_exceptionality(M, "exceptional").contains(M.d)


def test_doubly_transitive_with_trivial_tau_is_never_exceptional():
    points, _ = fano_actions()
    M = MonodromyData(group_from_gens(points), Perm.identity(7))
    assert M.d == 1
    assert coset_exceptionality(M).is_empty()


def test_tau_must_normalize():
    G = group_from_gens([C("(1 2)", 3)])
    with pytest.raises(ValidationError):
        MonodromyData(G, C("(1 3)", 3))


def test_paired_tau_must_normalize():
    gens = [C("(1 2)", 3)]
    with pytest.raises(ValidationError, match="paired group"):
        PairedMonodromy.from_parallel(gens, gens, C("(1 3)", 3), Perm.identity(3))


def test_member_test_confirms_each_key_hit_with_the_whole_row():
    # a dihedral element is fixed by its images of 0 and 1, the key;
    # swapping two later images keeps that key but leaves the group
    E = dickson_cover_model(131, 3).group.element_array
    member = _member_test(E)
    assert all(member(row) for row in E)
    for row in E[::17]:
        other = row.copy()
        other[[-1, -2]] = other[[-2, -1]]
        assert not member(other)
    # the trivial group: one row, keyed by its first image
    ident = np.arange(5, dtype=np.int32)
    member = _member_test(ident[None, :])
    assert member(ident) and not member(ident[::-1].copy())
    # every row fixes 0 and 1, so the key runs past them to column 2
    E = np.array([[0, 1, 2, 3, 4], [0, 1, 3, 4, 2], [0, 1, 4, 2, 3]], dtype=np.int32)
    member = _member_test(E)
    assert all(member(row) for row in E)
    assert not member(np.array([0, 1, 2, 4, 3], dtype=np.int32))


def test_member_test_holds_no_copy_of_the_rows():
    E = cyclic_cover_model(1021, 2).group.element_array
    tracemalloc.start()
    try:
        member = _member_test(E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one column tells the translations apart: 1021 keys of 4 bytes
    assert peak < E.nbytes // 20
    assert member(E[7]) and not member(E[7][::-1].copy())


def test_orbit_labels_number_orbits_by_least_point():
    swap01 = [1, 0, 2, 3, 4, 5]
    cycle345 = [0, 1, 2, 4, 5, 3]
    assert _orbit_labels([swap01, cycle345], 6) == [0, 0, 1, 2, 2, 2]
    assert _orbit_labels([], 3) == [0, 1, 2]


# -- the element array against the scalar oracle ------------------------------


def coset_oracle(M, mode):
    """coset_exceptionality element by element, from coset and fixed_count."""
    ok = (lambda c: c == 1) if mode == "exceptional" else (lambda c: c >= 1)
    passing = {t for t in range(M.d) if all(ok(h.fixed_count()) for h in coset(M, t))}
    return from_residues(M.d, passing)


def seeded_models(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, q = rng.randrange(1, 40), rng.randrange(2, 60)
        if math.gcd(n, q) != 1:
            continue
        out.append(cyclic_cover_model(n, q))
        if n >= 3 and n % 2:
            out.append(dickson_cover_model(n, q))
    return out


@pytest.mark.parametrize("mode", ["exceptional", "pr-exceptional"])
def test_coset_pass_matches_oracle_on_seeded_models(mode):
    for M in seeded_models(7, 60):
        assert coset_exceptionality(M, mode) == coset_oracle(M, mode), M


def edge_model(gens, tau):
    return MonodromyData(group_from_gens(gens), tau)


EDGE_MODELS = [
    pytest.param(edge_model([C("()", 3)], Perm.identity(3)), id="trivial-d1"),
    pytest.param(edge_model([C("()", 3)], C("(1 2 3)", 3)), id="trivial-d3"),
    pytest.param(edge_model([C("()", 1)], Perm.identity(1)), id="degree1"),
    pytest.param(
        edge_model([Perm.from_one_line([1])], Perm.from_one_line([1])),
        id="degree1-one-line",
    ),
    pytest.param(
        edge_model([C("(1 2 3 4 5)", 5)], Perm.from_one_line([1, 3, 5, 2, 4])),
        id="cyclic5",
    ),
    pytest.param(
        edge_model([C("(1 2)(3 4)", 4), C("(1 3)(2 4)", 4)], Perm.identity(4)),
        id="klein-d1",
    ),
    pytest.param(
        edge_model([C("(1 2)(3 4)", 4), C("(1 3)(2 4)", 4)], C("(2 3 4)", 4)),
        id="klein-d3",
    ),
    pytest.param(
        edge_model([C("(1 2 3)", 6)], C("(1 2)(4 5 6)", 6)), id="intransitive"
    ),
    # a letter fixed by everything: pr-exceptional everywhere, never exceptional
    pytest.param(
        edge_model([C("(1 2 3 4 5)", 6)], Perm.from_one_line([1, 3, 5, 2, 4, 6])),
        id="global-fixed-point",
    ),
]


@pytest.mark.parametrize("M", EDGE_MODELS)
@pytest.mark.parametrize("mode", ["exceptional", "pr-exceptional"])
def test_coset_pass_matches_oracle_on_edge_models(M, mode):
    assert coset_exceptionality(M, mode) == coset_oracle(M, mode)


def test_element_array_matches_elements_and_is_built_once():
    M = dickson_cover_model(7, 3)
    G = M.group
    E = G.element_array
    assert E.dtype == np.int32
    assert E.shape == (G.order, G.degree)
    assert E.tolist() == [list(g.images) for g in elements(G)]
    assert not E.flags.writeable
    coset_exceptionality(M)
    coset_exceptionality(M, "pr-exceptional")
    assert G.element_array is E
    trivial = group_from_gens([Perm.identity(1)])
    assert trivial.element_array.tolist() == [[0]]


# -- Fried's criterion and the array closure against their oracles -----------


def coset_pass(M):
    """Mode "exceptional" counted out coset by coset, whatever the group."""
    passing = {t for t, counts in _coset_fixes(M) if (sum(counts) == 1).all()}
    return from_residues(M.d, passing)


def test_fried_criterion_matches_coset_pass_on_models():
    count = 0
    for n in range(1, 60):
        for q in range(2, 40):
            if math.gcd(n, q) != 1:
                continue
            models = [cyclic_cover_model(n, q)]
            if n >= 3 and n % 2:
                models.append(dickson_cover_model(n, q))
            for M in models:
                assert _suborbit_cycles(M.group, M.tau_row) is not None
                assert coset_exceptionality(M) == coset_pass(M), (n, q, M.group.order)
                count += 1
    assert count == 2266  # 2,228 with n >= 2, and the 38 of degree 1


def closure_within(n, gens, most=400):
    """PermGroup(n, gens), or None when it has more than `most` elements."""
    try:
        with field_cap_scope(most * n):
            return PermGroup(n, gens)
    except CapExceededError:
        return None


def random_normalized(rng, ambient, most=400):
    """A seeded random group of degree 1-9 with a tau that normalizes it.

    One block: conjugates of random elements of an ambient group under
    the powers of tau, which is mostly an element of the same ambient group
    and sometimes any permutation, all relabeled.  Two blocks: the direct
    product of two such groups, an intransitive group normalized by the
    block sum of the two taus.  Groups over most elements are drawn again.
    """

    def one(A):
        tau = random_element(rng, A) if rng.random() < 0.8 else random_perm(rng, A.degree)
        base = [random_element(rng, A) for _ in range(rng.randrange(0, 3))]
        gens = [conj(g, tau ** i) for g in base for i in range(tau.order())]
        s = random_perm(rng, A.degree)
        return [conj(g, s) for g in gens], conj(tau, s)

    while True:
        if rng.random() < 0.8:
            A = rng.choice(ambient)
            n, (gens, tau) = A.degree, one(A)
        else:
            A = rng.choice([G for G in ambient if G.degree <= 8])
            B = rng.choice([G for G in ambient if G.degree <= 9 - A.degree])
            (gens1, tau1), (gens2, tau2) = one(A), one(B)
            one1, one2 = Perm.identity(A.degree), Perm.identity(B.degree)
            gens = [block_sum(g, one2) for g in gens1] + [block_sum(one1, g) for g in gens2]
            n, tau = A.degree + B.degree, block_sum(tau1, tau2)
        G = closure_within(n, gens, most)
        if G is not None:
            return MonodromyData(G, tau)


def test_fried_criterion_matches_coset_pass_on_random_models():
    rng = random.Random(17)
    ambient = ambient_groups()
    outcomes = set()
    for _ in range(2400):
        M = random_normalized(rng, ambient)
        G, n = M.group, M.group.degree
        transitive = set(_orbit_labels([g.images for g in G.generators], n)) == {0}
        # intransitive groups take the coset pass
        assert (_suborbit_cycles(G, M.tau_row) is None) == (not transitive)
        got = coset_exceptionality(M)
        assert got == coset_pass(M), ([g.images for g in G.generators], M.tau.images)
        # on a transitive group pr-exceptional takes Fried's criterion too
        pr = coset_exceptionality(M, "pr-exceptional")
        assert pr == coset_oracle(M, "pr-exceptional"), ([g.images for g in G.generators], M.tau.images)
        assert pr == got or not transitive
        images = {g.images for g in elements(G)}
        assert M.d == min(d for d in range(1, M.tau.order() + 1) if (M.tau ** d).images in images)
        outcomes.add((transitive, got.is_empty(), got.modulus > 1))
    # (transitive, empty, modulus > 1): every shape of answer on both paths
    assert outcomes == {(True, True, False), (True, False, False), (True, False, True),
                        (False, True, False), (False, False, True)}


def closure_oracle(degree, gens):
    """The element list of a Perm-by-Perm breadth-first closure."""
    ident = Perm.identity(degree)
    elements, seen, frontier = [ident], {ident.images}, [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                w = h * g
                if w.images not in seen:
                    seen.add(w.images)
                    elements.append(w)
                    nxt.append(w)
        frontier = nxt
    return elements


def test_closure_order_matches_perm_closure_on_random_groups():
    rng = random.Random(16)
    ambient = ambient_groups()
    for _ in range(2000):
        G = random_group(rng, ambient)
        want = closure_oracle(G.degree, G.generators)
        assert elements(G) == tuple(want), [g.images for g in G.generators]
        assert G.element_array.tolist() == [list(g.images) for g in want]
        assert G.order == len(G) == len(want)
        images = {g.images for g in want}
        for h in [random_perm(rng, G.degree) for _ in range(3)] + want[-2:]:
            assert contains(G, h) == (h.images in images)


def test_fried_criterion_on_a_large_cyclic_model():
    # 2 has order 2052 mod 2053, so only t divisible by 2052 fails; the coset
    # pass would take d = 2052 gathers of a 2053 x 2053 array here
    M = cyclic_cover_model(2053, 2)
    assert M.d == 2052
    assert coset_exceptionality(M) == from_residues(2052, range(1, 2052))


def trace_oracle(P, agree):
    """The trace tests element by element, through fix_pair."""
    passing = set()
    for t in range(P.d):
        if P.swaps and t % 2 == 1:
            continue
        tt = P.tau ** t
        if all(agree(*fix_pair(P, g * tt)) for g in elements(P.group)):
            passing.add(t)
    return from_residues(P.d, passing)


def davenport_oracle(P):
    return trace_oracle(P, lambda a, b: (a > 0) == (b > 0))


def idp_oracle(P):
    return trace_oracle(P, lambda a, b: a == b)


def random_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Perm(tuple(images))


def conj(g, s):
    return s.inverse() * g * s


def small_gens(rng, n):
    """One or two random permutations of degree n generating at most 400 elements."""
    while True:
        gens = [random_perm(rng, n) for _ in range(rng.choice((1, 2)))]
        if closure_within(n, gens) is not None:
            return gens


def random_pairs(seed, count):
    """Paired models of degree 3-8 per block, of three shapes.

    parallel: a group closed under conjugation by a random tau1, and its
    conjugate by a random s as the second action, so tau1 (+) tau1^s
    normalizes the pair.  cyclic: independent actions of one generator on
    blocks of unequal degree, with a centralizing tau of any exponents.
    swap: a group normalized by an involution s and its conjugate by s,
    under a block swap or a block swap times a diagonal element.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        shape = rng.choice(("parallel", "cyclic", "swap"))
        n = rng.randrange(3, 9)
        if shape == "parallel":
            tau1 = random_perm(rng, n)
            base = small_gens(rng, n)
            gens = [conj(g, tau1 ** i) for g in base for i in range(tau1.order())]
            if closure_within(n, gens) is None:
                continue
            s = random_perm(rng, n)
            out.append(
                PairedMonodromy.from_parallel(
                    gens, [conj(g, s) for g in gens], tau1, conj(tau1, s)
                )
            )
        elif shape == "cyclic":
            c1, c2 = random_perm(rng, n), random_perm(rng, rng.randrange(3, 9))
            a, b = rng.randrange(5), rng.randrange(5)
            out.append(PairedMonodromy.from_parallel([c1], [c2], c1 ** a, c2 ** b))
        else:
            images = list(range(n))
            for i in range(0, n - 1, 2):
                if rng.random() < 0.5:  # a random involution: disjoint swaps
                    images[i], images[i + 1] = i + 1, i
            s = Perm(tuple(images))
            base = small_gens(rng, n)
            gens = base + [conj(g, s) for g in base]  # s normalizes <gens>
            if closure_within(n, gens) is None:
                continue
            gens2 = [conj(g, s) for g in gens]
            tau = block_swap(n)
            if rng.random() < 0.5:
                h = elements(group_from_gens(gens))[-1]
                tau = block_sum(h, conj(h, s)) * tau
            out.append(PairedMonodromy(gens, gens2, tau))
    return out


def test_trace_passes_match_fix_pair_oracle():
    points, lines = fano_actions()
    fano = [
        PairedMonodromy.from_parallel(points, lines, Perm.identity(7), Perm.identity(7)),
        PairedMonodromy(points, lines, block_swap(7)),
    ]
    models = fano + random_pairs(11, 60)
    assert any(P.swaps for P in models) and any(P.d > 2 for P in models)
    assert any(P.n1 != P.n2 for P in models)
    for P in models:
        assert davenport_trace_test(P) == davenport_oracle(P)
        assert idp_trace_test(P) == idp_oracle(P)
        assert sdp_check(P) == (idp_oracle(P) == from_residues(1, {0}))


# -- fiber products -----------------------------------------------------------


def shift5():
    return Perm(tuple((i + 1) % 5 for i in range(5)))


def mult5(c):
    return Perm(tuple((i * c) % 5 for i in range(5)))


def test_component_count_cyclic_geometric():
    diag = fiber_tensor([shift5()], [shift5()])
    assert component_count(diag, off_diagonal=True) == 4
    assert component_count(diag) == 5  # diagonal included


def test_components_fuse_under_frobenius():
    diag = fiber_tensor([shift5()], [shift5()])
    tau = fiber_tensor([mult5(3)], [mult5(3)])
    assert component_count(diag + tau, off_diagonal=True) == 1


def test_component_count_dihedral():
    flip = Perm(tuple((-i) % 5 for i in range(5)))
    diag = fiber_tensor([shift5(), flip], [shift5(), flip])
    assert component_count(diag, off_diagonal=True) == 2


def test_component_count_rejects_diagonal_leak():
    leak = fiber_tensor([shift5()], [Perm.identity(5)])
    with pytest.raises(ValidationError):
        component_count(leak, off_diagonal=True)


def test_fiber_tensor_length_mismatch():
    with pytest.raises(ValidationError):
        fiber_tensor([shift5()], [])


def test_fiber_tensor_matches_the_letter_loop():
    rng = random.Random(22)
    for _ in range(300):
        pairs = [(rng.randrange(0, 9), rng.randrange(0, 9)) for _ in range(rng.randrange(1, 4))]
        gens1 = [random_perm(rng, n1) for n1, _ in pairs]
        gens2 = [random_perm(rng, n2) for _, n2 in pairs]
        assert fiber_tensor(gens1, gens2) == fiber_tensor_oracle(gens1, gens2), pairs


def test_fiber_tensor_refuses_a_product_past_the_cap_before_building_it():
    with field_cap_scope(30):
        assert len(fiber_tensor([shift5()], [Perm.identity(6)])[0].images) == 30
        with pytest.raises(CapExceededError, match="fiber product of size 35"):
            fiber_tensor([shift5()], [Perm.identity(7)])
    # a degree-2003 pair has 4.0e6 letters, 32 MB as int64: none of it is built
    n = 2003
    g = Perm(tuple((i + 1) % n for i in range(n)))
    tracemalloc.start()
    try:
        with field_cap_scope(n * n - 1), pytest.raises(CapExceededError) as err:
            fiber_tensor([g], [g])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.exit_code == 3
    assert peak < 2**20, peak


# -- paired trace tests ---------------------------------------------------------


def test_identical_pair_passes_everything():
    g = C("(1 2 3 4 5)")
    P = PairedMonodromy.from_parallel([g], [g], mult5(2), mult5(2))
    assert davenport_trace_test(P) == from_residues(1, {0})
    assert idp_trace_test(P) == from_residues(1, {0})
    assert sdp_check(P)


def test_regular_versus_quotient_fails_range_test():
    # order-2 element: no fixed points regularly, two on the quotient
    P = PairedMonodromy.from_parallel(
        [C("(1 2 3 4)")], [C("(1 2)")], Perm.identity(4), Perm.identity(2)
    )
    assert P.d == 1
    assert davenport_trace_test(P).is_empty()
    assert idp_trace_test(P).is_empty()
    assert not sdp_check(P)


def test_fano_pair_is_isovalent_as_plain_pair():
    points, lines = fano_actions()
    P = PairedMonodromy.from_parallel(
        points, lines, Perm.identity(7), Perm.identity(7)
    )
    assert P.d == 1
    assert idp_trace_test(P) == from_residues(1, {0})
    assert sdp_check(P)


def test_fano_pair_with_duality_swap_is_not_strong():
    points, lines = fano_actions()
    P = PairedMonodromy(points, lines, block_swap(7))
    assert P.swaps
    assert P.d == 2
    got = idp_trace_test(P)
    assert got == from_residues(2, {0})
    assert not sdp_check(P)


def test_paired_blocks_match_the_block_sum_oracle():
    rng = random.Random(23)
    points, lines = fano_actions()
    P = PairedMonodromy(points, lines, block_swap(7))
    assert P.group.generators == tuple(fiber_sum(points, lines))
    for _ in range(100):
        c1, c2 = random_perm(rng, rng.randrange(1, 9)), random_perm(rng, rng.randrange(1, 9))
        a, b = rng.randrange(5), rng.randrange(5)
        P = PairedMonodromy.from_parallel([c1], [c2], c1 ** a, c2 ** b)
        assert P.group.generators == (block_sum(c1, c2),)
        assert P.tau == block_sum(c1 ** a, c2 ** b)
        assert P.tau_row.tolist() == list(P.tau.images)


def test_models_share_one_type_and_groups_keep_only_their_arrays():
    points, lines = fano_actions()
    one = Perm.identity(7)
    pairs = [PairedMonodromy(points, lines, block_swap(7)),
             PairedMonodromy.from_parallel(points, lines, one, one)]
    counts = set()
    for P in pairs:
        assert isinstance(P, MonodromyData)
        # the whole-group readers sum the pass's two blocks
        plain = MonodromyData(P.group, P.tau)
        for mode in ("exceptional", "pr-exceptional"):
            assert coset_exceptionality(P, mode) == coset_exceptionality(plain, mode)
        assert stable_component_count(P) == stable_component_count(plain)
        counts.add(stable_component_count(P))
    assert counts == {0, 6}  # under the swap, and under the identity
    M = cyclic_cover_model(7, 3)
    for G in (pairs[0].group, M.group):
        assert set(vars(G)) == {"degree", "generators", "generator_array", "element_array"}


def test_partial_swap_rejected():
    points, lines = fano_actions()
    bad = Perm(tuple([7] + list(range(1, 7)) + [0] + list(range(8, 14))))
    with pytest.raises(ValidationError):
        PairedMonodromy(points, lines, bad)
