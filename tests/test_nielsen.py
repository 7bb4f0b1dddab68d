import tracemalloc

import numpy as np
import pytest

from excov import nielsen
from excov.errors import CapExceededError, InternalInvariantError, ValidationError, field_cap_scope
from excov.grouptheory import Perm, PermGroup, _orbit_labels, group_from_gens
from excov.nielsen import (
    ModularClasses,
    NielsenTuple,
    _primitive_root,
    braid_act,
    braid_orbit,
    cyclic_branch_pair,
    dickson_branch_triple,
    dickson_tower_cycles,
    modular_nielsen,
    modular_tuple_perms,
    rh_genus,
)


def C(text, n):
    return Perm.from_cycles(text, n)


def elements(group: PermGroup) -> list[Perm]:
    return [Perm(tuple(row)) for row in group.element_array.tolist()]


def _class_of(rep: Perm, group: PermGroup) -> frozenset:
    return frozenset((h.inverse() * rep * h).images for h in elements(group))


def validate_tuple(t: NielsenTuple, class_reps=None) -> list[str]:
    """Empty list when the tuple is a branch cycle description for its group.

    class_reps pins the multiset of conjugacy classes the entries must lie
    in (cycle type alone does not identify a class outside the symmetric
    group); by default the entries fingerprint themselves.
    """
    problems = []
    if not t.product().is_identity():
        problems.append("product-one fails: entries do not multiply to the identity")
    members = {g.images for g in elements(t.group)}
    if any(g.images not in members for g in t.perms):
        problems.append("generation fails: an entry lies outside the declared group")
    else:
        # entries inside the group, so this closure is bounded by its order
        generated = group_from_gens(list(t.perms))
        if generated.order != t.group.order:
            problems.append(
                f"generation fails: entries generate order {generated.order}, "
                f"declared group has order {t.group.order}"
            )
    reps = class_reps if class_reps is not None else t.perms
    if len(reps) != t.r:
        problems.append("class-membership fails: fingerprint length mismatch")
    else:
        classes = [_class_of(rep, t.group) for rep in reps]
        unused = list(range(t.r))
        for g in t.perms:
            hit = next((j for j in unused if g.images in classes[j]), None)
            if hit is None:
                problems.append(
                    f"class-membership fails: {g} lies in no declared class"
                )
                break
            unused.remove(hit)
    return problems


def _cycle_lengths(g: Perm) -> tuple[int, ...]:
    return tuple(sorted(len(c) for c in g.cycles()))


# -- validation -----------------------------------------------------------------


def test_dickson_triple_entries():
    t = dickson_branch_triple(5)
    assert t.perms[0] == C("(1 5)(2 4)", 5)
    assert t.perms[1] == C("(5 2)(4 3)", 5)
    assert (t.perms[0] * t.perms[1]) == C("(1 2 3 4 5)", 5)
    assert t.group.order == 10


def test_branch_tuples_refuse_outsized_degrees_before_building(monkeypatch):
    # any permutation built is a TypeError
    monkeypatch.setattr(nielsen, "Perm", None)
    monkeypatch.setattr(nielsen, "_perms", None)
    with field_cap_scope(48):
        for family in (cyclic_branch_pair, dickson_branch_triple):
            with pytest.raises(CapExceededError, match="of size 49"):
                family(7)


def test_dickson_triple_validates():
    assert validate_tuple(dickson_branch_triple(5)) == []
    assert validate_tuple(dickson_branch_triple(7)) == []


def test_product_one_violation():
    g = C("(1 2)", 2)
    t = NielsenTuple((g, g, g), group_from_gens([g]))
    problems = validate_tuple(t)
    assert len(problems) == 1 and "product-one" in problems[0]


def test_generation_violation():
    s4 = group_from_gens([C("(1 2 3 4)", 4), C("(1 2)", 4)])
    g = C("(1 2)(3 4)", 4)
    problems = validate_tuple(NielsenTuple((g, g), s4))
    assert any("generation" in p for p in problems)
    assert not any("product-one" in p for p in problems)


def test_outside_group_flagged_without_blowup():
    z2 = group_from_gens([C("(1 2)", 4)])
    t = NielsenTuple((C("(1 2 3 4)", 4), C("(1 4 3 2)", 4)), z2)
    assert any("generation" in p for p in validate_tuple(t))


def test_class_membership_violation():
    s3 = group_from_gens([C("(1 2 3)", 3), C("(1 2)", 3)])
    t = NielsenTuple((C("(1 2 3)", 3), C("(1 3 2)", 3)), s3)
    problems = validate_tuple(t, class_reps=(C("(1 2)", 3), C("(1 2)", 3)))
    assert any("class-membership" in p for p in problems)


def test_class_membership_needs_conjugacy_not_just_cycle_type():
    # inside an abelian group distinct 3-cycles are not conjugate
    s = C("(1 2 3)", 3)
    z3 = group_from_gens([s])
    t = NielsenTuple((s, s, s), z3)
    assert validate_tuple(t, class_reps=(s, s, s)) == []
    bad = validate_tuple(t, class_reps=(s, s, s.inverse()))
    assert any("class-membership" in p for p in bad)


# -- genus ----------------------------------------------------------------------


def test_genus_dickson_triples_zero():
    for n in range(3, 16, 2):
        assert rh_genus(dickson_branch_triple(n)) == 0


def test_genus_cyclic_pairs_zero():
    for n in range(2, 12):
        assert rh_genus(cyclic_branch_pair(n)) == 0


def test_genus_point_reflection_tuples_zero():
    # each involution on p^2 letters keeps one point, giving index p^2-1-...
    for p in (3, 5):
        t = modular_tuple_perms(p, 0, (1, 0), (0, 1))
        n = p * p
        for g in t.perms:
            assert g.fixed_count() == 1
            assert n - len(g.cycles()) - g.fixed_count() == (n - 1) // 2
        assert rh_genus(t) == 0


def test_genus_intransitive_rejected():
    g = C("(1 2)", 4)
    with pytest.raises(ValidationError, match="transitive"):
        rh_genus(NielsenTuple((g, g), group_from_gens([g])))


def test_genus_odd_index_sum_rejected():
    t = NielsenTuple(
        (C("(1 2)", 3), C("(1 2 3)", 3)),
        group_from_gens([C("(1 2)", 3), C("(1 2 3)", 3)]),
    )
    with pytest.raises(ValidationError, match="odd index"):
        rh_genus(t)


def test_genus_negative_rejected():
    s = C("(1 2 3)", 3)
    with pytest.raises(ValidationError, match="negative"):
        rh_genus(NielsenTuple((s,), group_from_gens([s])))


# -- braid moves ----------------------------------------------------------------


def test_braid_twist_formula():
    a, b, c = C("(1 2)", 3), C("(2 3)", 3), C("(1 3)", 3)
    t = NielsenTuple((a, b, c), group_from_gens([a, b]))
    out = braid_act(t, 1)
    assert out.perms == (a * b * a.inverse(), a, c)
    out2 = braid_act(t, 2)
    assert out2.perms == (a, b * c * b.inverse(), b)


def test_braid_index_range():
    t = dickson_branch_triple(5)
    with pytest.raises(ValidationError):
        braid_act(t, 0)
    with pytest.raises(ValidationError):
        braid_act(t, 3)


def test_two_twist_composite_on_tower_tuple():
    # apply the middle twist then the first: the third slot inherits the
    # original second entry and the head picks up a double conjugate
    tower = dickson_tower_cycles(3, 2)
    g11, g12, g21, g22, ginf = tower.perms
    out = braid_act(braid_act(tower, 2), 1)
    g2p = g12 * g21 * g12.inverse()
    g1p = g11 * g2p * g11.inverse()
    assert out.perms == (g1p, g11, g12, g22, ginf)


def test_braid_preserves_validity():
    t = dickson_branch_triple(5)
    for member in braid_orbit(t, equivalence="inner"):
        assert validate_tuple(member) == []
        assert {_cycle_lengths(g) for g in member.perms} == {
            _cycle_lengths(g) for g in t.perms
        }


def test_braid_orbit_representative_independent():
    t = dickson_branch_triple(5)
    orbit = braid_orbit(t, equivalence="inner")
    again = braid_orbit(orbit[-1], equivalence="inner")
    assert len(orbit) == len(again)
    key = lambda m: tuple(g.images for g in m.perms)
    assert sorted(map(key, orbit)) == sorted(map(key, again))


def test_plain_orbit_at_least_as_fine():
    t = dickson_branch_triple(5)
    plain = braid_orbit(t, equivalence="none")
    inner = braid_orbit(t, equivalence="inner")
    assert len(plain) >= len(inner)


# -- towers ---------------------------------------------------------------------


def test_tower_level_one_matches_base_triple():
    tower = dickson_tower_cycles(5, 1)
    assert tower.degree == 5
    assert tower.perms == dickson_branch_triple(5).perms


def test_tower_level_two_shape():
    t = dickson_tower_cycles(3, 2)
    assert t.degree == 9 and t.r == 5
    assert validate_tuple(t) == []
    closing = t.perms[-1]
    assert sorted(len(c) for c in closing.cycles()) == [3, 3, 3]
    # diagonal staircase: the full product advances both digits together
    forward = closing.inverse()
    assert forward.act(0) == 4 and forward.act(4) == 8 and forward.act(8) == 0


def tower_oracle(n, m):
    """The tower's entries letter by letter: each level's reflection pair
    moves one base-n digit, and the closing entry inverts the product."""
    N = n**m
    pair = [Perm(tuple((-i - 1) % n for i in range(n))), Perm(tuple((-i) % n for i in range(n)))]

    def lift(g, stride):
        return Perm(tuple(x + (g.act(x // stride % n) - x // stride % n) * stride for x in range(N)))

    entries = [lift(g, n**j) for j in range(m) for g in pair]
    prod = Perm.identity(N)
    for g in entries:
        prod = prod * g
    return tuple(entries) + (prod.inverse(),)


@pytest.mark.parametrize("n, levels", [(3, 2), (3, 3), (5, 1)])
def test_tower_entries_match_the_letter_loop(n, levels):
    assert dickson_tower_cycles(n, levels).perms == tower_oracle(n, levels)


def test_tower_genus_from_index_sum():
    # derived expectation: m levels of (n-1)/2-transposition pairs plus the
    # n-cycle closing entry
    for n, m in ((3, 2), (5, 2), (3, 3)):
        got = rh_genus(dickson_tower_cycles(n, m))
        ind = m * (n - 1) * n ** (m - 1) + n ** m - n ** (m - 1)
        assert got == ind // 2 - n ** m + 1
        assert got >= 0


def test_tower_rejects_even_or_tiny():
    with pytest.raises(ValidationError):
        dickson_tower_cycles(4, 2)
    with pytest.raises(ValidationError):
        dickson_tower_cycles(5, 0)


def test_tower_is_refused_before_any_perm_is_built(monkeypatch):
    # the group is transitive on N = n^levels letters, so its element array
    # holds at least N^2 entries: 3^16 > 2^24 is refused before any row
    monkeypatch.setattr(nielsen, "_perms", None)
    with field_cap_scope(2**24), pytest.raises(CapExceededError, match=r"of size 3\^16 exceeds"):
        dickson_tower_cycles(3, 8)
    with field_cap_scope(3**4 - 1), pytest.raises(CapExceededError, match=r"of size 3\^4 exceeds"):
        dickson_tower_cycles(3, 2)


def test_tower_closing_check_is_an_internal_invariant(monkeypatch):
    # two equal reflections multiply to one, so the closing entry fixes
    # every letter instead of forming n-cycles
    monkeypatch.setattr(nielsen, "_involution_pair", lambda n: (-np.arange(n) - np.array([[1], [1]])) % n)
    with pytest.raises(InternalInvariantError, match="closing entry") as err:
        dickson_tower_cycles(5, 2)
    assert err.value.exit_code == 4


# -- point-reflection classification ---------------------------------------------


def test_modular_sizes_are_guarded():
    with pytest.raises(ValidationError):
        modular_nielsen(5, 1)  # 25 letters per coordinate is past the guard
    with pytest.raises(ValidationError):
        modular_nielsen(9)
    with pytest.raises(ValidationError):
        modular_nielsen(2)


def test_modular_size_guard_runs_before_primality(monkeypatch):
    # a large p is refused by the cheap bounds, not after trial division
    def trial_division(n):
        raise AssertionError(f"primality of {n} tested before the size guard")

    monkeypatch.setattr(nielsen, "_is_prime", trial_division)
    with pytest.raises(ValidationError, match="size guard"):
        modular_nielsen(1_000_000_007)
    with pytest.raises(ValidationError, match="size guard"):
        modular_nielsen(3, 10**18)


def test_modular_rejects_arguments_that_are_not_ints(monkeypatch):
    def trial_division(n):
        raise AssertionError(f"primality of {n} tested before the type check")

    monkeypatch.setattr(nielsen, "_is_prime", trial_division)
    for args in ((3.0,), (3, True), (True,), ("3",), (3, 0.0), (1_000_000_007.0,)):
        with pytest.raises(ValidationError, match="must be an int"):
            modular_nielsen(*args)


def _modular_oracle(p: int, k: int) -> ModularClasses:
    """modular_nielsen as one Python loop over symbols, without the guards."""
    m = p ** (k + 1)

    def canon(v2, v3):
        neg = ((-v2[0]) % m, (-v2[1]) % m), ((-v3[0]) % m, (-v3[1]) % m)
        return min((v2, v3), neg)

    def mat_apply(mt, v):
        return ((mt[0] * v[0] + mt[1] * v[1]) % m, (mt[2] * v[0] + mt[3] * v[1]) % m)

    classes = set()
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    if (a * d - b * c) % p == 0:
                        continue  # differences fail to span
                    classes.add(canon((a, b), (c, d)))
    inner = sorted(classes)
    index = {v: i for i, v in enumerate(inner)}

    def images(move) -> list[int]:
        return [index[move(v2, v3)] for v2, v3 in inner]

    braid_moves = [
        images(lambda v2, v3: canon(v2, ((v3[0] + v2[0]) % m, (v3[1] + v2[1]) % m))),
        images(lambda v2, v3: canon(((2 * v2[0] - v3[0]) % m, (2 * v2[1] - v3[1]) % m), v2)),
    ]
    g = _primitive_root(m, p)
    abs_moves = [
        images(lambda v2, v3: canon(mat_apply(mt, v2), mat_apply(mt, v3)))
        for mt in ((1, 1, 0, 1), (1, 0, 1, 1), (g, 0, 0, 1))
    ]
    tuples = []
    for v2, v3 in inner:
        v4 = ((v3[0] - v2[0]) % m, (v3[1] - v2[1]) % m)
        tuples.append(((0, 0), v2, v3, v4))
    return ModularClasses(
        p=p,
        k=k,
        tuples=tuple(tuples),
        inner_class_count=len(inner),
        inner_braid_orbit_count=len(set(_orbit_labels(braid_moves, len(inner)))),
        abs_class_count=len(set(_orbit_labels(abs_moves, len(inner)))),
    )


@pytest.mark.parametrize("p, k", [(3, 0), (5, 0), (7, 0), (3, 1), (11, 0), (13, 0)])
def test_modular_matches_loop_oracle(p, k):
    got, want = modular_nielsen(p, k), _modular_oracle(p, k)
    assert got.tuples == want.tuples  # same representatives in the same order
    assert got == want
    assert type(got.inner_class_count) is int
    assert all(type(x) is int for t in got.tuples for v in t for x in v)


def test_modular_moves_are_permutations(monkeypatch):
    # _orbit_labels grows orbits by forward images, right only on permutations
    seen = []

    def recording(images, n):
        seen.append((images, n))
        return _orbit_labels(images, n)

    monkeypatch.setattr(nielsen, "_orbit_labels", recording)
    for p, k in ((7, 0), (3, 1)):
        seen.clear()
        n = modular_nielsen(p, k).inner_class_count
        assert [len(images) for images, _ in seen] == [2, 3]  # braid, then absolute
        for images, size in seen:
            assert size == n
            for img in images:
                assert sorted(img) == list(range(n))


def test_modular_class_counts():
    out = modular_nielsen(3)
    # |GL2(F3)| / 2 distinct normalized spanning pairs
    assert out.inner_class_count == 48 // 2
    assert out.abs_class_count == 1
    assert out.inner_braid_orbit_count == 2


def test_modular_braid_orbits_grow_with_p():
    assert modular_nielsen(5).inner_braid_orbit_count == 4
    assert modular_nielsen(7).inner_braid_orbit_count == 6
    assert modular_nielsen(3, 1).inner_braid_orbit_count == 6


def test_modular_abs_always_single():
    for p, k in ((3, 0), (5, 0), (7, 0), (3, 1)):
        assert modular_nielsen(p, k).abs_class_count == 1


def test_modular_tuples_are_normalized():
    out = modular_nielsen(3, 1)
    m = 9
    assert out.inner_class_count == len(out.tuples)
    for v1, v2, v3, v4 in out.tuples:
        assert v1 == (0, 0)
        assert v4 == ((v3[0] - v2[0]) % m, (v3[1] - v2[1]) % m)
        assert (v2[0] * v3[1] - v2[1] * v3[0]) % 3 != 0


def _symbol_of(perms, m):
    """Recover the normalized (v2, v3) symbol from point-reflection perms."""
    raw = []
    for g in perms:
        v = g.act(0)  # reflection sends the origin to its vector
        raw.append((v // m, v % m))
    v1 = raw[0]
    shifted = [((a - v1[0]) % m, (b - v1[1]) % m) for a, b in raw]
    v2, v3 = shifted[1], shifted[2]
    neg = ((-v2[0]) % m, (-v2[1]) % m), ((-v3[0]) % m, (-v3[1]) % m)
    return min((v2, v3), neg)


def test_symbol_braid_maps_match_real_twists():
    # independent check of the symbol algebra: act on genuine permutations,
    # renormalize, and compare with the closed-form maps
    for p in (3, 5):
        m = p
        samples = [((1, 0), (0, 1)), ((1, 2 % m), (1, 1)), ((0, 1), (1, 0))]
        for v2, v3 in samples:
            t = modular_tuple_perms(p, 0, v2, v3)

            def expect_q1():
                return min(
                    (v2, ((v3[0] + v2[0]) % m, (v3[1] + v2[1]) % m)),
                    (
                        ((-v2[0]) % m, (-v2[1]) % m),
                        ((-v3[0] - v2[0]) % m, (-v3[1] - v2[1]) % m),
                    ),
                )

            def expect_q2():
                w2 = ((2 * v2[0] - v3[0]) % m, (2 * v2[1] - v3[1]) % m)
                return min(
                    (w2, v2),
                    (((-w2[0]) % m, (-w2[1]) % m), ((-v2[0]) % m, (-v2[1]) % m)),
                )

            assert _symbol_of(braid_act(t, 1).perms, m) == expect_q1()
            assert _symbol_of(braid_act(t, 2).perms, m) == expect_q2()
            assert _symbol_of(braid_act(t, 3).perms, m) == expect_q1()


def modular_perms_oracle(p, k, v2, v3):
    """Point reflections and unit translations of (Z/m)^2, letter by letter."""
    m = p ** (k + 1)

    def reflect(v):
        return Perm(tuple((v[0] - x) % m * m + (v[1] - y) % m for x in range(m) for y in range(m)))

    v4 = ((v3[0] - v2[0]) % m, (v3[1] - v2[1]) % m)
    shift_x = Perm(tuple(((x + 1) % m) * m + y for x in range(m) for y in range(m)))
    shift_y = Perm(tuple(x * m + (y + 1) % m for x in range(m) for y in range(m)))
    perms = tuple(reflect(v) for v in ((0, 0), v2, v3, v4))
    return perms, (perms[0], shift_x, shift_y)


@pytest.mark.parametrize("p", [3, 5])
def test_modular_tuple_perms_match_the_letter_loop(p):
    for _, v2, v3, _ in modular_nielsen(p, 0).tuples:
        t = modular_tuple_perms(p, 0, v2, v3)
        assert (t.perms, t.group.generators) == modular_perms_oracle(p, 0, v2, v3)


def test_modular_tuple_perms_validate():
    t = modular_tuple_perms(3, 0, (1, 0), (0, 1))
    assert t.group.order == 2 * 9
    assert validate_tuple(t) == []
    assert t.product().is_identity()


def test_modular_braid_count_against_generic_orbits():
    # the symbol count for p=3 must match orbits computed on raw tuples
    out = modular_nielsen(3)
    seen = set()
    orbits = 0
    for (_, v2, v3, _) in out.tuples:
        if (v2, v3) in seen:
            continue
        orbits += 1
        t = modular_tuple_perms(3, 0, v2, v3)
        for member in braid_orbit(t, equivalence="inner"):
            seen.add(_symbol_of(member.perms, 3))
    assert orbits == out.inner_braid_orbit_count


# -- array canonical forms against Perm products ------------------------------


def canonical_oracle(perms, conjugators):
    """The least (h^-1*g*h for g in perms) over conjugators, by Perm products."""
    return min(tuple((h.inverse() * g * h).images for g in perms) for h in conjugators)


def orbit_oracle(start, conjugators):
    """The sorted canonical keys of the braid orbit, by Perm products."""
    seen = {canonical_oracle(start.perms, conjugators)}
    queue = [start]
    while queue:
        cur = queue.pop()
        for i in range(1, cur.r):
            nxt = braid_act(cur, i)
            key = canonical_oracle(nxt.perms, conjugators)
            if key not in seen:
                seen.add(key)
                queue.append(nxt)
    return sorted(seen)


def array_key(perms, conjugators):
    conj = np.array([h.images for h in conjugators], dtype=np.int32)
    conj_inv = np.array([h.inverse().images for h in conjugators], dtype=np.int32)
    tup = np.array([g.images for g in perms], dtype=np.int32)
    key = nielsen._canonical(tup, conj, conj_inv)
    return tuple(map(tuple, np.frombuffer(key, ">i4").reshape(len(perms), -1).tolist()))


def orbit_keys(orbit):
    return [tuple(g.images for g in t.perms) for t in orbit]


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
def test_braid_keys_match_perm_products_on_dickson_triples(n):
    t = dickson_branch_triple(n)
    inner = elements(t.group)
    some = inner[1::3]  # a conjugator list that is not a group
    for member in braid_orbit(t, equivalence="none"):  # the twisted tuples themselves
        for conj in (inner, some):
            assert array_key(member.perms, conj) == canonical_oracle(member.perms, conj)
    for equivalence, conj in (("inner", inner), ("none", [Perm.identity(n)]), (some, some)):
        assert orbit_keys(braid_orbit(t, equivalence)) == orbit_oracle(t, conj)


@pytest.mark.parametrize("p, stride", [(3, 1), (5, 120)])
def test_braid_keys_match_perm_products_on_modular_tuples(p, stride):
    # a p = 5 orbit holds 60 classes, of 3000 tuples under no equivalence
    for _, v2, v3, _ in modular_nielsen(p).tuples[::stride]:
        t = modular_tuple_perms(p, 0, v2, v3)
        inner = elements(t.group)
        assert orbit_keys(braid_orbit(t)) == orbit_oracle(t, inner)
        for member in braid_orbit(t, equivalence="none")[:10]:
            assert array_key(member.perms, inner) == canonical_oracle(member.perms, inner)


@pytest.mark.parametrize("block", [1, 4, 7])
def test_braid_keys_over_blocks_of_conjugators_match_perm_products(monkeypatch, block):
    monkeypatch.setattr(nielsen, "_CONJ_BLOCK", block)
    t = dickson_branch_triple(9)
    inner = elements(t.group)
    for member in braid_orbit(t, equivalence="none"):
        assert array_key(member.perms, inner) == canonical_oracle(member.perms, inner)
    assert orbit_keys(braid_orbit(t)) == orbit_oracle(t, inner)
    # a cyclic group is abelian: every conjugator keeps to the last window
    pair = cyclic_branch_pair(9)
    inner = elements(pair.group)
    assert array_key(pair.perms, inner) == canonical_oracle(pair.perms, inner)
    assert orbit_keys(braid_orbit(pair)) == orbit_oracle(pair, inner)


def test_braid_keys_are_formed_in_blocks_of_conjugators():
    # all 1202 conjugates of a 601-letter triple at once held about 13 times
    # the element array at their peak, blocks of 256 conjugators about 3.6,
    # and windows of key columns of 32 conjugators' worth about 1.5
    t = dickson_branch_triple(601)
    size = t.group.element_array.nbytes
    tracemalloc.start()
    try:
        orbit = braid_orbit(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(orbit) == 3
    assert peak < 6 * size, peak / size


def test_braid_orbit_counts_its_entries_against_the_field_cap():
    # three classes of three 5-letter entries: 45 entries
    t = dickson_branch_triple(5)
    with field_cap_scope(45):
        assert len(braid_orbit(t)) == 3
    with field_cap_scope(44), pytest.raises(CapExceededError, match="braid orbit of size 45 exceeds cap 44"):
        braid_orbit(t)


def test_explicit_conjugators_are_checked():
    t = dickson_branch_triple(5)
    with pytest.raises(ValidationError):
        braid_orbit(t, equivalence=[])
    with pytest.raises(ValidationError):
        braid_orbit(t, equivalence=[Perm.identity(6)])
