"""Reference rules that every benchmark operation is checked against.

Everything here is plain integer arithmetic written for the benchmark.
Nothing is imported from excov, so a fault in the program cannot hide by
also breaking the rule that checks it.  Each ``check_*`` function returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math


# -- closed-form bijectivity rules ---------------------------------------------


def power_bijective(n: int, Q: int) -> bool:
    """x^n permutes P1(F_Q) iff gcd(n, Q - 1) = 1."""
    return math.gcd(n, Q - 1) == 1


def dickson_bijective(n: int, Q: int) -> bool:
    """D_n(x, a), a != 0, permutes P1(F_Q) iff gcd(n, Q^2 - 1) = 1."""
    return math.gcd(n, Q * Q - 1) == 1


def redei_bijective(n: int, q: int, t: int) -> bool:
    """The quotient twist of x^n by a non-square of F_q, over F_{q^t}.

    At odd t the twist parameter stays a non-square and the map acts on
    the norm-one circle of order q^t + 1; at even t it becomes a square
    and the map is conjugate to x^n itself.
    """
    Q = q**t
    return math.gcd(n, Q + 1 if t % 2 else Q - 1) == 1


def power_fibers(n: int, Q: int) -> dict[int, int]:
    """Fiber-size histogram of x^n on P1(F_Q): size -> number of targets.

    0 and infinity are their own fibers; the nonzero values form the
    subgroup of index d = gcd(n, Q - 1), each hit d times.
    """
    d = math.gcd(n, Q - 1)
    if d == 1:
        return {1: Q + 1}
    image = (Q - 1) // d
    return {0: Q - 1 - image, 1: 2, d: image}


def mult_order(a: int, m: int) -> int:
    """Least k >= 1 with a^k = 1 mod m; a must be a unit mod m."""
    if m == 1:
        return 1
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    a %= m
    k, x = 1, a
    while x != 1:
        x = x * a % m
        k += 1
    return k


def power_period(n: int, Q: int) -> int:
    """Order of the permutation x -> x^n of P1(F_Q), when it is one."""
    return mult_order(n, Q - 1)


def mul_orbit_count(n: int, q: int) -> int:
    """Orbits of c -> c*q on the nonzero residues mod n."""
    seen: set[int] = set()
    count = 0
    for c in range(1, n):
        if c in seen:
            continue
        count += 1
        x = c
        while x not in seen:
            seen.add(x)
            x = x * q % n
    return count


def gl2_order(p: int, j: int) -> int:
    """|GL_2(Z/p^j)|: 2x2 matrices whose determinant is a unit."""
    return p ** (4 * (j - 1)) * (p * p - 1) * (p * p - p)


# -- permutations given as image tuples (0-based) -------------------------------


def cycle_count(images) -> int:
    """Cycles of a permutation, fixed points included."""
    seen = [False] * len(images)
    count = 0
    for s in range(len(images)):
        if seen[s]:
            continue
        count += 1
        x = s
        while not seen[x]:
            seen[x] = True
            x = images[x]
    return count


def product_is_one(perms) -> bool:
    """Is g1 g2 ... gr the identity, each factor applied after the last?"""
    n = len(perms[0])
    for x in range(n):
        y = x
        for g in perms:
            y = g[y]
        if y != x:
            return False
    return True


def is_transitive(perms) -> bool:
    n = len(perms[0])
    orbit = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in perms:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return len(orbit) == n


def rh_genus(perms) -> int:
    """Riemann-Hurwitz: 2g - 2 = -2n + sum over entries of (n - #cycles)."""
    n = len(perms[0])
    index_sum = sum(n - cycle_count(g) for g in perms)
    return index_sum // 2 - n + 1


# -- character sums and elliptic curves -------------------------------------------


def legendre(v: int, p: int) -> int:
    v %= p
    if v == 0:
        return 0
    return 1 if pow(v, (p - 1) // 2, p) == 1 else -1


def poly_values(coeffs, p: int) -> list[int]:
    """f(x) mod p for x = 0..p-1, coefficients low to high."""
    out = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        out.append(acc)
    return out


def collision_count(coeffs, p: int) -> int:
    """N_f: ordered pairs x != y with f(x) = f(y)."""
    counts: dict[int, int] = {}
    for v in poly_values(coeffs, p):
        counts[v] = counts.get(v, 0) + 1
    return sum(c * (c - 1) for c in counts.values())


def curve_trace(a: tuple[int, int, int, int, int], ell: int) -> int:
    """a_ell = ell + 1 - #E(F_ell) by counting points of the Weierstrass form."""
    a1, a2, a3, a4, a6 = a
    affine = 0
    for x in range(ell):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % ell
        for y in range(ell):
            if (y * y + a1 * x * y + a3 * y - rhs) % ell == 0:
                affine += 1
    return ell + 1 - (affine + 1)


def isogeny_bijective(trace: int, ell: int, p: int, t: int) -> bool:
    """The degree-p^2 x-line map permutes P1(F_{ell^t}) iff neither
    1 - s_t + ell^t nor 1 + s_t + ell^t vanishes mod p."""
    s0, s1 = 2, trace
    for _ in range(t - 1):
        s0, s1 = s1, trace * s1 - ell * s0
    lt = ell**t
    return (1 - s1 + lt) % p != 0 and (1 + s1 + lt) % p != 0


# -- checks on whole scan results --------------------------------------------------


def check_series(got: list[bool], want: list[bool], what: str) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} extension degrees scanned, expected {len(want)}"]
    bad = [t for t, (g, w) in enumerate(zip(got, want), 1) if g != w]
    return [f"{what}: bijective flags wrong at t={bad}"] if bad else []


def check_fit(fitted, bijective: list[bool], what: str) -> list[str]:
    """A fitted residue set, when there is one, reproduces every scanned t.

    fitted is None or a (modulus, residues) pair.
    """
    if fitted is None:
        return []
    modulus, residues = fitted
    got = [(t % modulus) in residues for t in range(1, len(bijective) + 1)]
    if got != bijective:
        return [f"{what}: fitted set {sorted(residues)} mod {modulus} disagrees with the scan"]
    return []


def check_fibers(counts: dict[int, int], Q: int, what: str) -> list[str]:
    """Any map of P1(F_Q) to itself: fibers partition the Q + 1 points."""
    targets = sum(counts.values())
    points = sum(k * v for k, v in counts.items())
    if targets != Q + 1 or points != Q + 1:
        return [f"{what}: fiber histogram covers {points} points over {targets} targets, want {Q + 1}"]
    return []


def tower_depth(q: int, cap: int, t_max: int) -> int:
    """Largest t <= t_max with q^t within the cap."""
    t = 0
    while t < t_max and q ** (t + 1) <= cap:
        t += 1
    return t


def check_scan(name, q, depth, rule, t_reached, records, fitted, power_n=None) -> list[str]:
    """A scan of a map over F_q up its tower, against the closed-form rule.

    records holds (t, bijective, fiber histogram, period) per scanned t;
    rule(t) is the bijectivity the rule predicts; fitted is None or a
    (modulus, residues) pair.  For the power map x^power_n the fiber
    histogram and the period are known exactly and are checked too.
    """
    got = [r[1] for r in records]
    problems = check_series(got, [rule(t) for t in range(1, depth + 1)], name)
    if t_reached != depth:
        problems.append(f"{name}: t_reached {t_reached}, expected {depth}")
    problems += check_fit(fitted, got, name)
    for t, bijective, counts, period in records:
        Q = q**t
        problems += check_fibers(counts, Q, f"{name} t={t}")
        if power_n is None:
            continue
        if counts != power_fibers(power_n, Q):
            problems.append(f"{name} t={t}: fiber histogram {counts}")
        if bijective and power_bijective(power_n, Q) and period != power_period(power_n, Q):
            problems.append(f"{name} t={t}: period {period}")
    return problems
