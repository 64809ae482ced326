"""Acceptance gate: twelve desk-scale criteria, one pass/fail line each.

Each test prints CRITERION n: PASS/FAIL and asserts; tolerances are stated
inline next to the checks."""

import itertools
import random
import time
from fractions import Fraction as QFraction

from pairalg.congruences import (NO_PAIR_CONGRUENCE, diagonal,
                                 enumerate_congruences,
                                 intersection_of_primes_above, is_prime,
                                 is_semiprime, radical, twist_product)
from pairalg.extensions import negated_determinant
from pairalg.fractions import (LocalizationContext, frac_add, frac_equiv,
                               frac_mul)
from pairalg.growth import (commutative_model, free_words_model, gk_dimension,
                            growth_sequence, matrix_units_model,
                            ore_witness, poly_closed_form)
from pairalg.hyper import (A0_CONTAINS_ZERO, A0_SIZE_GE_TWO, find_isomorphism,
                           hyper_coset_quotient, krasner_hyperfield,
                           krasner_quotient, powerset_pair,
                           verify_semihyperring)
from pairalg.pairs import (SemiringPair, derive_negation, is_shallow,
                           verify_admissible, verify_surpassing)
from pairalg.polynomials import (Polynomial, check_mixed_associativity,
                                 find_preceq_roots, functional_equal,
                                 parse_poly)
from pairalg.semirings import (FiniteSemiring, boolean_semiring, double,
                               nat_plus_times, nmax_trunc,
                               supertropical_extension, supertropical_integers,
                               supertropical_naturals, trivial_monoid,
                               verify_semiring_axioms)


def report(n, ok, text):
    print("CRITERION %d: %s - %s" % (n, "PASS" if ok else "FAIL", text))
    assert ok, text


def bool_pair():
    B = boolean_semiring()
    return SemiringPair(B, [B.zero], [B.one], name="boolean")


def small_fixture_pairs():
    K = krasner_hyperfield()
    return [bool_pair(),
            supertropical_extension(trivial_monoid()),
            double(boolean_semiring()),
            powerset_pair(K, A0_CONTAINS_ZERO),
            powerset_pair(K, A0_SIZE_GE_TWO)]


def mod_field(q):
    labels = [str(i) for i in range(q)]
    add = [[(i + j) % q for j in range(q)] for i in range(q)]
    mul = [[(i * j) % q for j in range(q)] for i in range(q)]
    return FiniteSemiring(labels, add, mul, zero=0, one=1, name="F%d" % q)


def test_criterion_1_axiom_oracles():
    # every shipped fixture passes its verifier exhaustively, each check < 1 s
    K = krasner_hyperfield()
    checks = [("boolean", lambda: verify_semiring_axioms(boolean_semiring())),
              ("nmax3", lambda: verify_semiring_axioms(nmax_trunc(3))),
              ("double(B)", lambda: verify_admissible(double(boolean_semiring()))),
              ("supertropical3", lambda: verify_admissible(
                  supertropical_extension(trivial_monoid()))),
              ("krasner", lambda: verify_semihyperring(K)),
              ("powerset/zero", lambda: verify_admissible(
                  powerset_pair(K, A0_CONTAINS_ZERO))),
              ("powerset/ge2", lambda: verify_admissible(
                  powerset_pair(K, A0_SIZE_GE_TWO)))]
    ok = True
    slowest = 0.0
    for name, fn in checks:
        t0 = time.perf_counter()
        rep = fn()
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        ok = ok and rep.valid and dt < 1.0
    report(1, ok, "all fixture verifiers pass exhaustively "
           "(slowest %.3fs < 1s)" % slowest)


def test_criterion_2_twist_associativity():
    # exhaustive over all twist-element triples, carriers of size <= 4
    checked = 0
    ok = True
    for p in (bool_pair(), supertropical_extension(trivial_monoid()),
              double(boolean_semiring())):
        elems = list(p.elements())
        assert len(elems) <= 4
        pts = list(itertools.product(elems, repeat=2))
        for x, y, z in itertools.product(pts, repeat=3):
            checked += 1
            lhs = twist_product(p.carrier, twist_product(p.carrier, x, y), z)
            rhs = twist_product(p.carrier, x, twist_product(p.carrier, y, z))
            if lhs != rhs:
                ok = False
    report(2, ok, "twist product associative on %d exhaustive triples, "
           "zero violations" % checked)


def test_criterion_3_semiprime_equals_prime_intersections():
    # the membership-criterion semiprimes coincide with intersections of
    # nonempty prime subsets, exact set equality on carriers <= 5
    t0 = time.perf_counter()
    ok = True
    for p in small_fixture_pairs():
        assert len(list(p.elements())) <= 5
        congs = enumerate_congruences(p)
        semi = {c for c in congs if is_semiprime(c)}
        primes = [c for c in congs if is_prime(c)]
        inters = set()
        for r in range(1, len(primes) + 1):
            for subset in itertools.combinations(primes, r):
                acc = subset[0]
                for c in subset[1:]:
                    acc = acc & c
                inters.add(acc)
        if semi != inters:
            ok = False
    dt = time.perf_counter() - t0
    report(3, ok and dt < 60.0,
           "semiprimes equal prime-subset intersections on all small "
           "fixtures (%.1fs < 60s)" % dt)


def test_criterion_4_radical_consistency():
    # twist-power radical equals intersection of primes above, including the
    # no-pair-congruence marker; exact equality on carriers <= 4
    ok = True
    checked = 0
    for p in small_fixture_pairs():
        if len(list(p.elements())) > 4:
            continue
        congs = enumerate_congruences(p)
        for c in congs:
            checked += 1
            if radical(c) != intersection_of_primes_above(c, congs):
                ok = False
    report(4, ok, "radical matches prime intersection on %d congruences "
           "(marker cases included)" % checked)


def test_criterion_5_shallow_forces_strong_surpassing():
    ok = True
    names = []
    for p in small_fixture_pairs():
        if not is_shallow(p):
            continue
        names.append(p.name)
        if not verify_surpassing(p, strong=True).valid:
            ok = False
    report(5, ok and names, "strong surpassing holds on every shallow "
           "fixture (%s), zero violations" % ", ".join(names))


def test_criterion_6_krasner_checks():
    K = krasner_hyperfield()
    h = krasner_quotient(mod_field(3), [1, 2])
    one = h.one
    first = (h.n == 2 and verify_semihyperring(h).valid
             and h.hadd(one, one) == frozenset(h.elements())
             and find_isomorphism(h, K) is not None)
    f7 = mod_field(7)
    direct = krasner_quotient(f7, [1, 2, 3, 4, 5, 6])
    step1 = krasner_quotient(f7, [1, 6])
    step2 = hyper_coset_quotient(step1, [x for x in step1.elements()
                                         if x != step1.zero])
    second = (direct.n <= 3 and step2.n <= 3
              and find_isomorphism(step2, direct) is not None)
    report(6, first and second, "F3/{1,2} is the Krasner hyperfield and the "
           "iterated quotient is isomorphic to the direct one "
           "(exhaustive bijections)")


def test_criterion_7_localization_oracle():
    s = nat_plus_times()
    p = SemiringPair(s, a0=lambda x: x == 0, tangibles=lambda x: x != 0,
                     name="nat")
    ctx = LocalizationContext(p, [2 ** k for k in range(8)],
                              s_member=lambda x: x > 0 and (x & (x - 1)) == 0)
    rng = random.Random(42)
    ok = True
    for _ in range(200):
        x = ctx.fraction(rng.randrange(0, 50), 2 ** rng.randrange(0, 5))
        y = ctx.fraction(rng.randrange(0, 50), 2 ** rng.randrange(0, 5))
        a = frac_add(x, y)
        m = frac_mul(x, y)
        if QFraction(a.b, a.s) != QFraction(x.b, x.s) + QFraction(y.b, y.s):
            ok = False
        if QFraction(m.b, m.s) != QFraction(x.b, x.s) * QFraction(y.b, y.s):
            ok = False
    for _ in range(100):
        b, d = rng.randrange(0, 30), 2 ** rng.randrange(0, 4)
        k = 2 ** rng.randrange(1, 3)
        x1, x2 = ctx.fraction(b, d), ctx.fraction(b * k, d * k)
        y = ctx.fraction(rng.randrange(0, 30), 2 ** rng.randrange(0, 4))
        if not (frac_equiv(frac_add(x1, y), frac_add(x2, y))
                and frac_equiv(frac_mul(x1, y), frac_mul(x2, y))):
            ok = False
    report(7, ok, "200 fraction ops agree exactly with rational arithmetic; "
           "100 representative substitutions stay well-defined")


def test_criterion_8_supertropical_polynomial_semantics():
    p = supertropical_integers()
    dom = [(x,) for x in ([("z",)]
                          + [("t", v) for v in range(-10, 11)]
                          + [("g", v) for v in range(-10, 11)])]
    base = parse_poly(p, "x^2 + 4")
    agree = all(functional_equal(parse_poly(p, "x^2 + %d*x + 4" % a),
                                 base, dom)
                for a in range(-10, 2))
    roots = find_preceq_roots(parse_poly(p, "x^2 + 1*x + 4"),
                              [("t", v) for v in range(-10, 11)])
    roots_ok = roots == [(("t", 2),)]
    report(8, agree and roots_ok, "x^2+ax+4 collapses functionally for all "
           "tangible a < 2 on [-10,10]; unique tangible root at 2")


def test_criterion_9_growth_reproductions():
    free_ok = growth_sequence(free_words_model(2), 8).d[1:] == \
        [2 ** k for k in range(1, 9)]
    poly_ok = all(growth_sequence(commutative_model(t), 8).d
                  == poly_closed_form(t, 8) for t in (1, 2, 3))
    mn = gk_dimension(growth_sequence(matrix_units_model(2), 8))
    mn_ok = (not mn["divergent"]) and abs(mn["estimate"]) <= 0.1
    one = gk_dimension(growth_sequence(commutative_model(1), 10))
    one_ok = (not one["divergent"]) and abs(one["estimate"] - 1.0) <= 0.25
    report(9, free_ok and poly_ok and mn_ok and one_ok,
           "free 2-letter d_k = 2^k (exact, k<=8); polynomial growth matches "
           "1/(1-x)^t (exact, t<=3); GK(M_n)=%.3f (tol 0.1); "
           "GK(one variable)=%.3f (tol 0.25)" % (mn["estimate"],
                                                 one["estimate"]))


def test_criterion_10_common_multiple_witness():
    p = supertropical_naturals()
    t0 = time.perf_counter()
    v = ore_witness(p, ("t", 1), ("t", 2), degree_bound=1, window=4)
    dt = time.perf_counter() - t0
    c = p.carrier
    ok = bool(v)
    if ok:
        b1, b2 = v.witness["b1"], v.witness["b2"]
        combo = c.add(c.mul(b1, ("t", 1)), c.mul(b2, ("t", 2)))
        ok = (not p.in_a0(b1) and not p.in_a0(b2) and p.in_a0(combo)
              and dt < 1.0)
    report(10, ok, "common-multiple witness b1, b2 outside A0 with "
           "b1*a1 + b2*a2 in A0, verified by evaluation (%.3fs < 1s)" % dt)


def test_criterion_11_determinant_alternation():
    ok = True
    count2 = 0
    pairs = [double(boolean_semiring()),
             supertropical_extension(trivial_monoid())]
    for p in pairs:
        neg = derive_negation(p)
        elems = list(p.elements())
        assert len(elems) <= 4
        for row in itertools.product(elems, repeat=2):
            count2 += 1
            d = negated_determinant(p, [list(row), list(row)], neg)
            if not p.in_a0(d):
                ok = False
    rng = random.Random(11)
    count3 = 0
    for p in pairs:
        neg = derive_negation(p)
        elems = list(p.elements())
        for _ in range(500):
            count3 += 1
            row = [rng.choice(elems) for _ in range(3)]
            other = [rng.choice(elems) for _ in range(3)]
            rows = [list(row), list(row), other]
            rng.shuffle(rows)
            d = negated_determinant(p, rows, neg)
            if not p.in_a0(d):
                ok = False
    report(11, ok, "negated determinant of equal-row matrices lands in A0 "
           "(%d exhaustive 2x2, %d random 3x3, zero violations)"
           % (count2, count3))


def test_criterion_12_mixed_associativity():
    rng = random.Random(12)
    ok = True
    checked = 0
    st = supertropical_naturals()
    bp = bool_pair()
    for p, points in ((bp, [0, 1]),
                      (st, [("t", v) for v in range(6)]
                       + [("g", v) for v in range(6)])):
        one = p.carrier.one
        for _ in range(250):
            checked += 1
            fs = [Polynomial(p, 1, {(rng.randrange(0, 4),): one})
                  for _ in range(4)]
            z = ((rng.choice(points),), (rng.choice(points),))
            if check_mixed_associativity((fs[0], fs[1]), (fs[2], fs[3]),
                                         z) != "equal":
                ok = False
    report(12, ok, "twist substitution associates with the composition twist "
           "product on %d random monomial instances, both sides exactly "
           "equal" % checked)
