"""The symbolic-layer searches that evaluate once and scan stored values,
against the versions they replaced (surpassing_reference.py): equal
surpassing reports with violations in the same order, equal
congruence-algebraic verdicts and witnesses, and equal roots. The work
counts pin down what each search evaluates."""

import os

import pytest

import surpassing_reference as ref
from pairalg import extensions
from pairalg.cli import builtin_structures, main
from pairalg.extensions import ExtensionPair, is_congruence_algebraic
from pairalg.pairs import SemiringPair, verify_surpassing
from pairalg.polynomials import (Polynomial, PolynomialPair,
                                 find_preceq_roots, parse_poly)
from pairalg.semirings import (ST_ZERO, FiniteSemiring, double, nat_plus_times,
                               nmax_trunc, supertropical_integers,
                               supertropical_naturals)
from pairalg.structio import load_structures

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "pairalg",
                        "fixtures")


def fixture_pair(name):
    return load_structures(os.path.join(FIXTURES, name))["pair"]


def nat_pair():
    return SemiringPair(nat_plus_times(), a0=lambda x: x == 0,
                        tangibles=lambda x: x != 0, name="nat_plus_times")


def st_key(x):
    return -1 if x == ST_ZERO else x[1] + (100 if x[0] == "g" else 0)


def odd_relation(key):
    """Neither reflexive, transitive nor additive, and undecided on some
    pairs, so every axiom records violations and unknowns are skipped."""
    def surpass(b1, b2):
        k1, k2 = key(b1), key(b2)
        if (k1 * k2) % 7 == 3:
            return None
        return (k1 - 2 * k2) % 3 != 0
    return surpass


def odd_finite_pair():
    s = nmax_trunc(5)
    return SemiringPair(s, [s.zero], list(range(1, s.n)),
                        surpass_fn=odd_relation(lambda x: x), name="odd")


def odd_symbolic_pair():
    st = supertropical_integers()
    return SemiringPair(st.carrier, a0=st.in_a0, tangibles=st.is_tangible,
                        tangible_sample=st.tangible_elements,
                        surpass_fn=odd_relation(st_key), name="odd-symbolic")


BUILTINS = {"stn": supertropical_naturals, "stz": supertropical_integers,
            "nat": nat_pair}
FIXTURE_NAMES = ("boolean.pair", "double_boolean.pair", "supertropical3.pair")


def case(name, p, *rest):
    return pytest.param(p, *rest, id="-".join([name] + [str(r) for r in rest]))


SURPASSING_CASES = (
    [case(n, fixture_pair(n), None) for n in FIXTURE_NAMES]
    + [case("stn", supertropical_naturals(), w) for w in (0, 1, 2, 4, 5)]
    + [case("stz", supertropical_integers(), w) for w in (0, 1, 2, 3, 6)]
    + [case("nat", nat_pair(), w) for w in (2, 5)]
    + [case("double-nat", double(nat_plus_times()), w) for w in (1, 2)]
    + [case("odd", odd_finite_pair(), None)]
    + [case("odd-symbolic", odd_symbolic_pair(), 3)])


def as_tuple(report):
    return (report.subject, report.valid, report.checked, report.window,
            [(v.axiom, v.witness) for v in report.violations])


@pytest.mark.parametrize("p, window", SURPASSING_CASES)
def test_surpassing_reports_match_reference(p, window):
    kw = {} if window is None else {"window": window}
    for strong in (False, True):
        got = verify_surpassing(p, strong=strong, **kw)
        assert as_tuple(got) == as_tuple(ref.verify_surpassing(p, strong=strong, **kw))


def test_odd_relation_records_every_axiom():
    axioms = {v.axiom for p in (odd_finite_pair(), odd_symbolic_pair())
              for v in verify_surpassing(p, strong=True, window=3).violations}
    assert {"reflexive", "transitive", "additive", "tangible-action",
            "tangible-equality", "strong-tangible-equality"} <= axioms


def extension(p):
    return ExtensionPair(p)


def elements_to_classify(p, window):
    sample = list(p.carrier.elements()) if p.carrier.finite else p.elements(window)
    top, low = sample[-1], sample[1 % len(sample)]
    return [Polynomial.variable(p, 1), Polynomial.constant(p, 1, top),
            Polynomial(p, 1, {(1,): top, (0,): low}),
            Polynomial(p, 1, {(1,): low, (0,): top})]


CA_CASES = (
    [case(n, fixture_pair(n), None, 1) for n in FIXTURE_NAMES]
    + [case(n, fixture_pair(n), None, 2) for n in ("boolean.pair", "supertropical3.pair")]
    + [case(n, make(), 1, 1) for n, make in BUILTINS.items()]
    + [case("stn", supertropical_naturals(), 0, 2), case("nat", nat_pair(), 2, 1),
       case("stz", supertropical_integers(), 2, 1)])


@pytest.mark.parametrize("p, window, degree", CA_CASES)
def test_congruence_algebraic_matches_reference(p, window, degree):
    ext = extension(p)
    kw = {} if window is None else {"window": window}
    for y in elements_to_classify(p, window or 1):
        want = ref.is_congruence_algebraic(ext, y, degree_bound=degree, **kw)
        assert is_congruence_algebraic(ext, y, degree_bound=degree, **kw) == want


def skew_pair():
    """Three elements whose addition is neither associative nor commutative
    and whose one is no unit, so that reordering the products or sums of
    an evaluation changes the roots."""
    s = FiniteSemiring(["a", "b", "c"], [[1, 2, 0], [0, 1, 0], [2, 0, 1]],
                       [[0, 1, 2], [1, 0, 2], [2, 1, 0]], zero=0, one=1,
                       name="skew")
    return SemiringPair(s, [0], [1], name="skew")


SKEW_LITERALS = ("x^2*y + c*x*y^2 + b*y + c", "c*x*z^2 + b*y^2*z + x*y + b")

ROOT_CASES = (
    [case(n, fixture_pair(n), lit) for n in FIXTURE_NAMES
     for lit in ("x^2 + x", "x*y + x + y", "x^3 + x^2*y + y^2")]
    + [case(n, BUILTINS[n](), lit) for n in ("stn", "stz")
       for lit in ("x^2 + 1*x + 4", "1v*x^2 + 3", "x*y + 2*x + 3",
                   "x^2*y + 3v*x*y^2 + 1", "2v*x + 1", "z*x^2 + y")]
    + [case("skew", skew_pair(), lit) for lit in SKEW_LITERALS])


@pytest.mark.parametrize("p, literal", ROOT_CASES)
def test_roots_match_reference(p, literal):
    f = parse_poly(p, literal)
    for window in (1, 3):
        domain = p.elements(window)
        assert find_preceq_roots(f, domain) == ref.find_preceq_roots(f, domain)


def test_root_scan_multiplies_once_per_prefix_and_last_power(monkeypatch):
    p = skew_pair()
    f = parse_poly(p, SKEW_LITERALS[0])
    calls = []
    mul = p.carrier.mul

    def counted(x, y):
        calls.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(p.carrier, "mul", counted)
    domain = p.elements(None)
    assert find_preceq_roots(f, domain)
    n = len(domain)
    # powers 0..3 of each element (degree 3: 0 + 1 + 2 + 3 products); the x
    # factor of x^2*y and c*x*y^2 once per x; the y factor of the three terms
    # with y once per point
    assert len(calls) == n * 6 + n * 2 + n ** 2 * 3


def test_congruence_algebraic_evaluates_each_candidate_at_y_once(monkeypatch):
    calls = []
    eval_poly = ExtensionPair.eval_poly

    def counted(self, coeffs, powers):
        calls.append(coeffs)
        return eval_poly(self, coeffs, powers)

    monkeypatch.setattr(ExtensionPair, "eval_poly", counted)
    p = supertropical_integers()
    ext = extension(p)
    is_congruence_algebraic(ext, parse_poly(p, "x"), degree_bound=1, window=2)
    assert len(ext.base.elements(2)) == 11
    assert len(calls) == 11 ** 2


def test_congruence_algebraic_compares_coefficients_not_polynomials(monkeypatch):
    # the dominance index tabulates the base relation over the 11 distinct
    # coefficients at each of the two exponents of a0 + a1 x (120 pairs
    # each, with no call for zero against zero), then compares each pair of
    # values at a base point once; the scan it replaced made 14,641
    # polynomial comparisons here
    p = supertropical_integers()
    ext = extension(p)
    calls = []
    surpasses = p.surpasses

    def counted(*args):
        calls.append(args)
        return surpasses(*args)

    def refused(*args):
        raise AssertionError("polynomial-pair surpasses called")

    monkeypatch.setattr(p, "surpasses", counted)
    monkeypatch.setattr(ext.ext, "surpasses", refused)
    v = is_congruence_algebraic(ext, parse_poly(p, "x"), degree_bound=1, window=2)
    assert v.status == "unknown" and v.detail == "transcendental at bound"
    assert len(calls) == 2 * 120 + 101 < 2000


def test_congruence_algebraic_work_cap(monkeypatch):
    # x + 1 over the Boolean pair is congruence algebraic, found after the
    # 4^2 candidate pairs and 3 dominating pairs of 2 base points each
    p = builtin_structures("boolean")["pair"]
    ext = extension(p)
    y = parse_poly(p, "x + 1")
    assert is_congruence_algebraic(ext, y, degree_bound=1).status == "yes"
    monkeypatch.setattr(extensions, "MAX_CA_CHECKS", 22)
    assert is_congruence_algebraic(ext, y, degree_bound=1).status == "yes"
    for cap in (21, 15):
        monkeypatch.setattr(extensions, "MAX_CA_CHECKS", cap)
        v = is_congruence_algebraic(ext, y, degree_bound=1)
        assert (v.status, v.bound) == ("unknown", cap)
        assert v.detail == "work cap MAX_CA_CHECKS=%d spent" % cap
    argv = ["classify-element", "boolean", "--element", "x + 1", "--degree", "1"]
    assert main(argv) == 3
    monkeypatch.undo()
    assert main(argv) == 0


def test_surpassing_tabulates_before_the_additivity_scan(monkeypatch):
    # the additivity scan makes the first addition; before it, surpasses runs
    # once per quasi-zero of the sample and once per pair of the 12-element cap
    p = supertropical_integers()
    calls, at_first_add = [], []
    surpasses, add = p.surpasses, p.carrier.add

    def counted_surpasses(*args):
        calls.append(args)
        return surpasses(*args)

    def first_add(*args):
        if not at_first_add:
            at_first_add.append(len(calls))
        return add(*args)

    monkeypatch.setattr(p, "surpasses", counted_surpasses)
    monkeypatch.setattr(p.carrier, "add", first_add)
    report = verify_surpassing(p, window=6)
    assert report.checked == 12 ** 3
    assert at_first_add == [len(p.a0_elements(6)) + 12 ** 2]


POLY_BUILTINS = ("boolean", "double-boolean", "supertropical-naturals",
                 "supertropical-integers", "nat-plus-times")
POLY_CASES = ([case(n, fixture_pair(n)) for n in FIXTURE_NAMES]
              + [case(n, builtin_structures(n)["pair"]) for n in POLY_BUILTINS])


def coefficients_equal(f, g):
    return all(f.terms.get(e, 0) == g.terms.get(e, 0)
               for e in set(f.terms) | set(g.terms))


@pytest.mark.parametrize("p", POLY_CASES)
def test_polynomial_pair_matches_reference(p):
    pp = PolynomialPair(p)
    nat = p.name == "nat_plus_times"
    # the reference runs over the pair as declared before nat-plus-times
    # listed its A0, when it was the predicate x == 0
    old = PolynomialPair(nat_pair()) if nat else pp
    for window in range(9):
        assert pp.elements(window) == ref.poly_sample(pp, window)
    answers, old_answers = set(), set()
    for window in (2, 3, 4):
        elems = pp.elements(window)
        for f in elems:
            assert pp.in_a0(f) is ref.poly_in_a0(pp, f)
            assert pp.is_tangible(f) is ref.poly_is_tangible(pp, f)
            for g in elems:
                got = pp.surpasses(f, g)
                want = ref.poly_surpasses(old, f, g)
                assert got is want or want is None
                if nat:
                    # A0 = {0}: f is below g iff their coefficients are equal
                    assert got is coefficients_equal(f, g)
                answers.add(got)
                old_answers.add(want)
    # a listed A0 is searched whole, so every answer is decided; the
    # predicate left precedes zero undecided on nat-plus-times
    assert None not in answers
    assert (None in old_answers) == nat
