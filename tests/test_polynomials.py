import itertools
import random

import pytest

from pairalg.cli import builtin_structures
from pairalg.errors import PreconditionError
from pairalg.pairs import (SemiringPair, is_shallow, verify_admissible,
                           verify_surpassing)
from pairalg.polynomials import (GeometricCongruence, Polynomial, PolynomialPair,
                                 check_mixed_associativity,
                                 check_polypair_semiprime, compose_star,
                                 find_preceq_roots, functional_equal,
                                 is_tangible_poly,
                                 parse_poly, poly_eval, twist_compose_product,
                                 twist_substitute)
from pairalg.semirings import nat_plus_times, verify_semiring_axioms


def st_domain(lo, hi):
    return ([("z",)] + [("t", v) for v in range(lo, hi + 1)]
            + [("g", v) for v in range(lo, hi + 1)])


def test_parse_and_eval(st_int):
    f = parse_poly(st_int, "x^2 + 1*x + 4")
    assert f.terms == {(2,): ("t", 0), (1,): ("t", 1), (0,): ("t", 4)}
    assert poly_eval(f, (("t", 2),)) == ("g", 4)
    assert poly_eval(f, (("t", 5),)) == ("t", 10)


def test_parse_rejects_bad_token(st_int):
    with pytest.raises(PreconditionError):
        parse_poly(st_int, "q*x")


def test_zero_poly_is_not_tangible(bool_pair):
    zero = Polynomial(bool_pair, 1, {})
    assert not is_tangible_poly(zero)


def test_functional_collapse_below_two(st_int):
    # x^2 + a x + 4 defines one function for all tangible a < 2: the middle
    # monomial never wins alone on any input
    dom = [(x,) for x in st_domain(-10, 10)]
    base = parse_poly(st_int, "x^2 + 4")
    for a in range(-6, 2):
        f = parse_poly(st_int, "x^2 + %d*x + 4" % a)
        assert functional_equal(f, base, dom), a
    f2 = parse_poly(st_int, "x^2 + 2*x + 4")
    assert functional_equal(f2, base, dom)
    f3 = parse_poly(st_int, "x^2 + 3*x + 4")
    assert not functional_equal(f3, base, dom)


def test_unique_tangible_root(st_int):
    f = parse_poly(st_int, "x^2 + 1*x + 4")
    tang = [("t", v) for v in range(-10, 11)]
    roots = find_preceq_roots(f, tang)
    assert roots == [(("t", 2),)]


def test_ghost_inputs_are_roots_when_dominant(st_int):
    # a ghost input is a root exactly when a ghost monomial wins: x^2 at
    # value 2v reaches the constant term 4, below that the tangible 4 rules
    f = parse_poly(st_int, "x^2 + 1*x + 4")
    ghosts = [("g", v) for v in range(-10, 11)]
    roots = find_preceq_roots(f, ghosts)
    assert roots == [(("g", v),) for v in range(2, 11)]


def test_compose_star_substitution(st_int):
    lam = Polynomial.variable(st_int, 1)
    f = lam * lam  # x^2
    g = Polynomial(st_int, 1, {(1,): ("t", 3)})  # 3x
    h = compose_star(f, g)
    assert h.terms == {(2,): ("t", 6)}


def test_compose_star_constant_absorbs(st_int):
    const = Polynomial.constant(st_int, 1, ("t", 5))
    zero = Polynomial(st_int, 1, {})
    assert compose_star(const, zero) == const


def test_mixed_associativity_exact_on_power_monomials(bool_pair, st_nat):
    rng = random.Random(5)
    for p, vals in ((bool_pair, [0, 1]),
                    (st_nat, [("t", v) for v in range(5)]
                     + [("g", v) for v in range(5)])):
        one = p.carrier.one
        for _ in range(300):
            fs = [Polynomial(p, 1, {(rng.randrange(0, 4),): one})
                  for _ in range(4)]
            z = ((rng.choice(vals),), (rng.choice(vals),))
            assert check_mixed_associativity((fs[0], fs[1]), (fs[2], fs[3]),
                                             z) == "equal"


def test_mixed_associativity_surpasses_with_coefficients(st_nat):
    # scalar coefficients can create ghost ties: the combined side then
    # dominates in the surpassing order instead of agreeing exactly
    rng = random.Random(7)
    vals = [("t", v) for v in range(5)] + [("g", v) for v in range(5)]
    outcomes = set()
    for _ in range(1500):
        fs = [Polynomial(st_nat, 1, {(rng.randrange(0, 3),): rng.choice(vals)})
              for _ in range(4)]
        z = ((rng.choice(vals),), (rng.choice(vals),))
        outcomes.add(check_mixed_associativity((fs[0], fs[1]),
                                               (fs[2], fs[3]), z))
    assert "fails" not in outcomes
    assert "surpasses" in outcomes


def test_mixed_associativity_unknown_on_symbolic_pair():
    # over the naturals two distinct values are related only through
    # quasi-zeros outside the window, so the order is undecided
    p = SemiringPair(nat_plus_times(), a0=lambda x: x == 0,
                     tangibles=lambda x: x != 0, name="nat")
    x = Polynomial.variable(p, 1)
    x1 = x + Polynomial.constant(p, 1, 1)
    assert check_mixed_associativity((x, x1), (x, x), ((1,), (2,))) == "unknown"


def test_geometric_congruence_membership(st_int):
    g = GeometricCongruence(st_int, [((("t", 0),), (("t", 0),))])
    f1 = parse_poly(st_int, "x")
    f2 = parse_poly(st_int, "0")
    # twist substitution at (0, 0): both coordinates become 0 + 0 = 0v
    assert g.contains(f1, f2)
    f3 = parse_poly(st_int, "5")
    assert not g.contains(f3, f2)


def test_polypair_semiprime_transfers(bool_pair):
    out = check_polypair_semiprime(bool_pair, degree=1)
    assert out["base_semiprime"]
    assert out["poly_semiprime"]


def test_polypair_semiprime_fails_with_base(st3):
    out = check_polypair_semiprime(st3, degree=1)
    assert not out["base_semiprime"]
    assert not out["poly_semiprime"]
    assert out["witness"] is not None


@pytest.mark.parametrize("name", ["boolean", "double-boolean",
                                  "supertropical-naturals",
                                  "supertropical-integers", "nat-plus-times"])
def test_generic_checks_apply_to_polynomial_pairs(name):
    pp = PolynomialPair(builtin_structures(name)["pair"])
    assert isinstance(pp, SemiringPair)
    for window in (2, 4):
        assert verify_admissible(pp, window=window).valid
        assert verify_surpassing(pp, window=window).valid
    # the window-4 sample holds a two-term polynomial such as x + 1
    assert not is_shallow(pp, window=4)
    assert verify_semiring_axioms(pp.carrier, window=4).valid
