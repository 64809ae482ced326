import itertools
import random

import pytest

from pairalg import extensions
from pairalg.cli import builtin_structures, main
from pairalg.errors import BoundExhausted
from pairalg.extensions import (ExtensionPair, det_chain_report, is_algebraic,
                                is_congruence_algebraic, is_integral, mat_vec,
                                negated_adjoint, negated_determinant,
                                tangible_coefficient_representation)
from pairalg.pairs import derive_negation
from pairalg.polynomials import Polynomial


def poly_extension(p):
    return ExtensionPair(p)


def test_extension_verifies(bool_pair):
    assert poly_extension(bool_pair).verify().valid


def test_embedded_constants_are_integral(st3):
    ext = poly_extension(st3)
    one = st3.carrier.index("1")
    y = Polynomial.constant(st3, 1, one)
    v = is_integral(ext, y, degree_bound=2)
    assert v and v.witness["degree"] == 1


def test_variable_transcendental_over_boolean(bool_pair):
    ext = poly_extension(bool_pair)
    lam = Polynomial.variable(bool_pair, 1)
    assert not is_integral(ext, lam, degree_bound=2)
    assert not is_algebraic(ext, lam, degree_bound=2)
    assert not is_congruence_algebraic(ext, lam, degree_bound=1)


def test_variable_algebraic_over_supertropical3(st3):
    # the ghost coefficient kills tangibility: 1v * y lies in the
    # coefficientwise quasi-zero layer for every y
    ext = poly_extension(st3)
    lam = Polynomial.variable(st3, 1)
    v = is_algebraic(ext, lam, degree_bound=1)
    assert v and v.witness["degree"] == 1


def test_tangible_coefficient_representation(st3):
    ext = poly_extension(st3)
    one = st3.carrier.index("1")
    s = Polynomial(st3, 1, {(1,): one, (0,): one})
    v = tangible_coefficient_representation(ext, s, s, degree_bound=1)
    assert v


def test_coefficient_scans_work_cap(monkeypatch, capsys):
    # nat-plus-times at window 2 draws coefficients from 0, 1, 2; degree 2
    # charges 3 + 9 tuples to the integral scan, 9 + 27 to the algebraic
    # one (a zero leading coefficient is not evaluated), and 3 + 9 + 27 to
    # the tangible one, which finds x^2 + 2 at its 32nd tuple
    assert extensions.MAX_COEFF_TUPLES == 200000
    p = builtin_structures("nat-plus-times")["pair"]
    ext = ExtensionPair(p)
    x = Polynomial.variable(p, 1)
    s = Polynomial(p, 1, {(2,): 1, (0,): 2})
    evals = []
    eval_poly = ExtensionPair.eval_poly

    def counted(self, coeffs, powers):
        evals.append(coeffs)
        return eval_poly(self, coeffs, powers)

    monkeypatch.setattr(ExtensionPair, "eval_poly", counted)
    cases = [(is_integral, (x,), 12, 12, 3),
             (is_algebraic, (x,), 36, 24, 6),
             (tangible_coefficient_representation, (x, s), 39, 32, 12)]
    for f, args, tuples, scanned, below in cases:
        for cap, want in ((tuples, scanned), (tuples - 1, below), (0, 0)):
            monkeypatch.setattr(extensions, "MAX_COEFF_TUPLES", cap)
            evals.clear()
            v = f(ext, *args, degree_bound=2, window=2)
            assert len(evals) == want, (f.__name__, cap)
            spent = "work cap MAX_COEFF_TUPLES=%d spent" % cap
            assert (v.detail == spent) == (cap < tuples), (f.__name__, cap)
            if cap < tuples:
                assert (v.status, v.bound) == ("unknown", cap)
    # at the default cap, degree 3 and window 20: the integral scan's
    # 21 + 441 + 9261 tuples fit, the algebraic scan's 194,481 of degree 3
    # do not, and the congruence-algebraic search is refused before it
    # evaluates anything
    monkeypatch.setattr(extensions, "MAX_COEFF_TUPLES", 200000)
    evals.clear()
    argv = ["classify-element", "nat-plus-times", "--element", "x",
            "--degree", "3", "--window", "20"]
    assert main(argv) == 3
    assert len(evals) == 9723 + 420 + 8820
    assert "work cap MAX_COEFF_TUPLES=200000 spent" in capsys.readouterr().out


def test_negated_determinant_2x2(double_bool):
    neg = derive_negation(double_bool)
    c = double_bool.carrier
    one = c.one
    zero = c.zero
    ident = [[one, zero], [zero, one]]
    assert negated_determinant(double_bool, ident, neg) == one


def test_equal_rows_determinant_in_a0(double_bool):
    neg = derive_negation(double_bool)
    elems = list(double_bool.elements())
    for row in itertools.product(elems, repeat=2):
        for other in elems:
            m = [list(row), list(row)]
            d = negated_determinant(double_bool, m, neg)
            assert double_bool.in_a0(d), m
            m3 = [list(row) + [other], list(row) + [other],
                  [other, other, other]]
            d3 = negated_determinant(double_bool, m3, neg)
            assert double_bool.in_a0(d3)


def test_adjoint_chain(double_bool):
    # Av above zero always propagates to adj(A)Av; det(A)v only does for
    # the special matrices of the integrality argument, and the report
    # keeps the two claims apart
    neg = derive_negation(double_bool)
    elems = list(double_bool.elements())
    det_v_failures = 0
    for m0 in itertools.product(elems, repeat=4):
        m = [[m0[0], m0[1]], [m0[2], m0[3]]]
        for v in itertools.product(elems, repeat=2):
            rep = det_chain_report(double_bool, m, list(v), neg)
            if all(rep["Av_above_zero"]):
                assert all(rep["adjAv_above_zero"]), (m, v)
                if not all(rep["det_v_above_zero"]):
                    det_v_failures += 1
    assert det_v_failures > 0


def test_adjoint_shape(double_bool):
    neg = derive_negation(double_bool)
    c = double_bool.carrier
    m = [[c.one, c.zero], [c.zero, c.one]]
    adj = negated_adjoint(double_bool, m, neg)
    assert adj == m


def test_determinant_cap_raises_bound_exhausted(double_bool):
    neg = derive_negation(double_bool)
    c = double_bool.carrier
    ident = [[c.one if i == j else c.zero for j in range(5)] for i in range(5)]
    with pytest.raises(BoundExhausted, match="capped at 4x4"):
        negated_determinant(double_bool, ident, neg)
