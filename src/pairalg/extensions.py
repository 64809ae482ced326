"""Centralizing extensions: integral / algebraic / congruence-algebraic
element predicates, and negated determinants for pairs with a negation map.
All searches are bounded and report three-valued verdicts."""

import itertools

from .errors import (AxiomReport, BoundExhausted, NO, PreconditionError, UNKNOWN,
                     Verdict, YES)
from .polynomials import Polynomial, PolynomialPair, poly_eval


class ExtensionPair:
    """A base pair A inside its polynomial extension A[lambda], each element
    embedded as a constant polynomial; centralizing means embedded tangibles
    commute with everything in the extension."""

    def __init__(self, base):
        self.base = base
        self.ext = PolynomialPair(base)

    def embed(self, a):
        return Polynomial.constant(self.base, 1, a)

    def verify(self, window=20):
        report = AxiomReport(subject="extension", window=window)
        eb, ee = self.base.carrier, self.ext.carrier
        base = self.base.elements(window)
        extn = self.ext.elements(window)
        f = self.embed
        if f(eb.zero) != ee.zero or f(eb.one) != ee.one:
            report.record("embedding-units", (eb.zero, eb.one))
        for a, b in itertools.product(base, repeat=2):
            report.checked += 1
            if f(eb.add(a, b)) != ee.add(f(a), f(b)):
                report.record("embedding-additive", (a, b))
            if f(eb.mul(a, b)) != ee.mul(f(a), f(b)):
                report.record("embedding-multiplicative", (a, b))
        for a in base:
            if self.base.is_tangible(a) and not self.ext.is_tangible(f(a)):
                report.record("tangibles-into-tangibles", (a,))
            if self.base.in_a0(a):
                if not self.ext.in_a0(f(a)):
                    report.record("quasi-zeros-into-quasi-zeros", (a,))
                for w in extn:
                    if not self.ext.in_a0(ee.mul(f(a), w)):
                        report.record("a0-action-inside-w0", (a, w))
        for a in base:
            if not self.base.is_tangible(a):
                continue
            for w in extn:
                report.checked += 1
                if ee.mul(f(a), w) != ee.mul(w, f(a)):
                    report.record("centralizing", (a, w))
        return report

    def powers(self, y, degree):
        """y^0, ..., y^degree inside the extension."""
        ee = self.ext.carrier
        return [ee.power(y, i) for i in range(degree + 1)]

    def eval_poly(self, coeffs, powers):
        """sum coeffs[i] y^i inside the extension, coefficients from the
        base; ``powers`` lists y^0, y^1, ... as ``self.powers`` gives them."""
        ee = self.ext.carrier
        total = ee.zero
        for a, y_i in zip(coeffs, powers):
            total = ee.add(total, ee.mul(self.embed(a), y_i))
        return total


def is_integral(ext, y, degree_bound=3, window=20):
    """Search for a0..a_{n-1} in the base with sum a_i y^i below y^n in the
    surpassing order; minimal n, lexicographically first witness."""
    p = ext.ext
    base = ext.base.elements(window)
    complete = ext.base.carrier.finite
    unknown = False
    powers = ext.powers(y, degree_bound)
    for n in range(1, degree_bound + 1):
        target = powers[n]
        for coeffs in itertools.product(base, repeat=n):
            val = ext.eval_poly(coeffs, powers)
            v = p.surpasses(val, target)
            if v:
                return Verdict(YES, witness={"degree": n, "coeffs": coeffs})
            if v is None:
                unknown = True
    if complete and not unknown:
        return Verdict(NO, bound=degree_bound)
    return Verdict(UNKNOWN, bound=degree_bound, detail="windowed coefficient scan")


def is_algebraic(ext, y, degree_bound=3, window=20):
    """Search for coefficients with nonzero leading term putting
    sum a_i y^i into the quasi-zeros of the extension. Degree-0 relations
    are excluded: a lone quasi-zero constant says nothing about y."""
    p = ext.ext
    base = ext.base.elements(window)
    zero = ext.base.carrier.zero
    powers = ext.powers(y, degree_bound)
    for n in range(1, degree_bound + 1):
        for coeffs in itertools.product(base, repeat=n + 1):
            if coeffs[-1] == zero:
                continue
            if p.in_a0(ext.eval_poly(coeffs, powers)):
                return Verdict(YES, witness={"degree": n, "coeffs": coeffs})
    if ext.base.carrier.finite:
        return Verdict(NO, bound=degree_bound)
    return Verdict(UNKNOWN, bound=degree_bound, detail="windowed coefficient scan")


def tangible_coefficient_representation(ext, y, s, degree_bound=3, window=20):
    """If s = sum b_i y^i is tangible and the base pair is shallow, a
    representation with coefficients in T plus 0 must exist; searched and
    returned."""
    p = ext.ext
    coeff_pool = [ext.base.carrier.zero] + ext.base.tangible_elements(window)
    powers = ext.powers(y, degree_bound)
    for n in range(0, degree_bound + 1):
        for coeffs in itertools.product(coeff_pool, repeat=n + 1):
            if ext.eval_poly(coeffs, powers) == s:
                return Verdict(YES, witness={"degree": n, "coeffs": coeffs})
    return Verdict(NO if ext.base.carrier.finite else UNKNOWN, bound=degree_bound)


def is_congruence_algebraic(ext, y, degree_bound=2, window=12):
    """Transcendence test per the functional definition: y is congruence
    algebraic when some f1(y) dominating f2(y) fails to dominate at a base
    point. Returns the violating (f1, f2, b) as certificate, and UNKNOWN
    without one, as A[lambda] is infinite. Each candidate is evaluated at y
    once, and at a base point the first time it is needed there."""
    p = ext.ext
    base_pair = ext.base
    base_pts = ext.base.elements(window)
    monos = [(k,) for k in range(degree_bound + 1)]
    powers = ext.powers(y, degree_bound)
    polys, at_y = [], []
    for choice in itertools.product(base_pts, repeat=len(monos)):
        polys.append(Polynomial(base_pair, 1, dict(zip(monos, choice))))
        at_y.append(ext.eval_poly(choice, powers))
    at_point = {}

    def value(i, k):
        if (i, k) not in at_point:
            at_point[i, k] = poly_eval(polys[i], (base_pts[k],))
        return at_point[i, k]

    for i, f1 in enumerate(polys):
        for j, f2 in enumerate(polys):
            if not p.surpasses(at_y[j], at_y[i]):
                continue
            for k, b in enumerate(base_pts):
                if base_pair.surpasses(value(j, k), value(i, k)) is False:
                    return Verdict(YES, witness={"f1": f1, "f2": f2, "point": b})
    return Verdict(UNKNOWN, bound=degree_bound, detail="transcendental at bound")


# ---------------------------------------------------------------------------
# Negated determinants


def _permutations_with_sign(n):
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        yield perm, inversions % 2


def negated_determinant(p, matrix, negation):
    """Permutation expansion with (-)1 to the sign of the permutation:
    odd permutations contribute their product negated. Matrices past 4x4
    raise BoundExhausted."""
    n = len(matrix)
    if n > 4:
        raise BoundExhausted("matrix is %dx%d; permutation expansion is capped "
                             "at 4x4" % (n, n))
    if any(len(row) != n for row in matrix):
        raise PreconditionError("matrix is not square")
    c = p.carrier
    total = c.zero
    for perm, parity in _permutations_with_sign(n):
        prod = c.one
        for i in range(n):
            prod = c.mul(prod, matrix[i][perm[i]])
        if parity:
            prod = negation(prod)
        total = c.add(total, prod)
    return total


def negated_adjoint(p, matrix, negation):
    """Signed-cofactor transpose: entry (i, j) is the (j, i) minor's negated
    determinant, negated once more when i + j is odd."""
    n = len(matrix)
    c = p.carrier

    def minor(r, s):
        return [[matrix[i][j] for j in range(n) if j != s]
                for i in range(n) if i != r]

    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            if n == 1:
                cof = c.one
            else:
                cof = negated_determinant(p, minor(j, i), negation)
            if (i + j) % 2:
                cof = negation(cof)
            row.append(cof)
        adj.append(row)
    return adj


def mat_vec(p, matrix, vec):
    c = p.carrier
    out = []
    for row in matrix:
        acc = c.zero
        for a, v in zip(row, vec):
            acc = c.add(acc, c.mul(a, v))
        out.append(acc)
    return out


def det_chain_report(p, matrix, vec, negation):
    """Instance data for the determinant chain: given A v above 0, reports
    whether det(A) v and adj(A) A v stay above 0 coordinatewise."""
    av = mat_vec(p, matrix, vec)
    d = negated_determinant(p, matrix, negation)
    adj = negated_adjoint(p, matrix, negation)
    adj_av = mat_vec(p, adj, av)
    c = p.carrier
    zero = c.zero
    return {
        "Av_above_zero": [p.surpasses(zero, x) for x in av],
        "det": d,
        "det_v_above_zero": [p.surpasses(zero, c.mul(d, v)) for v in vec],
        "adjAv_above_zero": [p.surpasses(zero, x) for x in adj_av],
    }
