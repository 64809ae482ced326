"""Centralizing extensions: integral / algebraic / congruence-algebraic
element predicates, and negated determinants for pairs with a negation map.
All searches are bounded and report three-valued verdicts."""

import itertools

from .errors import (AxiomReport, BoundExhausted, NO, PreconditionError, UNKNOWN,
                     Verdict, YES)
from .pairs import DEFAULT_WINDOW
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

    def verify(self, window=DEFAULT_WINDOW):
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


# Work cap of each coefficient scan (is_integral, is_algebraic,
# tangible_coefficient_representation): the c ** k coefficient tuples of
# each length k, c the pool's size, are charged before that length is
# scanned, and once the charges pass MAX_COEFF_TUPLES the answer is UNKNOWN.
MAX_COEFF_TUPLES = 200000


def _coefficient_tuples(pool, lengths):
    """The tuples over ``pool`` of each length in ``lengths``, in scan order,
    each length charged before it is scanned; None once the charges pass
    MAX_COEFF_TUPLES."""
    charged = 0
    for k in lengths:
        charged += len(pool) ** k
        if charged > MAX_COEFF_TUPLES:
            yield None
            return
        yield from itertools.product(pool, repeat=k)


def _spent():
    return Verdict(UNKNOWN, bound=MAX_COEFF_TUPLES,
                   detail="work cap MAX_COEFF_TUPLES=%d spent" % MAX_COEFF_TUPLES)


def is_integral(ext, y, degree_bound=3, window=DEFAULT_WINDOW):
    """Search for a0..a_{n-1} in the base with sum a_i y^i below y^n in the
    surpassing order; minimal n, lexicographically first witness."""
    p = ext.ext
    base = ext.base.elements(window)
    complete = ext.base.carrier.finite
    unknown = False
    powers = ext.powers(y, degree_bound)
    for coeffs in _coefficient_tuples(base, range(1, degree_bound + 1)):
        if coeffs is None:
            return _spent()
        n = len(coeffs)
        v = p.surpasses(ext.eval_poly(coeffs, powers), powers[n])
        if v:
            return Verdict(YES, witness={"degree": n, "coeffs": coeffs})
        if v is None:
            unknown = True
    if complete and not unknown:
        return Verdict(NO, bound=degree_bound)
    return Verdict(UNKNOWN, bound=degree_bound, detail="windowed coefficient scan")


def is_algebraic(ext, y, degree_bound=3, window=DEFAULT_WINDOW):
    """Search for coefficients with nonzero leading term putting
    sum a_i y^i into the quasi-zeros of the extension. Degree-0 relations
    are excluded: a lone quasi-zero constant says nothing about y."""
    p = ext.ext
    base = ext.base.elements(window)
    zero = ext.base.carrier.zero
    powers = ext.powers(y, degree_bound)
    for coeffs in _coefficient_tuples(base, range(2, degree_bound + 2)):
        if coeffs is None:
            return _spent()
        if coeffs[-1] == zero:
            continue
        if p.in_a0(ext.eval_poly(coeffs, powers)):
            return Verdict(YES, witness={"degree": len(coeffs) - 1,
                                         "coeffs": coeffs})
    if ext.base.carrier.finite:
        return Verdict(NO, bound=degree_bound)
    return Verdict(UNKNOWN, bound=degree_bound, detail="windowed coefficient scan")


def tangible_coefficient_representation(ext, y, s, degree_bound=3, window=DEFAULT_WINDOW):
    """If s = sum b_i y^i is tangible and the base pair is shallow, a
    representation with coefficients in T plus 0 must exist; searched and
    returned."""
    coeff_pool = [ext.base.carrier.zero] + ext.base.tangible_elements(window)
    powers = ext.powers(y, degree_bound)
    for coeffs in _coefficient_tuples(coeff_pool, range(1, degree_bound + 2)):
        if coeffs is None:
            return _spent()
        if ext.eval_poly(coeffs, powers) == s:
            return Verdict(YES, witness={"degree": len(coeffs) - 1,
                                         "coeffs": coeffs})
    return Verdict(NO if ext.base.carrier.finite else UNKNOWN, bound=degree_bound)


# Work cap of one congruence-algebraic search: each pair of candidates the
# dominance index decides, and each base point of each dominating pair, is
# one check. The P^2 pairs are charged before any candidate is built, which
# also bounds the index's P^2 bits.
MAX_CA_CHECKS = 30000000


def is_congruence_algebraic(ext, y, degree_bound=2, window=DEFAULT_WINDOW):
    """Transcendence test per the functional definition: y is congruence
    algebraic when some f1(y) dominating f2(y) fails to dominate at a base
    point. Returns the violating (f1, f2, b) as certificate, and UNKNOWN
    without one, as A[lambda] is infinite. f2(y) dominates f1(y) when each
    coefficient does, so the base relation is tabulated once per exponent
    over the distinct coefficients there, and the f2 dominating f1 are the
    intersection of up-sets, visited in scan order. Each candidate is
    evaluated at y once, and at the base points the first time a dominating
    pair needs it; each pair of values is compared there once. Past
    MAX_CA_CHECKS checks the answer is UNKNOWN with that bound."""
    spent = Verdict(UNKNOWN, bound=MAX_CA_CHECKS,
                    detail="work cap MAX_CA_CHECKS=%d spent" % MAX_CA_CHECKS)
    base_pair = ext.base
    base_pts = base_pair.elements(window)
    checks = len(base_pts) ** (2 * degree_bound + 2)
    if checks > MAX_CA_CHECKS:
        return spent
    zero = base_pair.carrier.zero
    monos = [(k,) for k in range(degree_bound + 1)]
    powers = ext.powers(y, degree_bound)
    choices = list(itertools.product(base_pts, repeat=len(monos)))
    at_y = [ext.eval_poly(choice, powers).terms for choice in choices]

    # ups[i] has bit j set when f2 = choices[j] dominates f1 = choices[i] at
    # y; a coefficient that is zero on both sides puts no condition
    ups = [(1 << len(choices)) - 1] * len(choices)
    for e in set().union(*at_y):
        coeffs = [t.get(e, zero) for t in at_y]
        holders = {}
        for j, a in enumerate(coeffs):
            holders[a] = holders.get(a, 0) | 1 << j
        up = {a: sum(mask for b, mask in holders.items()
                     if a == b == zero or base_pair.surpasses(b, a) is True)
              for a in holders}
        for i, a in enumerate(coeffs):
            ups[i] &= up[a]

    polys, rows = {}, {}

    def row(i):
        # candidate i and its values at the base points, on first need
        if i not in rows:
            polys[i] = Polynomial(base_pair, 1, dict(zip(monos, choices[i])))
            rows[i] = [poly_eval(polys[i], (b,)) for b in base_pts]
        return rows[i]

    class Fails(dict):
        # (f2(b), f1(b)) -> whether the base relation refuses it
        def __missing__(self, pair):
            self[pair] = base_pair.surpasses(*pair) is False
            return self[pair]

    fails = Fails().__getitem__
    for i, up in enumerate(ups):
        while up:
            low = up & -up
            up ^= low
            j = low.bit_length() - 1
            # a dominating pair is charged all its base points up front
            checks += len(base_pts)
            if checks > MAX_CA_CHECKS:
                return spent
            hits = list(map(fails, zip(row(j), row(i))))
            if True in hits:
                return Verdict(YES, witness={"f1": polys[i], "f2": polys[j],
                                             "point": base_pts[hits.index(True)]})
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
