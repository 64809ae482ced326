"""The symbolic-layer searches that evaluate once and scan stored values
replaced, kept as references: the surpassing-axiom check that asks
``surpasses`` inside every quadruple of the sample, the congruence-algebraic
test that evaluates both candidate polynomials at y for every pair and at
every base point again, the root scan that evaluates each point with
``poly_eval``, the semiring-axiom check that draws its triples with
``random.choice``, and the Ore-type witness search that evaluates every
h-tuple again for every g-tuple. The bodies are those of the library before
the change, with the ``window`` default spelled out; ``poly_eval``, the
evaluation at y and ``value_at`` are copied in too, so that the references
stay fixed while the library's scans change."""

import itertools
import random

from pairalg.errors import AxiomReport, NO, PreconditionError, UNKNOWN, Verdict, YES
from pairalg.pairs import (PN_NEG_COMPATIBLE, PN_NONE, PN_PROPERTY_N,
                           PN_TANGIBLY_SEPARATING, PropertyNStatus, is_shallow)
from pairalg.polynomials import Polynomial

DEFAULT_WINDOW = 50


def poly_eval(f, point):
    point = tuple(point)
    if len(point) != f.nvars:
        raise PreconditionError("point arity mismatch")
    c = f.pair.carrier
    total = c.zero
    for exp, v in f.terms.items():
        term = v
        for b, k in zip(point, exp):
            if k:
                term = c.mul(term, c.power(b, k))
        total = c.add(total, term)
    return total


def verify_surpassing(p, strong=False, window=DEFAULT_WINDOW, assert_shallow_strong=True):
    report = AxiomReport(subject="%s surpassing" % p.name)
    if not p.carrier.finite:
        report.window = window
    elems = p.elements(window)
    tang = p.tangible_elements(window)

    for c in p.a0_elements(window):
        if p.surpasses(p.carrier.zero, c, window) is False:
            report.record("zero-below-quasi-zero", (c,))

    # reflexivity and transitivity of the partial preorder, on samples
    limit = elems if p.carrier.finite else elems[: min(len(elems), 12)]
    for b in limit:
        if p.surpasses(b, b, window) is False:
            report.record("reflexive", (b,))
    for b1, b2, b3 in itertools.product(limit, repeat=3):
        report.checked += 1
        if (
            p.surpasses(b1, b2, window) is True
            and p.surpasses(b2, b3, window) is True
            and p.surpasses(b1, b3, window) is False
        ):
            report.record("transitive", (b1, b2, b3))

    # additivity (ii) and T-action (iii)
    for b1, b2, c1, c2 in itertools.product(limit, repeat=4):
        if p.surpasses(b1, b2, window) is True and p.surpasses(c1, c2, window) is True:
            if p.surpasses(p.carrier.add(b1, c1), p.carrier.add(b2, c2), window) is False:
                report.record("additive", (b1, b2, c1, c2))
    for a in tang:
        for b1, b2 in itertools.product(limit, repeat=2):
            if p.surpasses(b1, b2, window) is True:
                if p.surpasses(p.carrier.mul(a, b1), p.carrier.mul(a, b2), window) is False:
                    report.record("tangible-action", (a, b1, b2))

    # (iv) restriction to equality on tangibles
    for a, b in itertools.product(tang, repeat=2):
        if a != b and p.surpasses(a, b, window) is True:
            report.record("tangible-equality", (a, b))

    want_strong = strong or (assert_shallow_strong and is_shallow(p, window))
    if want_strong:
        for a in tang:
            for b in limit:
                if b != a and p.surpasses(b, a, window) is True:
                    report.record("strong-tangible-equality", (b, a))
    return report


def is_congruence_algebraic(ext, y, degree_bound=2, window=12, coeffs=None):
    p = ext.ext
    base_pair = ext.base
    pool = coeffs if coeffs is not None else ext.base.elements(window)
    base_pts = ext.base.elements(window)
    monos = [(k,) for k in range(degree_bound + 1)]
    unknown = False
    polys = []
    for choice in itertools.product(pool, repeat=len(monos)):
        polys.append(Polynomial(base_pair, 1, dict(zip(monos, choice))))

    ee = p.carrier

    def eval_ext(f, v_ext):
        # the evaluation ExtensionPair.eval_poly made, power by power
        total = ee.zero
        for k in range(degree_bound + 1):
            total = ee.add(total, ee.mul(ext.embed(f.coeff((k,))), ee.power(v_ext, k)))
        return total

    for f1 in polys:
        for f2 in polys:
            dom = p.surpasses(eval_ext(f2, y), eval_ext(f1, y))
            if dom is None:
                unknown = True
                continue
            if not dom:
                continue
            for b in base_pts:
                holds = base_pair.surpasses(poly_eval(f2, (b,)), poly_eval(f1, (b,)))
                if holds is False:
                    return Verdict(YES, witness={"f1": f1, "f2": f2, "point": b})
                if holds is None:
                    unknown = True
    if unknown or not (ext.base.carrier.finite and ext.ext.carrier.finite):
        return Verdict(UNKNOWN, bound=degree_bound, detail="transcendental at bound")
    return Verdict(NO, bound=degree_bound, detail="transcendental at bound")


def find_preceq_roots(f, domain):
    pts = itertools.product(domain, repeat=f.nvars)
    return [pt for pt in pts if f.pair.in_a0(poly_eval(f, pt))]


# The checks that formed every sum and product where each test needed it:
# the semiring-axiom check with 20 operations per sampled triple, Property N
# forming a + a2 again for every c of the separation test, and the
# semidomain scan testing b for A0 once per tangible.


def verify_semiring_axioms(s, window=DEFAULT_WINDOW):
    report = AxiomReport(subject=getattr(s, "name", "semiring"))
    if s.finite:
        elems = list(s.elements())
        triple_iter = itertools.product(elems, repeat=3)
    else:
        elems = list(s.sample(window))
        rng = random.Random(0)
        triple_iter = (tuple(rng.choice(elems) for _ in range(3)) for _ in range(2000))
        report.window = window

    for x in elems:
        if s.add(s.zero, x) != x or s.add(x, s.zero) != x:
            report.record("zero-neutral", (x,))
        if s.mul(s.one, x) != x or s.mul(x, s.one) != x:
            report.record("one-neutral", (x,))
        if s.mul(s.zero, x) != s.zero or s.mul(x, s.zero) != s.zero:
            report.record("zero-absorbing", (x,))
    if s.finite:
        for x, y in itertools.product(elems, repeat=2):
            if s.add(x, y) != s.add(y, x):
                report.record("add-commutative", (x, y))

    for x, y, z in triple_iter:
        report.checked += 1
        if not s.finite and s.add(x, y) != s.add(y, x):
            report.record("add-commutative", (x, y))
        if s.add(s.add(x, y), z) != s.add(x, s.add(y, z)):
            report.record("add-associative", (x, y, z))
        if s.mul(s.mul(x, y), z) != s.mul(x, s.mul(y, z)):
            report.record("mul-associative", (x, y, z))
        if s.mul(x, s.add(y, z)) != s.add(s.mul(x, y), s.mul(x, z)):
            report.record("left-distributive", (x, y, z))
        if s.mul(s.add(x, y), z) != s.add(s.mul(x, z), s.mul(y, z)):
            report.record("right-distributive", (x, y, z))
    return report


def property_n_status(p, window=DEFAULT_WINDOW):
    tang = p.tangible_elements(window)
    partners = {}
    for a in tang:
        partners[a] = [a2 for a2 in tang if p.in_a0(p.carrier.add(a, a2))]
        if not partners[a]:
            return PropertyNStatus(PN_NONE, partners)
    unique = all(len(v) == 1 for v in partners.values())
    probe = tang if p.carrier.finite else tang[:20]
    separating = True
    for a in probe:
        for c in probe:
            if c == a:
                continue
            if not any(
                p.is_tangible(p.carrier.add(c, a2)) and p.in_a0(p.carrier.add(a, a2)) for a2 in probe
            ):
                separating = False
                break
        if not separating:
            break
    if separating:
        status = PN_TANGIBLY_SEPARATING
    elif unique:
        status = PN_NEG_COMPATIBLE
    else:
        status = PN_PROPERTY_N
    return PropertyNStatus(
        status,
        partners,
        property_n=True,
        neg_compatible=unique,
        tangibly_separating=separating,
    )


def is_semidomain(p, window=20):
    c = p.carrier
    tang = p.tangible_elements(window)
    elems = p.elements(window)
    for t in tang:
        for b in elems:
            if p.in_a0(b):
                continue
            if p.in_a0(c.mul(t, b)) or p.in_a0(c.mul(b, t)):
                return Verdict(NO, witness=(t, b))
    return Verdict(YES) if p.carrier.finite else Verdict(YES, bound=window, detail="windowed")


# The polynomial pair's own relation and layers, and its carrier's sample,
# before it became a SemiringPair over a SymbolicSemiring whose surpass_fn,
# a0 and tangibles predicates and sample_fn stand in for them. ``pp`` is the
# polynomial pair; its base pair is ``pp.base``.


def poly_surpasses(pp, f, g):
    exps = set(f.terms) | set(g.terms)
    zero = pp.base.carrier.zero
    out = True
    for e in exps:
        v = pp.base.surpasses(f.terms.get(e, zero), g.terms.get(e, zero))
        if v is False:
            return False
        if v is None:
            out = None
    return out


def poly_in_a0(pp, f):
    return all(pp.base.in_a0(v) for v in f.terms.values())


def poly_is_tangible(pp, f):
    return len(f.terms) == 1 and pp.base.is_tangible(next(iter(f.terms.values())))


def poly_sample(pp, window):
    coeffs = list(pp.base.carrier.sample(max(2, window // 4)))
    out = []
    for f in pp.enumerate(1, coeffs=coeffs):
        out.append(f)
        if len(out) >= window * window:
            break
    return out


# The Ore-type witness search that evaluated every h-tuple again for every
# g-tuple, with the evaluation it called.


def ore_witness(p, a1, a2, degree_bound=2, window=8):
    sd = is_semidomain(p, window)
    if sd.status == NO:
        raise PreconditionError("not a semidomain pair: %r" % (sd.witness,))
    c = p.carrier
    pool = [c.zero] + p.tangible_elements(window)
    monos = [(i, j) for i in range(degree_bound + 1)
             for j in range(degree_bound + 1 - i)]

    for total in range(0, 2 * degree_bound + 1):
        for gdeg in range(min(total, degree_bound) + 1):
            hdeg = total - gdeg
            if hdeg > degree_bound:
                continue
            gmonos = [m for m in monos if m[0] + m[1] <= gdeg]
            hmonos = [m for m in monos if m[0] + m[1] <= hdeg]
            for gco in itertools.product(pool, repeat=len(gmonos)):
                b1 = value_at(p, gmonos, gco, a1, a2)
                if b1 is None or p.in_a0(b1):
                    continue
                for hco in itertools.product(pool, repeat=len(hmonos)):
                    b2 = value_at(p, hmonos, hco, a1, a2)
                    if b2 is None or p.in_a0(b2):
                        continue
                    s = c.add(c.mul(b1, a1), c.mul(b2, a2))
                    if p.in_a0(s):
                        return Verdict(YES, witness={"b1": b1, "b2": b2,
                                                     "g": dict(zip(gmonos, gco)),
                                                     "h": dict(zip(hmonos, hco))})
    return Verdict(UNKNOWN if not p.carrier.finite else NO, bound=degree_bound,
                   detail="no witness at degree bound")


def value_at(p, monos, coeffs, a1, a2):
    c = p.carrier
    if all(a == c.zero for a in coeffs):
        return None
    acc = c.zero
    for (i, j), a in zip(monos, coeffs):
        if a == c.zero:
            continue
        acc = c.add(acc, c.mul(a, c.mul(c.power(a1, i), c.power(a2, j))))
    return acc
