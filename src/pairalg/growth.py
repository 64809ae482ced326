"""Module pairs, bases and rank, growth sequences of affine extensions,
Hilbert series, Gelfand-Kirillov estimates, and Ore-type common-multiple
witnesses over semidomain pairs."""

import functools
import itertools
import math
from statistics import linear_regression

from .errors import (AxiomReport, BoundExhausted, NO, PreconditionError, UNKNOWN,
                     Verdict, YES)
from .pairs import DEFAULT_WINDOW, additive_closure, unspanned


class ModulePair:
    """Finite module M over a pair carrier, with a distinguished submodule
    image N (the quasi-zero layer) and optional tangible vectors."""

    def __init__(self, pair, elements, add, smul, zero, n_image,
                 tangibles=(), name=""):
        self.pair = pair
        self.elements = list(elements)
        self.add = add
        self.smul = smul
        self.zero = zero
        self.n_image = frozenset(n_image)
        self.tangibles = frozenset(tangibles)
        self.name = name or "module-pair"

    def surpasses(self, v1, v2):
        """v1 below v2: some quasi-zero vector tops v1 up to v2."""
        return any(self.add(v1, n) == v2 for n in self.n_image)

    def span(self, gens):
        """Closure of the generators plus N under addition and the action of
        every scalar. The module's addition must commute, as it does in a
        module."""
        seeds = set(self.n_image) | {self.zero} | set(gens)
        acts = [functools.partial(self.smul, a)
                for a in self.pair.carrier.elements()]
        return additive_closure(self.add, seeds, acts)


def verify_module_pair(mp, admissible=False):
    report = AxiomReport(subject=mp.name)
    add, smul = mp.add, mp.smul
    c = mp.pair.carrier
    elems = mp.elements
    for v in elems:
        if add(mp.zero, v) != v:
            report.record("zero-neutral", (v,))
        if smul(c.one, v) != v:
            report.record("unit-action", (v,))
        if smul(c.zero, v) != mp.zero:
            report.record("zero-action", (v,))
    for v, w in itertools.product(elems, repeat=2):
        report.checked += 1
        if add(v, w) != add(w, v):
            report.record("add-commutative", (v, w))
    for a in c.elements():
        for v, w in itertools.product(elems, repeat=2):
            if smul(a, add(v, w)) != add(smul(a, v), smul(a, w)):
                report.record("action-distributive", (a, v, w))
    for a, b in itertools.product(list(c.elements()), repeat=2):
        for v in elems:
            if smul(c.mul(a, b), v) != smul(a, smul(b, v)):
                report.record("action-associative", (a, b, v))
            if smul(c.add(a, b), v) != add(smul(a, v), smul(b, v)):
                report.record("action-add-distributive", (a, b, v))
    for a in mp.pair.a0_elements():
        for v in elems:
            report.checked += 1
            if mp.smul(a, v) not in mp.n_image:
                report.record("a0-action-inside-image", (a, v))
    if admissible:
        for v in unspanned(add, {mp.zero} | mp.tangibles, elems):
            report.record("tangible-spanning", (v,))
        for v in mp.tangibles:
            if v in mp.n_image:
                report.record("tangible-image-disjoint", (v,))
    return report


def free_module_pair(p, n):
    """(A^(n), A0^(n)) with componentwise operations over a finite pair."""
    if not p.carrier.finite:
        raise PreconditionError("free module pair materializes finite carriers only")
    c = p.carrier
    elems = list(itertools.product(c.elements(), repeat=n))

    def add(v, w):
        return tuple(c.add(a, b) for a, b in zip(v, w))

    def smul(a, v):
        return tuple(c.mul(a, x) for x in v)

    zero = tuple(c.zero for _ in range(n))
    n_image = [v for v in elems if all(p.in_a0(x) for x in v)]
    tang = [v for v in elems
            if sum(1 for x in v if x != c.zero) == 1
            and any(p.is_tangible(x) for x in v)]
    return ModulePair(p, elems, add, smul, zero, n_image, tang,
                      name="free^%d" % n)


def unit_vectors(mp, n):
    c = mp.pair.carrier
    return [tuple(c.one if j == i else c.zero for j in range(n))
            for i in range(n)]


def base_check(mp, S, coeff_pool=None):
    """Spanning: every vector tops some combination of S in the module
    order. Independence: dominated combinations force coefficientwise
    domination; None when the base pair's order is undecided on some
    coefficient and fails on none. Exhaustive over the coefficient pool."""
    S = list(S)
    pool = list(coeff_pool) if coeff_pool is not None else list(mp.pair.carrier.elements())
    c = mp.pair.carrier

    def combo(coeffs):
        acc = mp.zero
        for a, s in zip(coeffs, S):
            acc = mp.add(acc, mp.smul(a, s))
        return acc

    spans = True
    span_witness = None
    for v in mp.elements:
        if not any(mp.surpasses(combo(coeffs), v)
                   for coeffs in itertools.product(pool, repeat=len(S))):
            spans = False
            span_witness = v
            break
    independent = True
    indep_witness = None
    for c1 in itertools.product(pool, repeat=len(S)):
        for c2 in itertools.product(pool, repeat=len(S)):
            if mp.surpasses(combo(c1), combo(c2)):
                below = [mp.pair.surpasses(a, b) for a, b in zip(c1, c2)]
                if False in below:
                    independent = False
                    indep_witness = (c1, c2)
                    break
                if None in below:
                    independent = None
        if independent is False:
            break
    return {
        "spans": spans, "span_witness": span_witness,
        "independent": independent, "independence_witness": indep_witness,
        "is_base": spans and independent,
    }


# Rank search caps: modules past MAX_RANK_MODULE elements are refused, and no
# generating set past MAX_RANK_GENERATORS elements is tried.
MAX_RANK_MODULE = 16
MAX_RANK_GENERATORS = 6


def rank(mp):
    """[M : N]: minimal number of extra generators whose span together with
    N recovers all of M. Exhaustive by increasing cardinality."""
    if len(mp.elements) > MAX_RANK_MODULE:
        raise BoundExhausted("module has %d elements; rank search is capped at "
                             "MAX_RANK_MODULE=%d"
                             % (len(mp.elements), MAX_RANK_MODULE))
    target = set(mp.elements)
    if mp.span([]) == target:
        return 0
    for k in range(1, MAX_RANK_GENERATORS + 1):
        for combo in itertools.combinations(mp.elements, k):
            if mp.span(combo) == target:
                return k
    raise BoundExhausted("no generating set of size <= MAX_RANK_GENERATORS=%d"
                         % MAX_RANK_GENERATORS)


def module_morphisms(mp_src, mp_dst):
    """All maps commuting with addition and the action; exhaustive, for
    small modules only."""
    out = []
    src, dst = mp_src.elements, mp_dst.elements
    scalars = list(mp_src.pair.carrier.elements())
    for images in itertools.product(dst, repeat=len(src)):
        f = dict(zip(src, images))
        if f[mp_src.zero] != mp_dst.zero:
            continue
        ok = all(f[mp_src.add(v, w)] == mp_dst.add(f[v], f[w])
                 for v in src for w in src)
        ok = ok and all(f[mp_src.smul(a, v)] == mp_dst.smul(a, f[v])
                        for a in scalars for v in src)
        if ok:
            out.append(f)
    return out


# ---------------------------------------------------------------------------
# Growth of monoid semialgebras

FREE = "free"
COMMUTATIVE = "commutative"
MATRIX_UNITS = "matrix_units"

# Word cap: a growth sequence stops after the first length at which more than
# MAX_WORDS words have been seen, and reports itself truncated.
MAX_WORDS = 200000


class MonoidModel:
    """Multiplicative monoid whose elements label a basis of the extension
    over the base pair. mul may return None for an absorbed (zero) product."""

    def __init__(self, generators, mul, unit, name):
        self.generators = list(generators)
        self.mul = mul
        self.unit = unit
        self.name = name


def free_words_model(t):
    letters = [("x%d" % i,) for i in range(1, t + 1)]
    return MonoidModel(letters, lambda u, v: u + v, (), name="free-%d" % t)


def commutative_model(t):
    gens = [tuple(1 if j == i else 0 for j in range(t)) for i in range(t)]

    def mul(u, v):
        return tuple(a + b for a, b in zip(u, v))

    return MonoidModel(gens, mul, tuple(0 for _ in range(t)),
                       name="poly-%d" % t)


def matrix_units_model(n):
    gens = [("e", i, j) for i in range(n) for j in range(n)]

    def mul(u, v):
        if u == ("1",):
            return v
        if v == ("1",):
            return u
        return ("e", u[1], v[2]) if u[2] == v[1] else None

    return MonoidModel(gens, mul, ("1",), name="matrix-units-%d" % n)


def build_model(kind, size):
    if kind == FREE:
        return free_words_model(size)
    if kind == COMMUTATIVE:
        return commutative_model(size)
    if kind == MATRIX_UNITS:
        return matrix_units_model(size)
    raise PreconditionError("unknown growth model %r" % kind)


class GrowthProfile:
    def __init__(self, model, d, cumulative, truncated):
        self.model = model
        self.d = list(d)  # d[0] is the degree-0 layer (the unit)
        self.cumulative = list(cumulative)
        self.truncated = truncated

    def as_json(self):
        return {"model": self.model.name, "d": self.d,
                "cumulative": self.cumulative, "truncated": self.truncated}


def growth_sequence(model, kmax):
    """d_k = basis words first reached at length k, by breadth-first search
    from the unit. Past MAX_WORDS words seen, the profile stops at that
    length and is marked truncated."""
    seen = {model.unit}
    level = [model.unit]
    d = [1]
    cumulative = [1]
    truncated = False
    for _ in range(kmax):
        nxt = []
        for w in level:
            for g in model.generators:
                u = model.mul(w, g)
                if u is not None and u not in seen:
                    seen.add(u)
                    nxt.append(u)
        d.append(len(nxt))
        cumulative.append(cumulative[-1] + len(nxt))
        level = nxt
        if len(seen) > MAX_WORDS:
            truncated = True
            break
    return GrowthProfile(model, d, cumulative, truncated)


def binomial(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def poly_closed_form(t, kmax):
    """Coefficients of 1/(1-lambda)^t up to degree kmax."""
    return [binomial(k + t - 1, t - 1) for k in range(kmax + 1)]


def hilbert_series(profile):
    return {"coefficients": profile.d[1:], "d0": profile.d[0],
            "model": profile.model.name}


def gk_dimension(profile):
    """Least-squares slope of log cumulative rank against log k over the
    top half of the profile; geometric cumulative growth raises the
    divergent flag instead of an estimate."""
    cum = profile.cumulative
    if len(cum) < 5:
        raise PreconditionError("need kmax >= 4 for a GK estimate")
    tail = cum[-4:]
    ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0]
    if ratios and min(ratios) >= 1.5:
        return {"divergent": True, "estimate": None, "kmax": len(cum) - 1}
    start = max(1, (len(cum) - 1) // 2)
    xs = [math.log(k) for k in range(start, len(cum)) if cum[k] > 0]
    ys = [math.log(cum[k]) for k in range(start, len(cum)) if cum[k] > 0]
    if len(set(xs)) < 2:
        raise PreconditionError("not enough usable points for the slope")
    slope, _ = linear_regression(xs, ys)
    return {"divergent": False, "estimate": slope, "kmax": len(cum) - 1}


# ---------------------------------------------------------------------------
# Semidomain and the common-multiple witness


def is_semidomain(p, window=DEFAULT_WINDOW):
    """Every tangible regular over A0: t b or b t in the quasi-zeros forces
    b there already."""
    mul, in_a0 = p.carrier.mul, p.in_a0
    outside = [b for b in p.elements(window) if not in_a0(b)]
    for t in p.tangible_elements(window):
        for b in outside:
            if in_a0(mul(t, b)) or in_a0(mul(b, t)):
                return Verdict(NO, witness=(t, b))
    return Verdict.held(p.carrier.finite, window)


# Work cap of the common-multiple search: each degree's coefficient tuples,
# (1 + tangibles) ** monomials of them, are charged before that degree is
# scanned, and once the charges pass MAX_ORE_TUPLES the answer is UNKNOWN.
MAX_ORE_TUPLES = 200000


def ore_witness(p, a1, a2, degree_bound=2, window=DEFAULT_WINDOW):
    """Searches tangible-coefficient g, h with g(a1,a2) a1 + h(a1,a2) a2 in
    A0 while g(a1,a2) and h(a1,a2) stay outside; returns b1, b2. A pair that
    is not a semidomain raises PreconditionError. The coefficient tuples of
    each degree are evaluated once, and only the first tuple of each value,
    in scan order, is searched: it is the one the full scan would reach
    first. Past MAX_ORE_TUPLES tuples the answer is UNKNOWN with that
    bound."""
    sd = is_semidomain(p, window)
    if sd.status == NO:
        raise PreconditionError("not a semidomain pair: %r" % (sd.witness,))
    c = p.carrier
    pool = [c.zero] + p.tangible_elements(window)
    monos = [(i, j) for i in range(degree_bound + 1)
             for j in range(degree_bound + 1 - i)]
    by_degree = {}
    tuples = 0

    def outside(deg):
        # value -> first coefficients (as a dict) of the values outside A0;
        # None once the degree's tuples would pass the cap
        nonlocal tuples
        if deg not in by_degree:
            dmonos = [m for m in monos if m[0] + m[1] <= deg]
            tuples += len(pool) ** len(dmonos)
            if tuples > MAX_ORE_TUPLES:
                return None
            firsts = by_degree[deg] = {}
            for co in itertools.product(pool, repeat=len(dmonos)):
                b = value_at(p, dmonos, co, a1, a2)
                if b is not None and b not in firsts and not p.in_a0(b):
                    firsts[b] = dict(zip(dmonos, co))
        return by_degree[deg]

    for total in range(0, 2 * degree_bound + 1):
        for gdeg in range(min(total, degree_bound) + 1):
            hdeg = total - gdeg
            if hdeg > degree_bound:
                continue
            firsts = outside(gdeg)
            # the h-degree is scanned only once a g-value is there to pair
            seconds = firsts and outside(hdeg)
            if firsts is None or seconds is None:
                return Verdict(UNKNOWN, bound=MAX_ORE_TUPLES,
                               detail="work cap MAX_ORE_TUPLES=%d spent"
                               % MAX_ORE_TUPLES)
            for b1, g in firsts.items():
                for b2, h in seconds.items():
                    if p.in_a0(c.add(c.mul(b1, a1), c.mul(b2, a2))):
                        return Verdict(YES, witness={"b1": b1, "b2": b2,
                                                     "g": g, "h": h})
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
