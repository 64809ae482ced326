"""Semiring pairs: a carrier with distinguished quasi-zeros A0 and tangible
monoid T, surpassing relations, Property N and negation maps, reversibility,
centers, and the degeneracy predicates."""

import itertools
import operator
from dataclasses import dataclass

from .errors import (
    NO,
    UNKNOWN,
    AxiomReport,
    PreconditionError,
    UnsupportedStructureError,
    Verdict,
)

DEFAULT_WINDOW = 20


class _Op(property):
    """A rule held in the instance attribute ``field``. Put on a class as
    ``op``, ``obj.op`` is that function itself, read and set with no Python
    frame between, and ``Class.op(obj, *args)`` calls it, so a wrapper put
    on the class still sees every call."""

    def __init__(self, field):
        super().__init__(operator.attrgetter(field),
                         lambda obj, fn: setattr(obj, field, fn))

    def __call__(self, obj, *args):
        return self.fget(obj)(*args)


class SemiringPair:
    """Carrier semiring A with quasi-zero sub-semiring A0 and tangible monoid
    T. For finite carriers A0 and T are index sets; for symbolic ones they are
    membership predicates, with ``tangible_sample`` supplying a probe set.
    Each layer's kind is fixed when the pair is built: ``in_a0`` and
    ``is_tangible`` are the predicate itself or the set's membership test.
    ``surpasses`` is the field ``surpass_rule``: by default the method that
    calls ``surpass_fn(b1, b2)`` when one is given and searches for a
    precedes-zero witness otherwise. A pair whose relation has a closed form
    taking the window as an optional third argument sets ``surpass_rule``
    to it, and ``p.surpasses`` is then that function, with no frame
    between."""

    surpasses = _Op("surpass_rule")

    def __init__(
        self,
        carrier,
        a0,
        tangibles,
        tangible_sample=None,
        surpass_fn=None,
        negation_hint=None,
        name="",
    ):
        self.carrier = carrier
        self.in_a0, self._a0 = _layer(carrier, a0)
        self.is_tangible, self._tang = _layer(carrier, tangibles)
        self._a0_sample = None  # (window, A0 drawn from it) of a predicate A0
        self._tangible_sample = tangible_sample
        self.surpass_fn = surpass_fn
        self.negation_hint = negation_hint
        self.name = name or ("pair(%s)" % carrier.name)

    def elements(self, window=DEFAULT_WINDOW):
        return list(self.carrier.sample(window))

    # -- membership

    def a0_elements(self, window=DEFAULT_WINDOW):
        if self._a0 is not None:
            return list(self._a0)
        return [x for x in self.elements(window) if self.in_a0(x)]

    def tangible_elements(self, window=DEFAULT_WINDOW):
        if self._tangible_sample is not None and not self.carrier.finite:
            return list(self._tangible_sample(window))
        if self._tang is not None:
            return list(self._tang)
        return [x for x in self.elements(window) if self.is_tangible(x)]

    # -- surpassing

    def surpass_rule(self, b1, b2, window=DEFAULT_WINDOW):
        """b1 <= b2 under the pair's surpassing relation. Returns True/False
        on finite carriers, and may return None (unknown within the witness
        window) on symbolic ones."""
        if self.surpass_fn is not None:
            return self.surpass_fn(b1, b2)
        # precedes zero: exists y in A0 with b2 = b1 + y; a predicate A0 is
        # sampled once per window, and the last window's sample kept
        a0 = self._a0
        if a0 is None:
            if self._a0_sample is None or self._a0_sample[0] != window:
                self._a0_sample = (window, self.a0_elements(window))
            a0 = self._a0_sample[1]
        for y in a0:
            if self.carrier.add(b1, y) == b2:
                return True
        # a listed A0 is searched whole, so a miss is decided
        return False if self.carrier.finite or self._a0 is not None else None

    def __repr__(self):
        return "SemiringPair(%s)" % self.name


def _layer(carrier, layer):
    """A layer's membership test, and its members listed once: in the
    carrier's element order on a finite carrier, as given on a symbolic one.
    A predicate layer has no list; it is drawn from the window on demand."""
    if callable(layer):
        return layer, None
    layer = list(layer)
    members = frozenset(layer)
    if carrier.finite:
        layer = [x for x in carrier.elements() if x in members]
    return members.__contains__, tuple(layer)


# ---------------------------------------------------------------------------
# Admissibility and shallowness


def additive_closure(add, seeds, acts=()):
    """Closure of the collection ``seeds`` under an operation ``add`` (None
    for none) and the maps in ``acts``, reaching finitely many values. Each
    map is applied once to each reached value, and at least one of x + y and
    y + x is formed for each pair of reached values, so ``add`` must
    commute."""
    reached = set(seeds)
    frontier = list(seeds)
    while frontier:
        x = frontier.pop()
        for f in acts:
            s = f(x)
            if s not in reached:
                reached.add(s)
                frontier.append(s)
        if add is None:
            continue
        for y in list(reached):
            s = add(x, y)
            if s not in reached:
                reached.add(s)
                frontier.append(s)
    return reached


def unspanned(add, seeds, elements):
    """The members of ``elements``, in order, that sums of ``seeds`` miss.
    The seeds are first closed under x -> add(x, t) for each seed t, with
    the seed on the right. ``additive_closure(add, seeds)`` forms each of
    those sums too, so it reaches a superset; it runs only when the first
    pass misses an element, and decides which ones. So the answer is the
    pairwise closure's for any ``add``, commutative or not."""
    seeds = list(seeds)
    reached = additive_closure(None, seeds,
                               [lambda x, t=t: add(x, t) for t in seeds])
    missed = [x for x in elements if x not in reached]
    if missed:
        reached = additive_closure(add, seeds)
        missed = [x for x in missed if x not in reached]
    return missed


def verify_admissible(p, window=DEFAULT_WINDOW):
    """Check that (A, A0, T) is an admissible pair: A0 a sub-semiring, T a
    multiplicative monoid, the two disjoint, and T u {0} additively spanning A.
    Spanning is only decided for finite carriers; symbolic pairs carry it as
    construction metadata."""
    c = p.carrier
    report = AxiomReport(subject=p.name)
    if not c.finite:
        report.window = window
    a0 = p.a0_elements(window)
    tang = p.tangible_elements(window)
    add, mul = c.add, c.mul
    in_a0, is_tangible = p.in_a0, p.is_tangible

    if not in_a0(c.zero):
        report.record("a0-contains-zero", (c.zero,))
    for x, y in itertools.product(a0, repeat=2):
        report.checked += 1
        if not in_a0(add(x, y)):
            report.record("a0-add-closed", (x, y))
        if not in_a0(mul(x, y)):
            report.record("a0-mul-closed", (x, y))

    if not is_tangible(c.one):
        report.record("tangibles-contain-one", (c.one,))
    for x, y in itertools.product(tang, repeat=2):
        report.checked += 1
        if not is_tangible(mul(x, y)):
            report.record("tangible-mul-closed", (x, y))

    for x in p.elements(window):
        if in_a0(x) and is_tangible(x):
            report.record("a0-tangible-disjoint", (x,))

    if c.finite:
        for x in unspanned(add, set(tang) | {c.zero}, p.elements()):
            report.record("tangible-spanning", (x,))
    return report


def is_shallow(p, window=DEFAULT_WINDOW):
    """YES iff every (sampled) carrier element is tangible or a quasi-zero;
    NO names an element that is neither."""
    for x in p.elements(window):
        if not (p.is_tangible(x) or p.in_a0(x)):
            return Verdict(NO, witness=x)
    return Verdict.held(p.carrier.finite, window)


# ---------------------------------------------------------------------------
# Surpassing relation verification


def verify_surpassing(p, strong=False, window=DEFAULT_WINDOW):
    """Check the surpassing axioms; with ``strong`` also the strengthened
    tangible-equality axiom. Shallow pairs are additionally held to the strong
    form, which is forced for them."""
    finite, add, mul = p.carrier.finite, p.carrier.add, p.carrier.mul
    report = AxiomReport(subject="%s surpassing" % p.name)
    if not finite:
        report.window = window
    elems = p.elements(window)
    tang = p.tangible_elements(window)

    for c in p.a0_elements(window):
        if p.surpasses(p.carrier.zero, c, window) is False:
            report.record("zero-below-quasi-zero", (c,))

    # reflexivity and transitivity of the partial preorder, on samples: the
    # relation is tabulated once on the sample, then scanned
    limit = elems if finite else elems[: min(len(elems), 12)]
    above = [[p.surpasses(b1, b2, window) for b2 in limit] for b1 in limit]
    for i, b in enumerate(limit):
        if above[i][i] is False:
            report.record("reflexive", (b,))
    for (i, b1), (j, b2), (k, b3) in itertools.product(enumerate(limit), repeat=3):
        report.checked += 1
        if above[i][j] is True and above[j][k] is True and above[i][k] is False:
            report.record("transitive", (b1, b2, b3))

    # additivity (ii) and T-action (iii), over the pairs that surpass
    below = [(b1, b2) for b1, row in zip(limit, above)
             for b2, v in zip(limit, row) if v is True]
    for b1, b2 in below:
        for c1, c2 in below:
            if p.surpasses(add(b1, c1), add(b2, c2), window) is False:
                report.record("additive", (b1, b2, c1, c2))
    for a in tang:
        for b1, b2 in below:
            if p.surpasses(mul(a, b1), mul(a, b2), window) is False:
                report.record("tangible-action", (a, b1, b2))

    # (iv) restriction to equality on tangibles
    for a, b in itertools.product(tang, repeat=2):
        if a != b and p.surpasses(a, b, window) is True:
            report.record("tangible-equality", (a, b))

    if strong or is_shallow(p, window):
        for a in tang:
            for b in limit:
                if b != a and p.surpasses(b, a, window) is True:
                    report.record("strong-tangible-equality", (b, a))
    return report


# ---------------------------------------------------------------------------
# Property N, neg-compatibility, negation maps

PN_NONE = "none"
PN_PROPERTY_N = "property_n"
PN_NEG_COMPATIBLE = "neg_compatible"
PN_TANGIBLY_SEPARATING = "tangibly_separating"


@dataclass
class PropertyNStatus:
    status: str
    partners: dict
    property_n: bool = False
    neg_compatible: bool = False
    tangibly_separating: bool = False

    def as_json(self):
        return {
            "status": self.status,
            "property_n": self.property_n,
            "neg_compatible": self.neg_compatible,
            "tangibly_separating": self.tangibly_separating,
        }


def property_n_status(p, window=DEFAULT_WINDOW):
    """Classify the pair's quasi-negation behaviour on tangibles: Property N
    (every a has a tangible partner a' with a + a' in A0), neg-compatibility
    (that partner is unique), tangible separation, probed on the first 20
    tangibles of a symbolic carrier. The reported status is the strongest
    property that holds; the flags carry the full picture. Separation takes
    each a's partners from the partner scan instead of forming a + a' again."""
    tang = p.tangible_elements(window)
    add, in_a0, is_tangible = p.carrier.add, p.in_a0, p.is_tangible
    partners = {}
    for a in tang:
        partners[a] = [a2 for a2 in tang if in_a0(add(a, a2))]
        if not partners[a]:
            return PropertyNStatus(PN_NONE, partners)
    unique = all(len(v) == 1 for v in partners.values())
    probe = tang if p.carrier.finite else tang[:20]
    in_probe = set(probe)
    separating = True
    for a in probe:
        near = [a2 for a2 in partners[a] if a2 in in_probe]
        for c in probe:
            if c == a:
                continue
            if not any(is_tangible(add(c, a2)) for a2 in near):
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


@dataclass
class NegationMap:
    """Additive involution standing in for minus: fn maps carrier elements,
    b + fn(b) lands in A0, and fn fixes A0 setwise."""

    pair: object
    fn: object

    def __call__(self, x):
        return self.fn(x)

    def verify(self, window=DEFAULT_WINDOW):
        p = self.pair
        c = p.carrier
        report = AxiomReport(subject="%s negation" % p.name)
        elems = p.elements(window)
        for b in elems:
            nb = self.fn(b)
            if self.fn(nb) != b:
                report.record("involution", (b,))
            if not p.in_a0(c.add(b, nb)):
                report.record("quasi-zero-sum", (b,))
            if p.in_a0(b) != p.in_a0(nb):
                report.record("a0-stable", (b,))
        limit = elems if c.finite else elems[: min(len(elems), 15)]
        for b, b2 in itertools.product(limit, repeat=2):
            report.checked += 1
            if self.fn(c.add(b, b2)) != c.add(self.fn(b), self.fn(b2)):
                report.record("additive", (b, b2))
            lhs = self.fn(c.mul(b, b2))
            if lhs != c.mul(self.fn(b), b2) or lhs != c.mul(b, self.fn(b2)):
                report.record("multiplicative-slide", (b, b2))
        return report


def derive_negation(p, window=DEFAULT_WINDOW):
    """Extend the unique tangible quasi-negation additively over the carrier.
    Requires a neg-compatible pair; raises on inconsistent extensions."""
    cls = property_n_status(p, window)
    if not cls.neg_compatible:
        raise PreconditionError("pair is not neg-compatible (status: %s)" % cls.status)

    if not p.carrier.finite:
        if p.negation_hint is None:
            raise UnsupportedStructureError(
                "symbolic pair without a negation hint; cannot extend additively"
            )
        neg = NegationMap(p, p.negation_hint)
        rep = neg.verify(window)
        if not rep.valid:
            raise PreconditionError("negation hint fails axioms: %s" % rep.violations[:3])
        return neg

    # the map's graph, closed under componentwise addition, must be a function
    add, zero = p.carrier.add, p.carrier.zero
    graph = additive_closure(
        lambda u, v: (add(u[0], v[0]), add(u[1], v[1])),
        [(zero, zero)] + [(a, a2) for a, (a2,) in cls.partners.items()])
    mapping = {}
    for x, nx in sorted(graph, key=lambda e: (repr(e[0]), repr(e[1]))):
        if mapping.setdefault(x, nx) != nx:
            raise PreconditionError(
                "inconsistent additive extension at %r: %r vs %r" % (x, mapping[x], nx))
    missing = [x for x in p.elements() if x not in mapping]
    if missing:
        raise PreconditionError("negation extension does not reach %r" % missing[:3])
    neg = NegationMap(p, mapping.__getitem__)
    rep = neg.verify()
    if not rep.valid:
        raise PreconditionError("derived map fails negation axioms: %s" % rep.violations[:3])
    return neg


# ---------------------------------------------------------------------------
# Reversibility


def check_reversibility(p, a, window=DEFAULT_WINDOW):
    """Reversibility at a: b + a above zero forces b above a."""
    unknown = False
    for b in p.elements(window):
        above_zero = p.surpasses(p.carrier.zero, p.carrier.add(b, a), window)
        if above_zero is True:
            dominates = p.surpasses(a, b, window)
            if dominates is False:
                return Verdict(NO, witness=b)
            if dominates is None:
                unknown = True
        elif above_zero is None:
            unknown = True
    if unknown:
        return Verdict(UNKNOWN, bound=window)
    return Verdict.held(p.carrier.finite, window)


# ---------------------------------------------------------------------------
# Center, weak bipotence, nondegeneracy


def compute_center(p, window=DEFAULT_WINDOW):
    """Elements z with yz surpassed by zy for every y. Also evaluates the
    cancellation hypothesis (w + y0 + y0' = w forces w + y0 = w) under which
    centrality transfers to the quotient constructions. A symbolic carrier
    is probed on the first 15 elements and quasi-zeros of its window."""
    c = p.carrier
    elems = p.elements(window)
    if not c.finite:
        elems = elems[:15]
    center = []
    for z in elems:
        if all(p.surpasses(c.mul(y, z), c.mul(z, y), window) is True for y in elems):
            center.append(z)
    hyp = True
    a0 = p.a0_elements(window)
    if not c.finite:
        a0 = a0[:15]
    for w in elems:
        for y0, y0p in itertools.product(a0, repeat=2):
            if c.add(c.add(w, y0), y0p) == w and c.add(w, y0) != w:
                hyp = False
                break
        if not hyp:
            break
    return {
        "center": center,
        "is_commutative": len(center) == len(elems),
        "cancellation_hypothesis": hyp,
    }


def check_weakly_bipotent(p, window=DEFAULT_WINDOW):
    """Each pair of tangibles a, a' has a + a' in {a, a'} or a^2 = a'^2."""
    c = p.carrier
    tang = p.tangible_elements(window)
    for a, a2 in itertools.product(tang, repeat=2):
        s = c.add(a, a2)
        if s not in (a, a2) and c.power(a, 2) != c.power(a2, 2):
            return Verdict(NO, witness=(a, a2))
    return Verdict.held(c.finite, window)


def iter_monomials(n_vars, degree_bound):
    """Exponent vectors of total degree <= bound, degree-then-lex order."""
    out = []
    for total in range(degree_bound + 1):
        for combo in itertools.product(range(total + 1), repeat=n_vars):
            if sum(combo) == total:
                out.append(combo)
    return out


def check_nondegenerate(p, degree_bound=2, window=DEFAULT_WINDOW):
    """Every tangible one-variable polynomial within the bounds takes a value
    outside A0 at some tangible point; on a symbolic carrier the
    coefficients are the first 4 tangibles of the window. Returns NO with a
    degenerate polynomial witness otherwise, and on a symbolic carrier, where
    it may leave A0 past the window, UNKNOWN with the first one. For shallow
    pairs a nondegenerate verdict simultaneously certifies that tangible
    polynomials attain a tangible value."""
    from .polynomials import Polynomial, poly_eval

    tang = p.tangible_elements(window)
    coeffs = tang if p.carrier.finite else tang[:4]
    monos = iter_monomials(1, degree_bound)
    points = [(t,) for t in tang]
    # a windowed yes leaves elements past the window unseen, so only an
    # exact one turns a value that is neither tangible nor in A0 into a no
    shallow = is_shallow(p, window)
    shallow = bool(shallow) and shallow.bound is None
    suspect = None
    for r in range(1, len(monos) + 1):
        for support in itertools.combinations(monos, r):
            for cs in itertools.product(coeffs, repeat=r):
                terms = list(zip(support, cs))
                f = Polynomial(p, 1, terms)
                hit = None
                for pt in points:
                    v = poly_eval(f, pt)
                    if not p.in_a0(v):
                        hit = (pt, v)
                        break
                if hit is None:
                    if p.carrier.finite:
                        return Verdict(NO, witness=terms)
                    suspect = suspect or terms
                elif shallow and not p.is_tangible(hit[1]):
                    return Verdict(
                        NO,
                        witness=(terms, hit),
                        detail="shallow pair: value outside A0 is not tangible",
                    )
    if suspect:
        return Verdict(UNKNOWN, suspect, window, "in A0 at every tangible of the window")
    return Verdict.held(p.carrier.finite, window)
