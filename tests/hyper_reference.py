"""The frozenset hyper-sums that the bitmask kernel replaced, kept as a
reference: subset sums built with ``set |=``, the exhaustive axiom checks
over them, and the power-set pair closed over frozensets with every sum and
product recomputed. The bodies are the library's ``hadd_sets``,
``verify_semihypergroup``, ``verify_semihyperring`` and ``powerset_pair``
before the change."""

import itertools
import operator

from pairalg.errors import AxiomReport, PreconditionError
from pairalg.hyper import A0_CONTAINS_ZERO, A0_SIZE_GE_TWO, SemiHyperring
from pairalg.pairs import SemiringPair, additive_closure
from pairalg.semirings import Carrier


def hadd_sets(h, s1, s2):
    out = set()
    for a in s1:
        for b in s2:
            out |= h.hadd(a, b)
    return frozenset(out)


def verify_semihypergroup(h):
    report = AxiomReport(subject=h.name)
    for a in h.elements():
        if h.hadd(h.zero, a) != frozenset([a]):
            report.record("hyperzero-neutral", (h.zero, a))
    for a, b in itertools.product(h.elements(), repeat=2):
        if h.hadd(a, b) != h.hadd(b, a):
            report.record("hyperadd-commutative", (a, b))
    for a, b, c in itertools.product(h.elements(), repeat=3):
        report.checked += 1
        if hadd_sets(h, h.hadd(a, b), {c}) != hadd_sets(h, {a}, h.hadd(b, c)):
            report.record("hyperadd-associative", (a, b, c))
    return report


def verify_semihyperring(h):
    report = verify_semihypergroup(h)
    if not isinstance(h, SemiHyperring):
        raise PreconditionError("multiplication table required")
    for a in h.elements():
        if h.mul(h.zero, a) != h.zero or h.mul(a, h.zero) != h.zero:
            report.record("hyperzero-absorbing", (a,))
        if h.mul(h.one, a) != a or h.mul(a, h.one) != a:
            report.record("one-neutral", (a,))
    for a, b, c in itertools.product(h.elements(), repeat=3):
        report.checked += 1
        if h.mul(h.mul(a, b), c) != h.mul(a, h.mul(b, c)):
            report.record("mul-associative", (a, b, c))
        if {h.mul(a, x) for x in h.hadd(b, c)} != h.hadd(h.mul(a, b), h.mul(a, c)):
            report.record("left-distributive", (a, b, c))
        if {h.mul(x, c) for x in h.hadd(a, b)} != h.hadd(h.mul(a, c), h.mul(b, c)):
            report.record("right-distributive", (a, b, c))
    return report


def powerset_pair(h, a0_choice=A0_CONTAINS_ZERO):
    if not isinstance(h, SemiHyperring):
        raise PreconditionError("power-set pair needs multiplication on the base")
    rep = verify_semihyperring(h)
    if not rep.valid:
        raise PreconditionError("base fails semi-hyperring axioms: %s" % rep.violations[:3])

    singletons = [frozenset([a]) for a in h.elements()]
    elems = sorted(additive_closure(lambda x, y: hadd_sets(h, x, y), singletons),
                   key=lambda s: (len(s), sorted(s)))

    class PowersetCarrier(Carrier):
        finite = True
        name = "powerset(%s)" % h.name
        zero = frozenset([h.zero])
        one = frozenset([h.one])

        def elements(self):
            return list(elems)

        def sample(self, window=None):
            return list(elems)

        def add(self, x, y):
            return hadd_sets(h, x, y)

        def mul(self, x, y):
            return frozenset(h.mul(a, b) for a in x for b in y)

        def label(self, x):
            return "{%s}" % ",".join(h.label(a) for a in sorted(x))

    carrier_obj = PowersetCarrier()
    if a0_choice == A0_CONTAINS_ZERO:
        a0 = frozenset(s for s in elems if h.zero in s)
    elif a0_choice == A0_SIZE_GE_TWO:
        a0 = frozenset(s for s in elems if len(s) >= 2 or s == carrier_obj.zero)
    else:
        raise PreconditionError("unknown a0 choice %r" % a0_choice)
    tangibles = frozenset(
        s for s in elems if len(s) == 1 and s != carrier_obj.zero and s not in a0
    )
    return SemiringPair(
        carrier_obj,
        a0,
        tangibles,
        surpass_fn=operator.le,
        name="%s[%s]" % (carrier_obj.name, a0_choice),
    )


def coset_hyperadd(h, g):
    """The hyper-sum table of the coset quotient h/G, cosets numbered in
    order of their least element."""
    cosets = []
    seen = {}
    cidx = {}
    for x in h.elements():
        c = frozenset(h.mul(x, a) for a in g)
        if c not in seen:
            seen[c] = len(cosets)
            cosets.append(c)
        cidx[x] = seen[c]
    return [[frozenset(cidx[z] for z in hadd_sets(h, c1, c2))
             for c2 in cosets] for c1 in cosets]
