"""Semi-hypergroups and semi-hyperrings: multivalued addition, power-set
pairs, and coset quotients in the style of Krasner."""

import itertools
import operator

from .errors import AxiomReport, BoundExhausted, PreconditionError, StructureError
from .pairs import SemiringPair, additive_closure
from .semirings import Carrier, Labelled


class SemiHypergroup(Labelled):
    """Finite set with a commutative, associative multivalued addition and a
    neutral hyperzero. Table entries are frozensets of element indices."""

    def __init__(self, labels, hyperadd, zero, name=""):
        super().__init__(labels)
        n = self.n
        if len(hyperadd) != n or any(len(row) != n for row in hyperadd):
            raise StructureError("hyperadd table is not %dx%d" % (n, n))
        table = []
        for row in hyperadd:
            new = []
            for cell in row:
                fs = frozenset(cell)
                if not fs:
                    raise StructureError("empty hyperaddition value")
                if any(not (0 <= v < n) for v in fs):
                    raise StructureError("hyperadd entry out of range")
                new.append(fs)
            table.append(new)
        self.hyperadd = table
        self.zero = zero
        self.name = name or "semihypergroup"

    def hadd(self, x, y):
        return self.hyperadd[x][y]

    def hadd_sets(self, s1, s2):
        out = set()
        for a in s1:
            for b in s2:
                out |= self.hadd(a, b)
        return frozenset(out)


class SemiHyperring(SemiHypergroup):
    """Semi-hypergroup plus single-valued multiplication with unit."""

    def __init__(self, labels, hyperadd, mul_table, zero, one, name=""):
        super().__init__(labels, hyperadd, zero, name or "semihyperring")
        n = self.n
        if len(mul_table) != n or any(len(row) != n for row in mul_table):
            raise StructureError("mul table is not %dx%d" % (n, n))
        self.mul_table = [list(r) for r in mul_table]
        self.one = one

    def mul(self, x, y):
        return self.mul_table[x][y]


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
        if h.hadd_sets(h.hadd(a, b), {c}) != h.hadd_sets({a}, h.hadd(b, c)):
            report.record("hyperadd-associative", (a, b, c))
    return report


def verify_semihyperring(h):
    """Exhaustive check of the semi-hyperring axioms: everything from the
    hypergroup plus absorbing hyperzero and elementwise distributivity."""
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


def krasner_hyperfield():
    """K = {0, 1} with 1 [+] 1 = {0, 1}."""
    return SemiHyperring(
        labels=["0", "1"],
        hyperadd=[[{0}, {1}], [{1}, {0, 1}]],
        mul_table=[[0, 0], [0, 1]],
        zero=0,
        one=1,
        name="krasner",
    )


# ---------------------------------------------------------------------------
# Power-set pair

A0_CONTAINS_ZERO = "contains_zero"
A0_SIZE_GE_TWO = "size_ge_two"


def powerset_pair(h, a0_choice=A0_CONTAINS_ZERO):
    """The pair on the additive closure of singletons inside the power set of
    a semi-hyperring. Addition is elementwise, tangibles are the nonzero
    singletons, surpassing is set inclusion. Only subsets reachable from
    singletons are materialized."""
    if not isinstance(h, SemiHyperring):
        raise PreconditionError("power-set pair needs multiplication on the base")
    rep = verify_semihyperring(h)
    if not rep.valid:
        raise PreconditionError("base fails semi-hyperring axioms: %s" % rep.violations[:3])

    singletons = [frozenset([a]) for a in h.elements()]
    elems = sorted(additive_closure(h.hadd_sets, singletons),
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
            return h.hadd_sets(x, y)

        def mul(self, x, y):
            return frozenset(h.mul(a, b) for a in x for b in y)

        def label(self, x):
            return "{%s}" % ",".join(h.label(a) for a in sorted(x))

    carrier_obj = PowersetCarrier()
    if a0_choice == A0_CONTAINS_ZERO:
        a0 = frozenset(s for s in elems if h.zero in s)
    elif a0_choice == A0_SIZE_GE_TWO:
        # the carrier zero {0} is kept in A0 so it stays a sub-semiring with 0
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


# ---------------------------------------------------------------------------
# Coset quotients


def _check_subgroup(mul, one, g):
    g = list(g)
    if one not in g:
        raise PreconditionError("subgroup must contain the unit")
    for a, b in itertools.product(g, repeat=2):
        if mul(a, b) not in g:
            raise PreconditionError("subgroup not multiplicatively closed at (%r, %r)" % (a, b))
    for a in g:
        if not any(mul(a, b) == one for b in g):
            raise PreconditionError("element %r has no inverse in subgroup" % (a,))
    return g


def krasner_quotient(r, g):
    """Coset semi-hyperring R/G of a finite commutative semiring by a
    multiplicative subgroup: [r] boxplus [r'] collects the cosets of all sums
    of representatives. Coset representative is the lowest element index."""
    if not r.finite:
        raise PreconditionError("Krasner quotient needs a finite carrier")
    return hyper_coset_quotient(semiring_as_hyperring(r), g)


def hyper_coset_quotient(h, g):
    """Coset quotient of a finite semi-hyperring by a subgroup of its
    multiplicative monoid. The quotient's axiom report is kept on it as
    ``verification``; a quotient that fails the axioms raises."""
    g = _check_subgroup(h.mul, h.one, g)

    cosets = []
    seen = {}
    cidx = {}
    for x in h.elements():
        c = frozenset(h.mul(x, a) for a in g)
        if c not in seen:
            seen[c] = len(cosets)
            cosets.append(c)
        cidx[x] = seen[c]
    reps = [min(c) for c in cosets]

    hyperadd = [[frozenset(cidx[z] for z in h.hadd_sets(c1, c2))
                 for c2 in cosets] for c1 in cosets]
    mul_table = [[cidx[h.mul(reps[i], reps[j])] for j in range(len(cosets))] for i in range(len(cosets))]
    labels = ["[%s]" % h.label(rep) for rep in reps]
    out = SemiHyperring(
        labels, hyperadd, mul_table,
        zero=cidx[h.zero], one=cidx[h.one],
        name="%s/G" % h.name,
    )
    out.verification = verify_semihyperring(out)
    if not out.verification.valid:
        raise PreconditionError("quotient fails axioms: %s"
                                % out.verification.violations[:3])
    return out


def find_isomorphism(h1, h2, max_size=6):
    """Exhaustive bijection search witnessing an isomorphism of finite
    semi-hyperrings; None if none exists."""
    if h1.n != h2.n:
        return None
    if h1.n > max_size:
        raise BoundExhausted("hyperrings have %d elements; isomorphism search is "
                             "capped at max_size=%d" % (h1.n, max_size))
    for perm in itertools.permutations(range(h2.n)):
        if perm[h1.zero] != h2.zero or perm[h1.one] != h2.one:
            continue
        ok = True
        for a, b in itertools.product(range(h1.n), repeat=2):
            if frozenset(perm[x] for x in h1.hadd(a, b)) != h2.hadd(perm[a], perm[b]):
                ok = False
                break
            if perm[h1.mul(a, b)] != h2.mul(perm[a], perm[b]):
                ok = False
                break
        if ok:
            return dict(enumerate(perm))
    return None


def semiring_as_hyperring(s):
    """View a finite semiring as a single-valued semi-hyperring."""
    hyperadd = [[frozenset([s.add(i, j)]) for j in s.elements()] for i in s.elements()]
    return SemiHyperring(
        list(s.labels), hyperadd, [list(r) for r in s.mul_table],
        zero=s.zero, one=s.one, name=s.name,
    )
