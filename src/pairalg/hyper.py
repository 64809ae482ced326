"""Semi-hypergroups and semi-hyperrings: multivalued addition, power-set
pairs, and coset quotients in the style of Krasner.

A subset of elements is also held as an int bitmask, bit v set iff v is in
it. Subset sums and set-valued products go through ``_sum``, except in the
power-set carrier, which keeps for each subset S the columns a [+] S and a S
over the base elements a and ORs the columns of one operand over the members
of the other. A Krasner quotient reads its coset sums from the semiring's own
addition table, with each entry as a one-bit mask."""

import functools
import itertools
import operator

from .errors import AxiomReport, BoundExhausted, PreconditionError, StructureError
from .pairs import SemiringPair, additive_closure
from .semirings import Carrier, Labelled


def _sum(table, xs, ys):
    """The union of the masks table[x][y] over x in xs and y in ys."""
    out = 0
    for x in xs:
        row = table[x]
        for y in ys:
            out |= row[y]
    return out


def _members(m):
    """The elements of the mask m, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _singletons(table):
    """The masks of a single-valued table's entries."""
    return [[1 << v for v in row] for row in table]


class SemiHypergroup(Labelled):
    """Finite set with a commutative, associative multivalued addition and a
    neutral hyperzero. Table entries are frozensets of element indices in
    ``hyperadd`` and their bitmasks in ``masks``."""

    def __init__(self, labels, hyperadd, zero, name=""):
        super().__init__(labels)
        self._check_table("hyperadd", hyperadd,
                          map(itertools.chain.from_iterable, hyperadd), (zero,))
        table = [[frozenset(cell) for cell in row] for row in hyperadd]
        if not all(map(all, table)):
            raise StructureError("empty hyperaddition value")
        self.hyperadd = table
        self.masks = [[sum(1 << v for v in fs) for fs in row] for row in table]
        self.zero = zero
        self.name = name or "semihypergroup"

    def hadd(self, x, y):
        return self.hyperadd[x][y]

    def hadd_sets(self, s1, s2):
        return frozenset(_members(_sum(self.masks, s1, s2)))


class SemiHyperring(SemiHypergroup):
    """Semi-hypergroup plus single-valued multiplication with unit. A coset
    quotient keeps its axiom report in ``verification``; it is None on a
    structure nothing has checked."""

    def __init__(self, labels, hyperadd, mul_table, zero, one, name=""):
        super().__init__(labels, hyperadd, zero, name or "semihyperring")
        self._check_table("mul", mul_table, mul_table, (one,))
        self.mul_table = [list(r) for r in mul_table]
        self.one = one
        self.verification = None

    def mul(self, x, y):
        return self.mul_table[x][y]


def _entry_sums(table, h):
    """x [table] S and S [table] x for every element x of h and every entry S
    of its hyper-sum table: two lists, indexed by x, of dicts keyed by the
    mask of S."""
    entries = {m: s for masks, sets in zip(h.masks, h.hyperadd)
               for m, s in zip(masks, sets)}
    return ([{m: _sum(table, (x,), s) for m, s in entries.items()}
             for x in h.elements()],
            [{m: _sum(table, s, (x,)) for m, s in entries.items()}
             for x in h.elements()])


def verify_semihypergroup(h):
    report = AxiomReport(subject=h.name)
    masks = h.masks
    elems = h.elements()
    for a in elems:
        if masks[h.zero][a] != 1 << a:
            report.record("hyperzero-neutral", (h.zero, a))
    for a, b in itertools.product(elems, repeat=2):
        if masks[a][b] != masks[b][a]:
            report.record("hyperadd-commutative", (a, b))
    plus_entry, entry_plus = _entry_sums(masks, h)
    for a in elems:
        for b in elems:
            ab = masks[a][b]
            for c in elems:
                if entry_plus[c][ab] != plus_entry[a][masks[b][c]]:
                    report.record("hyperadd-associative", (a, b, c))
    report.checked += h.n ** 3
    return report


def verify_semihyperring(h):
    """Exhaustive check of the semi-hyperring axioms: everything from the
    hypergroup plus absorbing hyperzero and elementwise distributivity."""
    report = verify_semihypergroup(h)
    if not isinstance(h, SemiHyperring):
        raise PreconditionError("multiplication table required")
    masks, mul = h.masks, h.mul_table
    elems = h.elements()
    for a in elems:
        if mul[h.zero][a] != h.zero or mul[a][h.zero] != h.zero:
            report.record("hyperzero-absorbing", (a,))
        if mul[h.one][a] != a or mul[a][h.one] != a:
            report.record("one-neutral", (a,))
    times_entry, entry_times = _entry_sums(_singletons(mul), h)
    for a in elems:
        for b in elems:
            ab, a_plus_b = mul[a][b], masks[a][b]
            for c in elems:
                ac, bc = mul[a][c], mul[b][c]
                if mul[ab][c] != mul[a][bc]:
                    report.record("mul-associative", (a, b, c))
                if times_entry[a][masks[b][c]] != masks[ab][ac]:
                    report.record("left-distributive", (a, b, c))
                if entry_times[c][a_plus_b] != masks[ac][bc]:
                    report.record("right-distributive", (a, b, c))
    report.checked += h.n ** 3
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


class PowersetCarrier(Carrier):
    """The subsets of a semi-hyperring's elements that sums of singletons
    reach, as frozensets. Each subset S is made once from its mask, with two
    columns over the base elements a: the masks of a [+] S and of a S. A sum
    x [+] y is the union of y's plus-column over the members of x, a product
    the same over y's times-column, and the union's mask finds the one
    frozenset of that subset. A subset made elsewhere gets its columns on
    first use.

    The elements are closed one singleton at a time: each subset x reached
    gets {a} [+] x for each base element a, n sums per element, and no two
    larger subsets are added. That reaches every sum of singletons because
    the base's [+] is commutative and associative, which ``powerset_pair``
    checks before it builds the carrier."""

    finite = True

    def __init__(self, h):
        self.h = h
        self.name = "powerset(%s)" % h.name
        self.tables = h.masks, _singletons(h.mul_table)
        self.sets, self.plus, self.times = {}, {}, {}
        singletons = [self._subset(1 << a) for a in h.elements()]
        self.zero, self.one = singletons[h.zero], singletons[h.one]
        acts = [functools.partial(self.add, s) for s in singletons]
        self.elems = sorted(additive_closure(None, singletons, acts),
                            key=lambda s: (len(s), sorted(s)))

    def _subset(self, m):
        """The frozenset of the mask m, made once, with its columns."""
        s = self.sets.get(m)
        if s is None:
            s = self.sets[m] = frozenset(_members(m))
            elems = self.h.elements()
            plus, times = self.tables
            self.plus[s] = [_sum(plus, (a,), s) for a in elems]
            self.times[s] = [_sum(times, (a,), s) for a in elems]
        return s

    def elements(self):
        return list(self.elems)

    def sample(self, window):
        return list(self.elems)

    def add(self, x, y):
        return self._union(self.plus, x, y)

    def mul(self, x, y):
        return self._union(self.times, x, y)

    def _union(self, columns, x, y):
        """The subset that is the union of y's column over the members of x."""
        try:
            col = columns[y]
        except KeyError:
            col = columns[self._subset(sum(1 << b for b in y))]
        m = 0
        for a in x:
            m |= col[a]
        try:
            return self.sets[m]
        except KeyError:
            return self._subset(m)

    def label(self, x):
        return "{%s}" % ",".join(self.h.label(a) for a in sorted(x))


def powerset_pair(h, a0_choice=A0_CONTAINS_ZERO):
    """The pair on the additive closure of singletons inside the power set of
    a semi-hyperring. Addition is elementwise, tangibles are the nonzero
    singletons, surpassing is set inclusion. Only subsets reachable from
    singletons are materialized. A base that carries its axiom report (a
    coset quotient) is not checked again."""
    if not isinstance(h, SemiHyperring):
        raise PreconditionError("power-set pair needs multiplication on the base")
    rep = h.verification or verify_semihyperring(h)
    if not rep.valid:
        raise PreconditionError("base fails semi-hyperring axioms: %s" % rep.violations[:3])

    carrier_obj = PowersetCarrier(h)
    elems = carrier_obj.elems
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
        if mul[a][b] not in g:
            raise PreconditionError("subgroup not multiplicatively closed at (%r, %r)" % (a, b))
    for a in g:
        if not any(mul[a][b] == one for b in g):
            raise PreconditionError("element %r has no inverse in subgroup" % (a,))
    return g


def krasner_quotient(r, g):
    """Coset semi-hyperring R/G of a finite commutative semiring by a
    multiplicative subgroup: [r] boxplus [r'] collects the cosets of all sums
    of representatives. Coset representative is the lowest element index.
    The sums are read from r's own addition table."""
    if not r.finite:
        raise PreconditionError("Krasner quotient needs a finite carrier")
    return _coset_quotient(r, _singletons(r.add_table), g)


def hyper_coset_quotient(h, g):
    """Coset quotient of a finite semi-hyperring by a subgroup of its
    multiplicative monoid. The quotient's axiom report is kept on it as
    ``verification``; a quotient that fails the axioms raises."""
    return _coset_quotient(h, h.masks, g)


def _coset_quotient(h, masks, g):
    """The coset quotient of h by g, with masks[x][y] the mask of x + y."""
    mul = h.mul_table
    g = _check_subgroup(mul, h.one, g)

    cosets = []
    seen = {}
    cidx = {}
    for x in h.elements():
        c = frozenset(mul[x][a] for a in g)
        if c not in seen:
            seen[c] = len(cosets)
            cosets.append(c)
        cidx[x] = seen[c]
    reps = [min(c) for c in cosets]

    hyperadd = [[frozenset(cidx[z] for z in _members(_sum(masks, c1, c2)))
                 for c2 in cosets] for c1 in cosets]
    mul_table = [[cidx[mul[reps[i]][reps[j]]] for j in range(len(cosets))] for i in range(len(cosets))]
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


# The isomorphism search tries every bijection: 720 at this many elements.
MAX_ISOMORPHISM_SIZE = 6


def find_isomorphism(h1, h2):
    """Exhaustive bijection search witnessing an isomorphism of finite
    semi-hyperrings; None if none exists."""
    if h1.n != h2.n:
        return None
    if h1.n > MAX_ISOMORPHISM_SIZE:
        raise BoundExhausted("hyperrings have %d elements; isomorphism search is "
                             "capped at MAX_ISOMORPHISM_SIZE=%d"
                             % (h1.n, MAX_ISOMORPHISM_SIZE))
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
