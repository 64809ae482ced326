"""Carrier semirings: finite table-based, symbolic infinite, and the named
constructions (Boolean, truncated max-plus, max-plus integers, supertropical
extensions, doubling)."""

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field

from .errors import AxiomReport, StructureError, UnsupportedStructureError
from .pairs import DEFAULT_WINDOW, SemiringPair


class Carrier:
    """Arithmetic every carrier derives from its ``mul`` and ``one``."""

    def power(self, x, k):
        acc = self.one
        for _ in range(k):
            acc = self.mul(acc, x)
        return acc


def twist_product(c, x, y):
    """(a1,a1') * (a2,a2') = (a1 a2 + a1' a2', a1 a2' + a1' a2), over any
    object ``c`` with ``add`` and ``mul``."""
    a1, b1 = x
    a2, b2 = y
    return (c.add(c.mul(a1, a2), c.mul(b1, b2)),
            c.add(c.mul(a1, b2), c.mul(b1, a2)))


class Labelled:
    """Elements 0..n-1, each named by one of distinct ``labels``."""

    def __init__(self, labels):
        self.labels = list(labels)
        self.n = len(self.labels)
        if len(set(self.labels)) != self.n:
            raise StructureError("duplicate element labels")

    def elements(self):
        return range(self.n)

    def label(self, x):
        return self.labels[x]

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise StructureError("unknown element label %r" % (label,)) from None

    def _check_table(self, which, table, rows, units):
        """Refuse ``table`` unless it is n x n, each element its entries name
        is in range, and so is each of ``units``. ``rows`` lists those
        elements row by row (the table itself when each entry is one
        element); it is read once the shape is checked."""
        n = self.n
        if len(table) != n or any(len(row) != n for row in table):
            raise StructureError("%s table is not %dx%d" % (which, n, n))
        for row in rows:
            for v in row:
                if not (0 <= v < n):
                    raise StructureError("%s table entry %r out of range" % (which, v))
        if not all(0 <= u < n for u in units):
            raise StructureError("zero/one index out of range")


class FiniteSemiring(Labelled, Carrier):
    """A finite carrier given by Cayley tables. Elements are indices into
    ``labels``; the constructor validates shape, not axioms."""

    finite = True

    def __init__(self, labels, add_table, mul_table, zero, one, name=""):
        super().__init__(labels)
        self._check_table("add", add_table, add_table, ())
        self._check_table("mul", mul_table, mul_table, (zero, one))
        self.add_table = [list(r) for r in add_table]
        self.mul_table = [list(r) for r in mul_table]
        self.zero = zero
        self.one = one
        self.name = name or "semiring"

    def sample(self, window):
        return list(self.elements())

    def add(self, x, y):
        return self.add_table[x][y]

    def mul(self, x, y):
        return self.mul_table[x][y]

    def __repr__(self):
        return "FiniteSemiring(%s, n=%d)" % (self.name, self.n)


class _Op(property):
    """A carrier operation held in the instance field ``field``: ``c.add`` is
    that function itself, read and set with no Python frame between, and
    ``SymbolicSemiring.add(c, x, y)`` calls it, so a wrapper put on the class
    still sees every call."""

    def __init__(self, field):
        super().__init__(operator.attrgetter(field),
                         lambda c, fn: setattr(c, field, fn))

    def __call__(self, c, x, y):
        return self.fget(c)(x, y)


@dataclass
class SymbolicSemiring(Carrier):
    """An infinite carrier presented by rules. ``sample_fn(window)`` yields a
    finite probe set; axiom checks on such carriers are windowed, never
    exhaustive."""

    name: str
    add_fn: object
    mul_fn: object
    zero: object
    one: object
    sample_fn: object
    label_fn: object = repr
    finite: bool = field(default=False, init=False)

    add = _Op("add_fn")
    mul = _Op("mul_fn")

    def sample(self, window):
        return self.sample_fn(window)

    def label(self, x):
        return self.label_fn(x)

    def __repr__(self):
        return "SymbolicSemiring(%s)" % self.name


def tabulate(carrier, elements):
    """The table semiring of a carrier closed on ``elements``, and the map
    from each element to its index. Elements keep their order; labels, name,
    zero and one come from the carrier."""
    elements = list(elements)
    pos = {e: i for i, e in enumerate(elements)}
    add_table = [[pos[carrier.add(a, b)] for b in elements] for a in elements]
    mul_table = [[pos[carrier.mul(a, b)] for b in elements] for a in elements]
    table = FiniteSemiring(
        [carrier.label(e) for e in elements], add_table, mul_table,
        zero=pos[carrier.zero], one=pos[carrier.one], name=carrier.name,
    )
    return table, pos


def _tabulated_pair(p):
    """A symbolic pair whose carrier closes on its sample, as a table pair.
    The sample of such a carrier is all of it, whatever the window."""
    elements = p.carrier.sample(DEFAULT_WINDOW)
    table, pos = tabulate(p.carrier, elements)
    a0 = frozenset(pos[e] for e in elements if p.in_a0(e))
    tang = frozenset(pos[e] for e in elements if p.is_tangible(e))
    return SemiringPair(table, a0, tang, name=table.name)


def _seeded_indices(n, count):
    """The indices ``count`` calls of random.Random(0).choice would draw from
    a sequence of length n: getrandbits of n's bit length, redrawn while not
    below n."""
    if not n:
        raise IndexError("Cannot choose from an empty sequence")
    getrandbits, k = random.Random(0).getrandbits, n.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


def verify_semiring_axioms(s, window=DEFAULT_WINDOW):
    """Check the semiring axioms on ``s``: exhaustively over all triples for a
    finite carrier, over 2000 triples drawn with a fixed seed from the window
    for a symbolic one."""
    report = AxiomReport(subject=s.name)
    if s.finite:
        elems = list(s.elements())
        triple_iter = itertools.product(elems, repeat=3)
    else:
        elems = list(s.sample(window))
        draws = map(elems.__getitem__, _seeded_indices(len(elems), 3 * 2000))
        triple_iter = zip(draws, draws, draws)
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

    # x+y, y+z, xy, yz and xz are formed once and shared by the five tests
    add, mul = s.add, s.mul
    for x, y, z in triple_iter:
        report.checked += 1
        xy_sum, yz_sum = add(x, y), add(y, z)
        xy, yz, xz = mul(x, y), mul(y, z), mul(x, z)
        if not s.finite and xy_sum != add(y, x):
            report.record("add-commutative", (x, y))
        if add(xy_sum, z) != add(x, yz_sum):
            report.record("add-associative", (x, y, z))
        if mul(xy, z) != mul(x, yz):
            report.record("mul-associative", (x, y, z))
        if mul(x, yz_sum) != add(xy, xz):
            report.record("left-distributive", (x, y, z))
        if mul(xy_sum, z) != add(xz, yz):
            report.record("right-distributive", (x, y, z))
    return report


# ---------------------------------------------------------------------------
# Named carriers


def boolean_semiring():
    """B = {0,1} with 1+1 = 1."""
    return FiniteSemiring(
        labels=["0", "1"],
        add_table=[[0, 1], [1, 1]],
        mul_table=[[0, 0], [0, 1]],
        zero=0,
        one=1,
        name="boolean",
    )


def nmax_trunc(n):
    """Truncated max-plus: {-inf, 0, 1, ..., n} with max and saturating plus.
    Saturation at the top element keeps associativity on a finite table; this
    approximates N_max for closure experiments."""
    if n < 1:
        raise StructureError("truncation bound must be >= 1")
    labels = ["-inf"] + [str(i) for i in range(n + 1)]
    # position i > 0 holds the value i - 1, so max and saturating plus of
    # values are max and min(i + j - 1, n + 1) of positions
    pos = range(n + 2)
    add = [[max(i, j) for j in pos] for i in pos]
    mul = [[0 if 0 in (i, j) else min(i + j - 1, n + 1) for j in pos] for i in pos]
    return FiniteSemiring(labels, add, mul, zero=0, one=1, name="nmax_trunc(%d)" % n)


def nat_plus_times():
    """The natural numbers with ordinary + and *."""
    return SymbolicSemiring(
        name="nat",
        add_fn=operator.add,
        mul_fn=operator.mul,
        zero=0,
        one=1,
        sample_fn=lambda window: list(range(window + 1)),
        label_fn=str,
    )


# ---------------------------------------------------------------------------
# Supertropical extension

# Symbolic supertropical elements: ("z",) is zero, ("t", v) tangible of value
# v, ("g", v) ghost of value v.
ST_ZERO = ("z",)


def st_label(x):
    if x == ST_ZERO:
        return "0"
    tag, v = x
    return str(v) + ("v" if tag == "g" else "")


@dataclass
class OrderedMonoid:
    """A totally ordered multiplicative monoid: finite element list in
    ascending order, or ``elements=None`` for the symbolic integers under +."""

    op: object
    unit: object
    elements: list | None = None

    def sample(self, window):
        if self.elements is not None:
            return list(self.elements)
        return list(range(-window, window + 1))


def trivial_monoid():
    return OrderedMonoid(op=lambda a, b: a, unit=1, elements=[1])


def max_plus_integers():
    return OrderedMonoid(op=operator.add, unit=0, elements=None)


def max_plus_naturals_monoid():
    # still symbolic (infinite); sampled on [0, window]
    m = OrderedMonoid(op=operator.add, unit=0, elements=None)
    m.sample = lambda window: list(range(window + 1))
    return m


def _st_add(gt):
    def add(x, y):
        if x == ST_ZERO:
            return y
        if y == ST_ZERO:
            return x
        vx, vy = x[1], y[1]
        if vx == vy:
            return ("g", vx)
        return x if gt(vx, vy) else y

    return add


def _order(m):
    """The strict order test of a monoid: ``>`` on the symbolic integers, by
    rank in the ascending element list on a finite monoid."""
    if m.elements is None:
        return operator.gt
    rank = {e: i for i, e in enumerate(m.elements)}
    return lambda a, b: rank[a] > rank[b]


def _st_mul(m):
    op = m.op

    def mul(x, y):
        if x == ST_ZERO or y == ST_ZERO:
            return ST_ZERO
        tag = "t" if x[0] == y[0] == "t" else "g"
        return (tag, op(x[1], y[1]))

    return mul


def supertropical_extension(t):
    """The supertropical pair over a totally ordered multiplicative monoid:
    carrier T u Tv u {0}, ghosts a+a = av, quasi-zeros are the ghosts with 0."""
    if not isinstance(t, OrderedMonoid):
        raise UnsupportedStructureError("supertropical extension needs an ordered monoid")
    gt = _order(t)

    def st_surpass(b1, b2):
        # b1 precedes b2 (witness y in A0) has a closed form here
        if b1 == b2:
            return True
        if b2 == ST_ZERO or b2[0] != "g":
            return False
        return b1 == ST_ZERO or not gt(b1[1], b2[1])

    carrier = SymbolicSemiring(
        name=("supertropical_symbolic" if t.elements is None
              else "supertropical(%d)" % len(t.elements)),
        add_fn=_st_add(gt),
        mul_fn=_st_mul(t),
        zero=ST_ZERO,
        one=("t", t.unit),
        sample_fn=lambda window: [ST_ZERO]
        + [("t", v) for v in t.sample(window)]
        + [("g", v) for v in t.sample(window)],
        label_fn=st_label,
    )
    p = SemiringPair(
        carrier,
        a0=lambda x: x == ST_ZERO or x[0] == "g",
        tangibles=lambda x: x != ST_ZERO and x[0] == "t",
        surpass_fn=st_surpass,
        negation_hint=lambda x: x,
        name=carrier.name,
    )
    return p if t.elements is None else _tabulated_pair(p)


def supertropical_integers():
    """Supertropical pair over max-plus Z (symbolic)."""
    return supertropical_extension(max_plus_integers())


def supertropical_naturals():
    """Supertropical pair over max-plus N (symbolic)."""
    return supertropical_extension(max_plus_naturals_monoid())


# ---------------------------------------------------------------------------
# Doubling


def double(s):
    """Doubling of a carrier: A x A with componentwise addition and twist
    multiplication; the diagonal plays the quasi-zeros, the two axes (minus
    the origin, which admissibility excludes) are the tangibles."""

    def tadd(x, y):
        return (s.add(x[0], y[0]), s.add(x[1], y[1]))

    carrier = SymbolicSemiring(
        name="double(%s)" % s.name,
        add_fn=tadd,
        mul_fn=functools.partial(twist_product, s),
        zero=(s.zero, s.zero),
        one=(s.one, s.zero),
        sample_fn=lambda window: [
            (a, b) for a in s.sample(window) for b in s.sample(window)
        ],
        label_fn=lambda x: "(%s,%s)" % (s.label(x[0]), s.label(x[1])),
    )
    p = SemiringPair(
        carrier,
        a0=lambda x: x[0] == x[1],
        tangibles=lambda x: (x[0] == s.zero) != (x[1] == s.zero),
        tangible_sample=lambda window: [
            (a, s.zero) for a in s.sample(window) if a != s.zero
        ]
        + [(s.zero, a) for a in s.sample(window) if a != s.zero],
        negation_hint=lambda x: (x[1], x[0]),
        name=carrier.name,
    )
    return _tabulated_pair(p) if s.finite else p
