"""Congruences on semiring pairs: twist-product algebra, prime and
semiprime classification, radicals, spectra, Krull dimension, quotients,
and kernels.

A congruence is stored as a class array over the carrier's element order:
entry i is the position of the least element in the class of element i.
Such an array is also a union-find forest of depth one, so closure starts
from it directly (Freese, "Computing congruences efficiently", Algebra
Universalis 59, 2008): each merge pushes the merged pair through the
translations x -> x + c, x -> xc and x -> cx."""

import itertools
from functools import cached_property, partial, reduce
from operator import itemgetter

from .errors import (
    BoundExhausted, NO, PreconditionError, StructureError,
    UnsupportedStructureError, Verdict, YES,
)
from .semirings import FiniteSemiring, tabulate, twist_product
from .pairs import SemiringPair, additive_closure, verify_admissible

# Marker returned when a closure or an intersection has no pair-congruence
# to give back (the radical escapes into T x A0, or the prime set is empty).
NO_PAIR_CONGRUENCE = "no pair-congruence"

TANGIBLE, QUASI_ZERO = 1, 2

# Work caps: enumeration refuses carriers past MAX_ELEMS elements and stops
# past MAX_CONGRUENCES congruences (Bell(8), the most an 8-element carrier can
# have), and one classification run stops past MAX_TWIST_PRODUCTS twist
# products (under a second of CPU time on a 2-core x86-64 host).
MAX_ELEMS = 64
MAX_CONGRUENCES = 4140
MAX_TWIST_PRODUCTS = 1000000


class NoPairCongruence(StructureError):
    """Closure of the seeds meets T x A0: no pair-congruence contains them."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__("no pair-congruence contains seeds; closure hits %r in T x A0" % (witness,))


class _Index:
    """A finite pair by positions: its elements in order, the position of
    each, the translation tables (add, mul, and mul by columns unless mul is
    commutative) and a kind per element, TANGIBLE | QUASI_ZERO bits."""

    def __init__(self, p):
        c = p.carrier
        if isinstance(c, FiniteSemiring):
            # elements are 0..n-1, so the range maps each to itself
            self.elems = self.pos = c.elements()
            add, mul = c.add_table, c.mul_table
        else:
            self.elems = list(c.elements())
            table, self.pos = tabulate(c, self.elems)
            add, mul = table.add_table, table.mul_table
        cols = [list(col) for col in zip(*mul)]
        self.tables = (add, mul) if cols == mul else (add, mul, cols)
        self.kind = [(TANGIBLE if p.is_tangible(e) else 0)
                     | (QUASI_ZERO if p.in_a0(e) else 0) for e in self.elems]

    def escape(self, cls):
        """Element pair (tangible, quasi-zero) inside one class, or None."""
        tan, zer = {}, {}
        for x, r in enumerate(cls):
            if self.kind[x] & TANGIBLE:
                tan.setdefault(r, x)
            if self.kind[x] & QUASI_ZERO:
                zer.setdefault(r, x)
        for r, x in tan.items():
            if r in zer:
                return self.elems[x], self.elems[zer[r]]
        return None


def _close(ix, seeds, base=None, translate=True, stop=True):
    """Union-find closure of a class array (the diagonal by default) and
    position pairs. With ``translate`` each merge pushes the merged pair
    through every translation, so the result is the least congruence above
    both; without it, the least equivalence, which is the join when the
    seeds are a congruence's pairs. With ``stop``, a merge that meets
    T x A0 raises NoPairCongruence. There are at most n - 1 merges, each
    pushing one pair per table column, so the work is bounded by the
    tables and needs no cap."""
    n = len(ix.kind)
    if base is None:
        parent, mark = list(range(n)), list(ix.kind)
    else:
        parent, mark = list(base), [0] * n
        for x, r in enumerate(base):
            mark[r] |= ix.kind[x]
    tables = ix.tables if translate else ()
    work = list(seeds)
    while work:
        a, b = work.pop()
        # find both roots, halving paths; every parent[x] <= x
        ra, rb = a, b
        while parent[ra] != ra:
            parent[ra] = parent[parent[ra]]
            ra = parent[ra]
        while parent[rb] != rb:
            parent[rb] = parent[parent[rb]]
            rb = parent[rb]
        if ra == rb:
            continue
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra
        mark[ra] |= mark[rb]
        if stop and mark[ra] == TANGIBLE | QUASI_ZERO:
            raise NoPairCongruence(ix.escape(_flatten(parent)))
        for t in tables:
            work.extend(zip(t[a], t[b]))
    return _flatten(parent)


def _flatten(parent):
    """Class array of a union-find forest with every parent[x] <= x: in
    increasing order each parent already points at its root, the least
    element of the class."""
    for x in range(len(parent)):
        parent[x] = parent[parent[x]]
    return tuple(parent)


def _canonical(keys):
    """Class array of the partition by equal keys."""
    first = {}
    return tuple(first.setdefault(k, i) for i, k in enumerate(keys))


def _meet(c1, c2):
    return _canonical(zip(c1, c2))


class Congruence:
    """Equivalence relation on a finite carrier that is closed under the
    componentwise operations, stored as a class array (``cls``).
    Pair-admissible means disjoint from T x A0."""

    def __init__(self, pair, cls, require_admissible=True, index=None):
        self.pair = pair
        self.index = index or _Index(pair)
        self.cls = tuple(cls)
        witness = self.index.escape(self.cls)
        self.admissible = witness is None
        if require_admissible and not self.admissible:
            raise NoPairCongruence(witness)

    def _members(self):
        """Positions in each class, keyed by the class's least position."""
        out = {}
        for x, r in enumerate(self.cls):
            out.setdefault(r, []).append(x)
        return out

    def _pairs(self):
        members = self._members()
        return [(a, b) for a, r in enumerate(self.cls) for b in members[r]]

    @cached_property
    def relation(self):
        """The congruence as a frozenset of element pairs."""
        return frozenset(self.sorted_pairs())

    def __contains__(self, x):
        a, b = x
        pos = self.index.pos
        return self.cls[pos[a]] == self.cls[pos[b]]

    def __eq__(self, other):
        return isinstance(other, Congruence) and self.cls == other.cls

    def __hash__(self):
        return hash(self.cls)

    def __le__(self, other):
        o = other.cls
        return all(o[x] == o[r] for x, r in enumerate(self.cls))

    def __lt__(self, other):
        return self.cls != other.cls and self <= other

    def __and__(self, other):
        return Congruence(self.pair, _meet(self.cls, other.cls),
                          index=self.index)

    def sorted_pairs(self):
        e = self.index.elems
        return [(e[a], e[b]) for a, b in self._pairs()]

    def as_json(self):
        lab = self.pair.carrier.label
        return [[lab(a), lab(b)] for a, b in self.sorted_pairs()]

    def __repr__(self):
        size = len(self._pairs())
        return "Congruence(%d pairs, %d off-diagonal)" % (size, size - len(self.cls))


def diagonal(p):
    ix = _Index(p)
    return Congruence(p, range(len(ix.kind)), index=ix)


def generate_congruence(p, seeds, require_admissible=True):
    """Least congruence containing the seeds, by union-find closure. By
    default raises NoPairCongruence as soon as the closure meets T x A0;
    with require_admissible=False the carrier-level closure is returned and
    the admissible flag records the outcome."""
    if not p.carrier.finite:
        raise PreconditionError("closure needs a finite carrier; truncate first")
    ix = _Index(p)
    pos = ix.pos
    cls = _close(ix, [(pos[a], pos[b]) for a, b in seeds],
                 stop=require_admissible)
    return Congruence(p, cls, require_admissible, ix)


def principal_relation(p, a):
    """{(a1 a, a2 a)} for the principal congruence over a commutative
    carrier; returned as a raw pair set for comparison against closure."""
    c = p.carrier
    return frozenset((c.mul(x, a), c.mul(y, a))
                     for x in c.elements() for y in c.elements())


# ---------------------------------------------------------------------------
# Classification


def _inside(x):
    return x[0] == x[1]


def _quotient(cong, label=None, name=""):
    """The carrier modulo the congruence, as a FiniteSemiring on the class
    numbers 0..k-1 in the order of the classes' least elements, and the
    class number of each position. The tables are read off the least
    elements; ``label`` names a class by its least element (by default the
    class number is its label)."""
    cls, ix = cong.cls, cong.index
    roots = list(dict.fromkeys(cls))
    number = {r: i for i, r in enumerate(roots)}
    image = [number[r] for r in cls]

    def table(t):
        return [[image[t[a][b]] for b in roots] for a in roots]

    add, mul = ix.tables[:2]
    c = cong.pair.carrier
    labels = (range(len(roots)) if label is None
              else [label(ix.elems[r]) for r in roots])
    q = FiniteSemiring(labels, table(add), table(mul),
                       image[ix.pos[c.zero]], image[ix.pos[c.one]], name)
    return q, image


class _Quotient:
    """A congruence's quotient (see ``_quotient``), on which the congruence
    is the diagonal, and the shape that picks the prime and semiprime
    tests: ``commutative`` (mul commutes), ``chain`` (commutative, and
    a + b is a or b) and, when commutative and no chain, ``outside``.
    Scaling a pair by a unit u, x -> x * (u, 0), and swapping its entries
    are bijections of the pairs that keep the diagonal and its complement,
    and (x * (u, 0)) * y = (x * y) * (u, 0), swap(x) * y = swap(x * y). So
    whether x * y lies on the diagonal depends only on the orbits of x and
    y under these maps, and ``outside`` holds one pair (a, b) with a < b per
    orbit off the diagonal."""

    def __init__(self, cong):
        q, _ = _quotient(cong)
        self.carrier = q
        add, mul = q.add_table, q.mul_table
        # _Index keeps mul by columns exactly when mul does not commute, and
        # a quotient of a commutative carrier commutes
        self.commutative = (len(cong.index.tables) == 2
                            or all(r == list(c) for r, c in zip(mul, zip(*mul))))
        self.chain = self.commutative and all(
            s == a or s == b for a, row in enumerate(add) for b, s in enumerate(row))
        self.outside = []
        if not self.commutative or self.chain:
            return
        units = [u for u, row in enumerate(mul) if q.one in row]
        seen = set()
        for x in itertools.combinations(q.elements(), 2):
            if x not in seen:
                self.outside.append(x)
                for u in units:
                    c, d = mul[x[0]][u], mul[x[1]][u]
                    seen.add((c, d) if c < d else (d, c))


class _Work:
    """One classification run: the twist products it may still form, past
    MAX_TWIST_PRODUCTS raising BoundExhausted, and the quotient of the
    congruence it classified last, so that the prime and semiprime tests
    of one congruence build it once."""

    def __init__(self):
        self.left = MAX_TWIST_PRODUCTS
        self.last = None, None

    def spend(self, n):
        self.left -= n
        if self.left < 0:
            raise BoundExhausted(
                "classification exceeded MAX_TWIST_PRODUCTS=%d twist products"
                % MAX_TWIST_PRODUCTS)

    def quotient(self, cong):
        if self.last[0] is not cong:
            self.last = cong, _Quotient(cong)
        return self.last[1]


def _none_inside(q, x, ys, work):
    """Whether no twist product x * y, y in ys, lies on the diagonal; the
    products formed are charged to ``work``."""
    for n, y in enumerate(ys, 1):
        if _inside(twist_product(q, x, y)):
            work.spend(n)
            return False
    work.spend(len(ys))
    return True


def is_semiprime(cong, work=None):
    """Element criterion: x * (AxA) * x inside the congruence forces x in.
    Run on the quotient, where the congruence is the diagonal. On a
    commutative quotient x * z * x = (x * x) * z, a pair on the diagonal
    times any pair stays on it, and z = (1, 0) gives the converse: the
    congruence is semiprime iff no pair of ``outside`` squares onto the
    diagonal. On a chain quotient (a, b)^2 = (a^2 + b^2, ab), and for
    a > b (a + b = a) monotonicity gives a^2 >= ab >= b^2, so the test
    reads the mul table: semiprime iff no a > b has a * a = a * b, with
    no twist product. Any other quotient is scanned: there the pairs (a, b)
    with a <= b stand for all, as a swap of either factor swaps the entries
    of a twist product. The twist products formed are charged to ``work``,
    a fresh run by default. The YES or NO verdict carries no witness."""
    work = work or _Work()
    quo = work.quotient(cong)
    q = quo.carrier
    if quo.chain:
        add, mul = q.add_table, q.mul_table
        return Verdict(NO if any(add[a][b] == a and mul[a][a] == mul[a][b]
                                 for a, b in itertools.permutations(q.elements(), 2))
                       else YES)
    if quo.commutative:
        return Verdict(YES if all(_none_inside(q, x, (x,), work)
                                  for x in quo.outside) else NO)
    pairs = list(itertools.combinations_with_replacement(q.elements(), 2))
    for x in pairs:
        if _inside(x):
            continue
        for tried, y in enumerate(pairs, 1):
            if not _inside(twist_product(q, twist_product(q, x, y), x)):
                break
        else:
            work.spend(2 * tried)
            return Verdict(NO)
        work.spend(2 * tried)
    return Verdict(YES)


def is_prime(cong, work=None):
    """Two-element criterion: x * (AxA) * y inside forces x in or y in.
    Run on the quotient, where the congruence is the diagonal. On a
    commutative quotient x * z * y = (x * y) * z, so as for ``is_semiprime``
    the congruence is prime iff no product of two pairs of ``outside`` lies
    on the diagonal. On a chain quotient that holds iff every row of mul
    but zero's is injective (Joó and Mincheva, "Prime congruences of
    additively idempotent semirings and a Nullstellensatz for tropical
    polynomials", Selecta Math. 24, 2018: the quotient is totally ordered
    and multiplicatively cancellative), a test that forms no product. Any
    other quotient is scanned, with the pairs of ``is_semiprime``. The
    twist products formed are charged to ``work``, a fresh run by default.
    The YES or NO verdict carries no witness."""
    work = work or _Work()
    quo = work.quotient(cong)
    q = quo.carrier
    if quo.chain:
        return Verdict(YES if all(len(set(row)) == q.n
                                  for a, row in enumerate(q.mul_table)
                                  if a != q.zero) else NO)
    if quo.commutative:
        out = quo.outside
        return Verdict(YES if all(_none_inside(q, x, out[i:], work)
                                  for i, x in enumerate(out)) else NO)
    pairs = list(itertools.combinations_with_replacement(q.elements(), 2))
    outside = [x for x in pairs if not _inside(x)]
    for x in outside:
        work.spend(len(pairs))
        left = [twist_product(q, x, z) for z in pairs]
        for y in outside:
            for tried, w in enumerate(left, 1):
                if not _inside(twist_product(q, w, y)):
                    break
            else:
                work.spend(tried)
                return Verdict(NO)
            work.spend(tried)
    return Verdict(YES)


def is_irreducible(cong, lattice):
    """No two strictly larger congruences in the lattice meet exactly in it.
    In a finite lattice closed under meets that holds iff nothing is above
    it or the meet of everything above differs from it. The YES or NO
    verdict carries no witness."""
    above = [d.cls for d in lattice if cong < d]
    return Verdict(YES if not above or reduce(_meet, above) != cong.cls else NO)


def classify_congruence(cong, lattice):
    """Record of prime / semiprime / irreducible, irreducibility read off
    the enumerated lattice. Raises AssertionError unless prime = semiprime
    and irreducible."""
    work = _Work()
    out = {"semiprime": bool(is_semiprime(cong, work)),
           "prime": bool(is_prime(cong, work)),
           "irreducible": bool(is_irreducible(cong, lattice))}
    if out["prime"] != (out["semiprime"] and out["irreducible"]):
        raise AssertionError
    return out


def radical(cong):
    """Twist-power radical: pairs with some twist power inside, then closed
    to a congruence. Returns NO_PAIR_CONGRUENCE when the closure escapes
    into T x A0. On carriers of at most 5 elements, checks that the radical
    contains the congruence, is semiprime and is the intersection of the
    primes above, and raises AssertionError otherwise."""
    p = cong.pair
    if len(cong.index.tables) == 3:
        # _Index keeps mul by columns exactly when mul does not commute
        raise UnsupportedStructureError(
            "twist-power radical is defined for commutative carriers only")
    elems = list(p.carrier.elements())
    members = set()
    for x in itertools.product(elems, repeat=2):
        seen = set()
        y = x
        while y not in seen:
            if y in cong:
                members.add(x)
                break
            seen.add(y)
            y = twist_product(p.carrier, y, x)
    try:
        rad = generate_congruence(p, members)
    except NoPairCongruence:
        return NO_PAIR_CONGRUENCE
    if len(elems) <= 5 and not (
            cong <= rad and is_semiprime(rad)
            and rad == intersection_of_primes_above(
                cong, enumerate_congruences(p))):
        raise AssertionError
    return rad


def intersection_of_primes_above(cong, lattice):
    """Intersection of all primes containing the congruence;
    NO_PAIR_CONGRUENCE when there are none."""
    work = _Work()
    primes = [d for d in lattice if cong <= d and is_prime(d, work)]
    if not primes:
        return NO_PAIR_CONGRUENCE
    cls = primes[0].cls
    for d in primes[1:]:
        cls = _meet(cls, d.cls)
    return Congruence(cong.pair, cls, index=cong.index)


# ---------------------------------------------------------------------------
# Enumeration and spectrum


def _join_generators(ix):
    """The join-irreducible admissible principal congruences, each as
    (a, b, seeds): a generating pair, and the pairs (x, r) of an element x
    and the least element r != x of its class, which seed a join with it.
    Cg(ta, tb) lies in Cg(a, b) for every translation t, so
    each principal closure starts from the largest such Cg found so far, and
    one that meets T x A0 shows that Cg(a, b) does too. A principal g is
    kept unless it is the join of the principals strictly below it: those
    are the Cg(u, v) with (u, v) in g and fewer classes than g, and the
    pairs (u, v) with Cg(u, v) < g are closed under translations, so their
    join is the equivalence they generate, one closure without translations
    per distinct principal. Every principal is the join of kept ones (by
    induction on size), and every congruence is the join of the principals
    below it, so the kept ones generate the lattice under joins."""
    n = len(ix.kind)
    unknown = (n + 1, None)  # more classes than any Cg, so min() passes it over
    found = {}  # (a, b), a < b -> (class count, class array), None if it escapes
    for b in reversed(range(n)):
        for a in reversed(range(b)):
            below = [found.get((u, v) if u < v else (v, u), unknown)
                     for t in ix.tables for u, v in zip(t[a], t[b])]
            if None in below:
                found[a, b] = None
                continue
            base = min(below, key=itemgetter(0))[1]
            try:
                cls = _close(ix, [(a, b)], base)
            except NoPairCongruence:
                found[a, b] = None
                continue
            found[a, b] = (len(set(cls)), cls)
    principal = {}
    for pair, g in found.items():
        if g is not None:
            principal.setdefault(g, pair)
    kept = []
    for (count, g), (a, b) in principal.items():
        members = {}
        for x, r in enumerate(g):
            members.setdefault(r, []).append(x)
        # (u, v) in g, so Cg(u, v) <= g, and equal iff the class counts are
        lower = [uv for m in members.values()
                 for uv in itertools.combinations(m, 2) if found[uv][0] != count]
        if _close(ix, lower, translate=False) != g:
            kept.append((a, b, [(x, r) for x, r in enumerate(g) if x != r]))
    return kept


def enumerate_congruences(p):
    """All pair-congruences on a finite carrier: the diagonal closed under
    joins with the join-irreducible admissible principal congruences
    Cg(a, b) (see ``_join_generators``); a join with Cg(a, b) is skipped
    when the base already relates a and b. Admissible congruences form a
    down-set, so every partial join below an admissible congruence is
    admissible, and a join that meets T x A0 is dropped at once. Sorted by
    relation size then canonical pair order, so the diagonal comes first.
    Carriers past MAX_ELEMS and lattices past MAX_CONGRUENCES raise
    BoundExhausted."""
    if not p.carrier.finite:
        raise PreconditionError("enumeration needs a finite carrier")
    n = len(list(p.carrier.elements()))
    if n > MAX_ELEMS:
        raise BoundExhausted(
            "carrier has %d elements; congruence enumeration is capped at "
            "MAX_ELEMS=%d" % (n, MAX_ELEMS))
    ix = _Index(p)
    if ix.escape(range(n)) is not None:
        return []  # an element in both T and A0: even the diagonal escapes
    joins = _join_generators(ix)
    found = {tuple(range(n))}
    frontier = list(found)
    while frontier:
        base = frontier.pop()
        for a, b, seeds in joins:
            if base[a] == base[b]:
                continue
            try:
                cls = _close(ix, seeds, base, translate=False)
            except NoPairCongruence:
                continue
            if cls not in found:
                found.add(cls)
                frontier.append(cls)
                if len(found) > MAX_CONGRUENCES:
                    raise BoundExhausted(
                        "congruence lattice has more than MAX_CONGRUENCES=%d "
                        "elements" % MAX_CONGRUENCES)

    def order(cg):
        pairs = cg._pairs()
        return len(pairs), pairs

    return sorted((Congruence(p, cls, index=ix) for cls in found), key=order)


def _longest_chain(primes):
    # length counts strict containments, so a single prime gives 0
    order = {i: [j for j, q in enumerate(primes) if primes[i] < q]
             for i in range(len(primes))}
    memo = {}

    def depth(i):
        if i not in memo:
            memo[i] = 1 + max((depth(j) for j in order[i]), default=0)
        return memo[i]

    return max((depth(i) for i in range(len(primes))), default=0) - 1


def prime_spectrum_krull(p):
    """Prime congruences and Krull dimension of a finite pair. Also checks
    that every semiprime congruence is an intersection of a nonempty set of
    primes, and vice versa. The classification of the whole lattice shares
    one budget of MAX_TWIST_PRODUCTS. A mismatch raises AssertionError."""
    lattice = enumerate_congruences(p)
    work = _Work()
    primes, semiprimes = [], set()
    for c in lattice:
        if is_prime(c, work):
            primes.append(c)
        if is_semiprime(c, work):
            semiprimes.add(c.cls)
    # intersections of nonempty sets of primes: the primes closed under meets
    from_primes = additive_closure(None, [q.cls for q in primes],
                                   [partial(_meet, q.cls) for q in primes])
    if semiprimes != from_primes:
        raise AssertionError("semiprime/prime-intersection mismatch")
    dim = _longest_chain(primes) if primes else None
    return {
        "congruences": lattice,
        "primes": primes,
        "krull_dimension": dim,
        "semiprime_count": len(semiprimes),
    }


# ---------------------------------------------------------------------------
# Chain probes


def generated_chain_probe(p, seed_lists):
    """Chain probe where each link is the closure of explicit seeds on a
    finite (truncated) carrier. Verdicts are exact for the truncation."""
    congs = [generate_congruence(p, seeds) for seeds in seed_lists]
    verdicts = []
    for i in range(len(congs) - 1):
        lo, hi = congs[i], congs[i + 1]
        contained = Verdict(YES) if lo <= hi else Verdict(
            NO, witness=next(iter(lo.relation - hi.relation)))
        extra = hi.relation - lo.relation
        strict = Verdict(YES, witness=next(iter(extra))) if extra else Verdict(
            NO, detail="equal on truncation")
        verdicts.append({"link": i, "contained": contained, "strict": strict})
    return congs, verdicts


# ---------------------------------------------------------------------------
# Quotients and kernels


def quotient_pair(p, cong):
    """Pair on the equivalence classes, with induced operations read off
    the class array. Every product of positions is checked against the
    product of their classes, so an ill-defined operation raises rather
    than miscomputes. Admissibility of the quotient is reported on the
    result, not assumed."""
    if not p.carrier.finite:
        raise PreconditionError("quotient needs a finite carrier")
    c = p.carrier
    qcar, image = _quotient(cong, lambda e: "[%s]" % c.label(e),
                            "%s/~" % c.name)
    for t, induced in zip(cong.index.tables, (qcar.add_table, qcar.mul_table)):
        for a, row in enumerate(t):
            on_class = induced[image[a]]
            if any(on_class[i] != image[v] for i, v in zip(image, row)):
                raise StructureError("induced operation ill-defined on classes")
    cls = dict(zip(cong.index.elems, image))
    qa0 = frozenset(cls[x] for x in p.a0_elements())
    qt = frozenset(cls[x] for x in p.tangible_elements())
    q = SemiringPair(qcar, qa0, qt, name="quotient")
    q.admissibility = verify_admissible(q)
    q.class_map = cls
    return q


def verify_pair_homomorphism(f, src, dst, check_a0=True):
    """YES iff f : src -> dst preserves 0, 1, +, x, and A0 unless check_a0
    is off, as for a plain carrier homomorphism. A NO names the failing law
    in ``detail`` and its argument in ``witness``."""
    if not (src.carrier.finite and dst.carrier.finite):
        raise PreconditionError("homomorphism check needs finite carriers")
    s, d = src.carrier, dst.carrier
    for law, unit, image in (("zero", s.zero, d.zero), ("one", s.one, d.one)):
        if f(unit) != image:
            return Verdict(NO, witness=unit, detail=law)
    for a in s.elements():
        if check_a0 and src.in_a0(a) and not dst.in_a0(f(a)):
            return Verdict(NO, witness=a, detail="A0")
        for b in s.elements():
            if f(s.add(a, b)) != d.add(f(a), f(b)):
                return Verdict(NO, witness=(a, b), detail="additivity")
            if f(s.mul(a, b)) != d.mul(f(a), f(b)):
                return Verdict(NO, witness=(a, b), detail="multiplicativity")
    return Verdict(YES)


def congruence_kernel(f, src, dst, check_a0=True):
    """{(y1, y2) : f(y1) = f(y2)} of a homomorphism f, checked first with
    verify_pair_homomorphism. Always a congruence of the carrier; may fail
    pair-admissibility, which is reported through the admissible flag
    rather than raised."""
    v = verify_pair_homomorphism(f, src, dst, check_a0=check_a0)
    if not v:
        raise PreconditionError("not a homomorphism: %s fails at %r"
                                % (v.detail, v.witness))
    ix = _Index(src)
    cls = _canonical(f(a) for a in ix.elems)
    if _close(ix, enumerate(cls), stop=False) != cls:
        raise StructureError("kernel not closed under the operations")
    return Congruence(src, cls, require_admissible=False, index=ix)


# ---------------------------------------------------------------------------
# Levitzki-style sequence


def levitzki_sequence(cong, start):
    """Follows the s-sequence s -> s * a * s (a chosen so the product stays
    outside the congruence) for at most 64 steps. On a finite carrier it
    either cycles, showing the start generates an endless sequence, or
    terminates at an element whose sandwich products all fall inside: a
    semiprimeness violation witness when that element is outside the
    congruence."""
    c = cong.pair.carrier
    elems = list(c.elements())
    cross = [(a, b) for a in elems for b in elems]
    if start in cong:
        raise PreconditionError("start the sequence outside the congruence")
    seq = [start]
    seen = {start}
    for _ in range(64):
        s = seq[-1]
        sandwiches = (twist_product(c, twist_product(c, s, a), s) for a in cross)
        nxt = next((w for w in sandwiches if w not in cong), None)
        if nxt is None:
            return {"terminated": True, "witness": s, "sequence": seq}
        if nxt in seen:
            return {"terminated": False, "witness": None, "sequence": seq}
        seen.add(nxt)
        seq.append(nxt)
    return {"terminated": False, "witness": None, "sequence": seq}
