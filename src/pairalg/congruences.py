"""Congruences on semiring pairs: twist-product algebra, prime and
semiprime classification, radicals, spectra, Krull dimension, quotients,
and kernels."""

import itertools

from .errors import (
    NO, PreconditionError, StructureError, UnsupportedStructureError, Verdict,
    YES,
)
from .semirings import SymbolicSemiring, tabulate, twist_product
from .pairs import SemiringPair, verify_admissible

# Marker returned when a closure or an intersection has no pair-congruence
# to give back (the radical escapes into T x A0, or the prime set is empty).
NO_PAIR_CONGRUENCE = "no pair-congruence"


class NoPairCongruence(StructureError):
    """Closure of the seeds meets T x A0: no pair-congruence contains them."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__("no pair-congruence contains seeds; closure hits %r in T x A0" % (witness,))


def _meets_t_a0(p, relation):
    for a, b in relation:
        if p.is_tangible(a) and p.in_a0(b):
            return (a, b)
        if p.in_a0(a) and p.is_tangible(b):
            return (a, b)
    return None


class Congruence:
    """Equivalence relation on a finite carrier that is closed under the
    componentwise operations. Stored extensionally as a frozenset of ordered
    pairs. Pair-admissible means disjoint from T x A0."""

    def __init__(self, pair, relation, check=True, require_admissible=True):
        self.pair = pair
        self.relation = frozenset(relation)
        witness = _meets_t_a0(pair, self.relation)
        self.admissible = witness is None
        if require_admissible and not self.admissible:
            raise NoPairCongruence(witness)
        if check:
            self._verify()

    def _verify(self):
        c = self.pair.carrier
        elems = list(c.elements())
        rel = self.relation
        for a in elems:
            if (a, a) not in rel:
                raise StructureError("not reflexive at %r" % (a,))
        for a, b in rel:
            if (b, a) not in rel:
                raise StructureError("not symmetric at %r" % ((a, b),))
        related = {}
        for a, b in rel:
            related.setdefault(a, set()).add(b)
        for a, b in rel:
            for d in related[b]:
                if (a, d) not in rel:
                    raise StructureError("not transitive at %r" % ((a, b, d),))
        for a, b in rel:
            for x in elems:
                if (c.add(a, x), c.add(b, x)) not in rel:
                    raise StructureError("not add-closed at %r" % ((a, b, x),))
                if (c.mul(a, x), c.mul(b, x)) not in rel:
                    raise StructureError("not right-mul-closed at %r" % ((a, b, x),))
                if (c.mul(x, a), c.mul(x, b)) not in rel:
                    raise StructureError("not left-mul-closed at %r" % ((a, b, x),))

    def contains(self, a, b):
        return (a, b) in self.relation

    def __contains__(self, x):
        return x in self.relation

    def __eq__(self, other):
        return isinstance(other, Congruence) and self.relation == other.relation

    def __hash__(self):
        return hash(self.relation)

    def __le__(self, other):
        return self.relation <= other.relation

    def __lt__(self, other):
        return self.relation < other.relation

    def __and__(self, other):
        return Congruence(self.pair, self.relation & other.relation, check=False)

    def classes(self):
        seen = set()
        out = []
        for a in self.pair.carrier.elements():
            if a in seen:
                continue
            block = frozenset(b for x, b in self.relation if x == a)
            seen |= block
            out.append(block)
        return out

    def sorted_pairs(self):
        idx = {e: i for i, e in enumerate(self.pair.carrier.elements())}
        return sorted(self.relation, key=lambda ab: (idx[ab[0]], idx[ab[1]]))

    def as_json(self):
        lab = self.pair.carrier.label
        return [[lab(a), lab(b)] for a, b in self.sorted_pairs()]

    def __repr__(self):
        off = sum(1 for a, b in self.relation if a != b)
        return "Congruence(%d pairs, %d off-diagonal)" % (len(self.relation), off)


def diagonal(p):
    return Congruence(p, ((a, a) for a in p.carrier.elements()), check=False)


def generate_congruence(p, seeds, max_size=200000, require_admissible=True):
    """Least congruence containing the seeds: worklist fixpoint under
    symmetry, transitivity, and componentwise operations with all pairs
    (the diagonal supplies translation and T-action). By default raises
    NoPairCongruence as soon as the closure meets T x A0; with
    require_admissible=False the carrier-level closure is returned and the
    admissible flag records the outcome."""
    if not p.carrier.finite:
        raise PreconditionError("closure needs a finite carrier; truncate first")
    c = p.carrier
    elems = list(c.elements())
    rel = set((a, a) for a in elems)
    work = []
    for s in seeds:
        s = tuple(s)
        if s not in rel:
            rel.add(s)
            work.append(s)

    def push(x):
        if x not in rel:
            if require_admissible and _meets_t_a0(p, [x]):
                raise NoPairCongruence(x)
            rel.add(x)
            work.append(x)
            if len(rel) > max_size:
                raise PreconditionError("closure exceeded %d pairs" % max_size)

    if require_admissible:
        for s in list(work):
            w = _meets_t_a0(p, [s])
            if w:
                raise NoPairCongruence(w)

    while work:
        a, b = work.pop()
        push((b, a))
        for x, y in list(rel):
            if x == b:
                push((a, y))
            if y == a:
                push((x, b))
            push((c.add(a, x), c.add(b, y)))
            push((c.mul(a, x), c.mul(b, y)))
            push((c.mul(x, a), c.mul(y, b)))
    return Congruence(p, rel, check=False, require_admissible=require_admissible)


def principal_relation(p, a):
    """{(a1 a, a2 a)} for the principal congruence over a commutative
    carrier; returned as a raw pair set for comparison against closure."""
    c = p.carrier
    return frozenset((c.mul(x, a), c.mul(y, a))
                     for x in c.elements() for y in c.elements())


# ---------------------------------------------------------------------------
# Classification


def is_semiprime(cong):
    """Element criterion: x * (AxA) * x inside the congruence forces x in."""
    c = cong.pair.carrier
    elems = list(c.elements())
    cross = [(a, b) for a in elems for b in elems]
    for x in cross:
        if x in cong:
            continue
        if all(twist_product(c, twist_product(c, x, y), x) in cong for y in cross):
            return False
    return True


def is_prime(cong):
    """Two-element criterion: x * (AxA) * y inside forces x in or y in."""
    c = cong.pair.carrier
    elems = list(c.elements())
    cross = [(a, b) for a in elems for b in elems]
    outside = [x for x in cross if x not in cong]
    for x in outside:
        for y in outside:
            if all(twist_product(c, twist_product(c, x, z), y) in cong for z in cross):
                return False
    return True


def is_irreducible(cong, lattice):
    """No two strictly larger congruences in the lattice meet exactly in it."""
    above = [d for d in lattice if cong < d]
    for d1, d2 in itertools.combinations(above, 2):
        if d1.relation & d2.relation == cong.relation:
            return False
    return True


def classify_congruence(cong, lattice=None):
    """Record of prime / semiprime / irreducible. Irreducibility needs the
    enumerated lattice; when given, the consistency of
    prime = semiprime and irreducible is asserted."""
    out = {"semiprime": is_semiprime(cong), "prime": is_prime(cong)}
    if lattice is not None:
        out["irreducible"] = is_irreducible(cong, lattice)
        assert out["prime"] == (out["semiprime"] and out["irreducible"])
    return out


def _assert_commutative(p):
    elems = list(p.carrier.elements())
    for a, b in itertools.combinations(elems, 2):
        if p.carrier.mul(a, b) != p.carrier.mul(b, a):
            raise UnsupportedStructureError(
                "twist-power radical is defined for commutative carriers only")


def radical(cong, check=True):
    """Twist-power radical: pairs with some twist power inside, then closed
    to a congruence. Returns NO_PAIR_CONGRUENCE when the closure escapes
    into T x A0. With check=True on small carriers, asserts semiprimeness
    and agreement with the intersection of primes above."""
    p = cong.pair
    _assert_commutative(p)
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
    if check and len(elems) <= 5:
        assert cong <= rad
        assert is_semiprime(rad)
        lattice = enumerate_congruences(p)
        assert rad == intersection_of_primes_above(cong, lattice)
    return rad


def intersection_of_primes_above(cong, lattice):
    """Intersection of all primes containing the congruence;
    NO_PAIR_CONGRUENCE when there are none."""
    primes = [d for d in lattice if cong <= d and is_prime(d)]
    if not primes:
        return NO_PAIR_CONGRUENCE
    rel = primes[0].relation
    for d in primes[1:]:
        rel &= d.relation
    return Congruence(cong.pair, rel, check=False)


# ---------------------------------------------------------------------------
# Enumeration and spectrum


def _bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _partitions(items):
    # restricted growth strings
    n = len(items)
    if n == 0:
        yield []
        return
    rgs = [0] * n
    maxes = [0] * n
    while True:
        blocks = {}
        for i, g in enumerate(rgs):
            blocks.setdefault(g, []).append(items[i])
        yield list(blocks.values())
        i = n - 1
        while i > 0 and rgs[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        m = max(maxes[i - 1], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            maxes[j] = m
        maxes[i] = m


def enumerate_congruences(p, max_elems=8):
    """All pair-congruences on a finite carrier, found by filtering the
    partitions of the element set. Sorted by relation size then canonical
    pair order, so the diagonal comes first."""
    if not p.carrier.finite:
        raise PreconditionError("enumeration needs a finite carrier")
    elems = list(p.carrier.elements())
    if len(elems) > max_elems:
        raise PreconditionError(
            "carrier has %d elements; %d partitions is past the practical bound"
            % (len(elems), _bell(len(elems))))
    c = p.carrier
    out = []
    for blocks in _partitions(elems):
        cls = {}
        for i, block in enumerate(blocks):
            for x in block:
                cls[x] = i
        ok = True
        for block in blocks:
            if not ok:
                break
            rep = block[0]
            for b in block[1:]:
                for x in elems:
                    if (cls[c.add(rep, x)] != cls[c.add(b, x)]
                            or cls[c.mul(rep, x)] != cls[c.mul(b, x)]
                            or cls[c.mul(x, rep)] != cls[c.mul(x, b)]):
                        ok = False
                        break
                if not ok:
                    break
        if not ok:
            continue
        rel = frozenset((a, b) for block in blocks
                        for a in block for b in block)
        if _meets_t_a0(p, rel):
            continue
        out.append(Congruence(p, rel, check=False))
    idx = {e: i for i, e in enumerate(elems)}
    out.sort(key=lambda cg: (len(cg.relation),
                             [(idx[a], idx[b]) for a, b in cg.sorted_pairs()]))
    return out


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


def prime_spectrum_krull(p, max_elems=8):
    """Prime congruences and Krull dimension of a finite pair. Also checks
    that every semiprime congruence is an intersection of a nonempty set of
    primes, and vice versa."""
    lattice = enumerate_congruences(p, max_elems)
    primes = [c for c in lattice if is_prime(c)]
    semiprimes = {c.relation for c in lattice if is_semiprime(c)}
    from_primes = set()
    for k in range(1, len(primes) + 1):
        for subset in itertools.combinations(primes, k):
            rel = subset[0].relation
            for d in subset[1:]:
                rel &= d.relation
            if _meets_t_a0(p, rel) is None:
                from_primes.add(rel)
    assert semiprimes == from_primes, "semiprime/prime-intersection mismatch"
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
    """Pair on the equivalence classes, with induced operations. The class
    carrier is rebuilt as a table semiring; representatives are checked to
    agree, so an ill-defined operation raises rather than miscomputes.
    Admissibility of the quotient is reported on the result, not assumed."""
    if not p.carrier.finite:
        raise PreconditionError("quotient needs a finite carrier")
    c = p.carrier
    blocks = cong.classes()
    elems = list(c.elements())
    order = {e: i for i, e in enumerate(elems)}
    blocks.sort(key=lambda b: min(order[x] for x in b))
    cls = {}
    for i, block in enumerate(blocks):
        for x in block:
            cls[x] = i

    def induced(op):
        def on_classes(i, j):
            vals = {cls[op(x, y)] for x in blocks[i] for y in blocks[j]}
            if len(vals) != 1:
                raise StructureError("induced operation ill-defined on classes")
            return vals.pop()
        return on_classes

    classes = SymbolicSemiring(
        name="%s/~" % getattr(c, "name", "A"),
        add_fn=induced(c.add),
        mul_fn=induced(c.mul),
        zero=cls[c.zero],
        one=cls[c.one],
        sample_fn=lambda window: range(len(blocks)),
        label_fn=lambda i: "[%s]" % c.label(min(blocks[i], key=order.get)),
    )
    qcar, _ = tabulate(classes, range(len(blocks)))
    qa0 = frozenset(cls[x] for x in p.a0_elements())
    qt = frozenset(cls[x] for x in p.tangible_elements())
    q = SemiringPair(qcar, qa0, qt, name="quotient")
    q.admissibility = verify_admissible(q)
    q.class_map = cls
    return q


def verify_pair_homomorphism(f, src, dst, check_a0=True, check_tangibles=False):
    """Checks f : src -> dst preserves 0, 1, +, x. Preservation of A0 and
    of tangibles can be toggled; a plain carrier homomorphism needs neither."""
    if not (src.carrier.finite and dst.carrier.finite):
        raise PreconditionError("homomorphism check needs finite carriers")
    s, d = src.carrier, dst.carrier
    if f(s.zero) != d.zero or f(s.one) != d.one:
        raise PreconditionError("does not preserve 0 or 1")
    for a in s.elements():
        if check_a0 and src.in_a0(a) and not dst.in_a0(f(a)):
            raise PreconditionError("A0 not preserved at %r" % (a,))
        if check_tangibles and src.is_tangible(a) and not dst.is_tangible(f(a)):
            raise PreconditionError("tangibles not preserved at %r" % (a,))
        for b in s.elements():
            if f(s.add(a, b)) != d.add(f(a), f(b)):
                raise PreconditionError("additivity fails at %r" % ((a, b),))
            if f(s.mul(a, b)) != d.mul(f(a), f(b)):
                raise PreconditionError("multiplicativity fails at %r" % ((a, b),))
    return True


def congruence_kernel(f, src, dst, check=True, check_a0=True):
    """{(y1, y2) : f(y1) = f(y2)}. Always a congruence of the carrier; may
    fail pair-admissibility, which is reported through the admissible flag
    rather than raised."""
    if check:
        verify_pair_homomorphism(f, src, dst, check_a0=check_a0)
    rel = frozenset((a, b)
                    for a in src.carrier.elements()
                    for b in src.carrier.elements()
                    if f(a) == f(b))
    return Congruence(src, rel, check=True, require_admissible=False)


# ---------------------------------------------------------------------------
# Levitzki-style sequence


def levitzki_sequence(cong, start, max_steps=64):
    """Follows the s-sequence s -> s * a * s (a chosen so the product stays
    outside the congruence). On a finite carrier it either cycles, showing
    the start generates an endless sequence, or terminates at an element
    whose sandwich products all fall inside: a semiprimeness violation
    witness when that element is outside the congruence."""
    c = cong.pair.carrier
    elems = list(c.elements())
    cross = [(a, b) for a in elems for b in elems]
    if start in cong:
        raise PreconditionError("start the sequence outside the congruence")
    seq = [start]
    seen = {start}
    for _ in range(max_steps):
        s = seq[-1]
        nxt = next((twist_product(c, twist_product(c, s, a), s)
                    for a in cross
                    if twist_product(c, twist_product(c, s, a), s) not in cong), None)
        if nxt is None:
            return {"terminated": True, "witness": s, "sequence": seq}
        if nxt in seen:
            return {"terminated": False, "witness": None, "sequence": seq}
        seen.add(nxt)
        seq.append(nxt)
    return {"terminated": False, "witness": None, "sequence": seq}
