"""The congruence engine that union-find closure, join enumeration and
classification on the quotient replaced, kept as a reference: the worklist
closure, which rescans the whole relation for every pair it pops, and the
filter over all set partitions, both returning relations (frozensets of
element pairs; the lattice comes sorted as ``enumerate_congruences`` sorts
it); the join enumeration over every principal congruence, before it kept
only the join-irreducible ones; the prime and semiprime criteria over the
whole carrier; and the pairwise meet test for irreducibility."""

import itertools
from operator import itemgetter

from pairalg.congruences import Congruence, NoPairCongruence, _close, _Index
from pairalg.errors import PreconditionError
from pairalg.semirings import twist_product


def meets_t_a0(p, relation):
    for a, b in relation:
        if p.is_tangible(a) and p.in_a0(b):
            return (a, b)
        if p.in_a0(a) and p.is_tangible(b):
            return (a, b)
    return None


def worklist_closure(p, seeds, max_size=200000, require_admissible=True):
    """Least congruence containing the seeds: worklist fixpoint under
    symmetry, transitivity, and componentwise operations with all pairs
    (the diagonal supplies translation and T-action)."""
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
            if require_admissible and meets_t_a0(p, [x]):
                raise NoPairCongruence(x)
            rel.add(x)
            work.append(x)
            if len(rel) > max_size:
                raise PreconditionError("closure exceeded %d pairs" % max_size)

    if require_admissible:
        for s in list(work):
            w = meets_t_a0(p, [s])
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
    return frozenset(rel)


def partitions(items):
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


def partition_lattice(p):
    """All pair-congruences, found by filtering the partitions of the
    element set."""
    elems = list(p.carrier.elements())
    c = p.carrier
    out = []
    for blocks in partitions(elems):
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
        if meets_t_a0(p, rel):
            continue
        out.append(rel)
    return in_lattice_order(p, out)


def in_lattice_order(p, relations):
    """Relations sorted by size, then by their pairs in element order."""
    idx = {e: i for i, e in enumerate(p.carrier.elements())}
    return sorted(relations, key=lambda rel: (
        len(rel), sorted((idx[a], idx[b]) for a, b in rel)))


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
        if d1 & d2 == cong:
            return False
    return True


def principal_congruences(ix):
    """The admissible principal congruences Cg(a, b), each with one
    generating pair. Cg(ta, tb) lies in Cg(a, b) for every translation t, so
    each closure starts from the largest such Cg found so far, and one that
    meets T x A0 shows that Cg(a, b) does too."""
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
            principal.setdefault(g[1], pair)
    return principal


def principal_join_lattice(p):
    """All pair-congruences on a finite carrier: the diagonal closed under
    joins with every admissible principal congruence Cg(a, b); a join with
    Cg(a, b) is skipped when the base already relates a and b, and a join
    that meets T x A0 is dropped. Sorted as ``enumerate_congruences`` sorts
    them."""
    n = len(list(p.carrier.elements()))
    ix = _Index(p)
    if ix.escape(range(n)) is not None:
        return []
    joins = [(a, b, [(x, r) for x, r in enumerate(g) if x != r])
             for g, (a, b) in principal_congruences(ix).items()]
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

    def order(cg):
        pairs = cg._pairs()
        return len(pairs), pairs

    return sorted((Congruence(p, cls, index=ix) for cls in found), key=order)
