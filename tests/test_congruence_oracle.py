"""The union-find congruence engine against the worklist closure and the
partition filter it replaced (congruence_reference.py): same lattices in
the same order, same closures, and escape witnesses inside the closure.
Past the partition filter's 8 elements, joins of the join-irreducible
principal congruences give the lattice that joins of every principal
congruence give. Classification on the quotient gives the verdicts of the
criteria run on the whole carrier, and of the pairwise irreducibility
test."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import congruence_reference as ref
from pairalg.congruences import (NoPairCongruence, _close, _Index,
                                 _join_generators, enumerate_congruences,
                                 generate_congruence, is_irreducible, is_prime,
                                 is_semiprime, quotient_pair)
from pairalg.pairs import SemiringPair
from pairalg.semirings import (FiniteSemiring, OrderedMonoid, boolean_semiring,
                               double, nmax_trunc, supertropical_extension)


def table_pair(name, labels, add, mul, zero, one, a0, tangibles):
    n = len(labels)
    s = FiniteSemiring(labels, [[add(i, j) for j in range(n)] for i in range(n)],
                       [[mul(i, j) for j in range(n)] for i in range(n)],
                       zero, one, name=name)
    return SemiringPair(s, a0, tangibles, name=name)


def nmax_pair(n):
    s = nmax_trunc(n)
    return SemiringPair(s, [s.zero], list(range(1, s.n)), name=s.name)


def max_min_pair(k):
    return table_pair("maxmin(%d)" % k, [str(i) for i in range(k)], max, min,
                      0, k - 1, [0], list(range(1, k)))


def fq_pair(q):
    return table_pair("F%d" % q, [str(i) for i in range(q)],
                      lambda i, j: (i + j) % q, lambda i, j: i * j % q,
                      0, 1, [0], list(range(1, q)))


def residue_ring(n):
    """Z/nZ with A0 = {0} and no tangibles, so that every congruence is a
    pair-congruence: one per ideal, each quotient a Z/dZ with its units."""
    return table_pair("Z/%dZ" % n, [str(i) for i in range(n)],
                      lambda i, j: (i + j) % n, lambda i, j: i * j % n,
                      0, 1, [0], [])


def product_pair(*pairs):
    """The product of the pairs' carriers, with A0 = {0} and no tangibles."""
    cs = [p.carrier for p in pairs]
    el = list(itertools.product(*(c.elements() for c in cs)))
    pos = {e: i for i, e in enumerate(el)}

    def op(name):
        return lambda i, j: pos[tuple(getattr(c, name)(a, b)
                                      for c, a, b in zip(cs, el[i], el[j]))]

    return table_pair(" x ".join(p.name for p in pairs),
                      [",".join(c.label(a) for c, a in zip(cs, e)) for e in el],
                      op("add"), op("mul"), pos[tuple(c.zero for c in cs)],
                      pos[tuple(c.one for c in cs)], [0], [])


def upper_triangular_boolean():
    """The 2x2 upper-triangular Boolean matrices [[a, b], [0, d]], stored as
    (a, b, d), with A0 = {0} and no tangibles: mul does not commute, so
    classification scans its quotients."""
    el = list(itertools.product((0, 1), repeat=3))
    pos = {e: i for i, e in enumerate(el)}

    def add(i, j):
        return pos[tuple(u | v for u, v in zip(el[i], el[j]))]

    def mul(i, j):
        (a, b, d), (e, f, h) = el[i], el[j]
        return pos[(a & e, (a & f) | (b & h), d & h)]

    return table_pair("UT2(B)", ["".join(map(str, e)) for e in el], add, mul,
                      pos[(0, 0, 0)], pos[(1, 0, 1)], [0], [])


def without_tangibles(p):
    """The pair's carrier and A0 with no tangibles, so that every congruence
    is a pair-congruence."""
    return SemiringPair(p.carrier, p.a0_elements(), [], name=p.name + ", T = {}")


def chain_pair(k):
    """Supertropical pair over the truncated chain {1, ..., k}."""
    return supertropical_extension(OrderedMonoid(
        op=lambda a, b: min(a + b - 1, k), unit=1, elements=list(range(1, k + 1))))


def permuted(p, perm):
    """The same pair with element i moved to position perm.index(i)."""
    c = p.carrier
    new = {old: i for i, old in enumerate(perm)}
    s = FiniteSemiring([c.labels[x] for x in perm],
                       [[new[c.add(x, y)] for y in perm] for x in perm],
                       [[new[c.mul(x, y)] for y in perm] for x in perm],
                       new[c.zero], new[c.one], name=c.name)
    return SemiringPair(s, [new[x] for x in p.a0_elements()],
                        [new[x] for x in p.tangible_elements()], name=p.name)


BASES = ([nmax_pair(n) for n in range(1, 9)]
         + [max_min_pair(k) for k in range(2, 9)]
         + [fq_pair(q) for q in (2, 3, 5, 7)]
         + [double(boolean_semiring())]
         + [chain_pair(k) for k in (1, 2, 3)]
         + [residue_ring(n) for n in (4, 6, 8, 9)]
         + [product_pair(max_min_pair(2), nmax_pair(n)) for n in (1, 2)]
         + [upper_triangular_boolean()])


def orders(p):
    """The pair in its own element order and in two others, with the map
    from its elements to theirs."""
    n = p.carrier.n
    shuffled = list(range(n))
    random.Random(n).shuffle(shuffled)
    for perm in (list(range(n)), shuffled, list(reversed(range(n)))):
        yield permuted(p, perm), {old: i for i, old in enumerate(perm)}


def image(rel, new):
    return frozenset((new[a], new[b]) for a, b in rel)


def check_closure(p, seeds, want):
    """Closure of the seeds against the worklist closure ``want``, in both
    admissibility modes."""
    loose = generate_congruence(p, seeds, require_admissible=False)
    escapes = ref.meets_t_a0(p, want) is not None
    assert loose.relation == want
    assert loose.admissible == (not escapes)
    if not escapes:
        assert generate_congruence(p, seeds).relation == want
        return
    with pytest.raises(NoPairCongruence) as exc:
        generate_congruence(p, seeds)
    t, z = exc.value.witness
    assert p.is_tangible(t) and p.in_a0(z) and (t, z) in want


@pytest.mark.parametrize("base", BASES, ids=lambda p: p.name)
def test_lattice_and_closures_match_reference(base):
    elems = list(base.carrier.elements())
    lattice = (ref.partition_lattice(base) if len(elems) <= 8 else None)
    seeds = list(itertools.combinations(elems, 2))
    closures = [ref.worklist_closure(base, [s], require_admissible=False)
                for s in seeds]
    for p, new in orders(base):
        if lattice is not None:
            want = ref.in_lattice_order(p, [image(rel, new) for rel in lattice])
            assert [c.relation for c in enumerate_congruences(p)] == want
        for (a, b), want in zip(seeds, closures):
            check_closure(p, [(new[a], new[b])], image(want, new))


def check_classification(lattice):
    for c in lattice:
        assert bool(is_prime(c)) == ref.is_prime(c)
        assert bool(is_semiprime(c)) == ref.is_semiprime(c)
        # in reverse order too: the answer must not depend on the order
        want = ref.is_irreducible(c, lattice)
        assert bool(is_irreducible(c, lattice)) == bool(is_irreducible(c, lattice[::-1])) == want


@pytest.mark.parametrize("base", BASES, ids=lambda p: p.name)
def test_classification_matches_reference(base):
    for p, _ in orders(base):
        check_classification(enumerate_congruences(p))


@st.composite
def small_pairs(draw):
    """Truncations, supertropical chains, doubles, and quotients of these
    by the closure of a random seed pair."""
    kind = draw(st.sampled_from(["nmax", "chain", "double", "maxmin"]))
    if kind == "nmax":
        p = nmax_pair(draw(st.integers(1, 6)))
    elif kind == "chain":
        p = chain_pair(draw(st.integers(1, 3)))
    elif kind == "maxmin":
        p = max_min_pair(draw(st.integers(2, 8)))
    else:
        p = double(nmax_trunc(1) if draw(st.booleans()) else boolean_semiring())
    if draw(st.booleans()):
        elems = list(p.carrier.elements())
        seed = (draw(st.sampled_from(elems)), draw(st.sampled_from(elems)))
        p = quotient_pair(p, generate_congruence(p, [seed],
                                                 require_admissible=False))
    return p


@settings(max_examples=25, deadline=None)
@given(p=small_pairs(), data=st.data())
def test_random_pairs_match_reference(p, data):
    elems = list(p.carrier.elements())
    lattice = enumerate_congruences(p)
    if len(elems) <= 8:
        assert [c.relation for c in lattice] == ref.partition_lattice(p)
    check_classification(lattice)
    seeds = data.draw(st.lists(st.tuples(st.sampled_from(elems),
                                         st.sampled_from(elems)),
                               min_size=1, max_size=3))
    check_closure(p, seeds, ref.worklist_closure(p, seeds,
                                                 require_admissible=False))


def boolean_power(k):
    b = boolean_semiring()
    return product_pair(*[SemiringPair(b, [b.zero], [], name="B")] * k)


# sizes past the partition filter, each family with and without tangibles;
# maxmin(11..12), maxmin(10..12) without tangibles, B^5, B^6,
# nmax_trunc(13..29) and nmax_trunc(30) without tangibles are left out: the
# reference join engine takes up to 0.6 s on one of them, about 2 s on all
LARGE = ([max_min_pair(k) for k in range(3, 11)]
         + [without_tangibles(max_min_pair(k)) for k in range(3, 10)]
         + [boolean_power(k) for k in (2, 3, 4)]
         + [nmax_pair(m) for m in list(range(1, 13)) + [30]]
         + [without_tangibles(nmax_pair(m)) for m in range(1, 13)]
         + [residue_ring(n) for n in range(2, 13)]
         + [fq_pair(q) for q in (2, 3, 5, 7, 11, 13)])


@pytest.mark.parametrize("p", LARGE, ids=lambda p: p.name)
def test_enumeration_matches_all_principal_joins(p):
    assert ([c.cls for c in enumerate_congruences(p)]
            == [c.cls for c in ref.principal_join_lattice(p)])


@pytest.mark.parametrize("p, kept", (
    [(max_min_pair(k), k - 2) for k in range(3, 13)]
    + [(without_tangibles(max_min_pair(k)), k - 1) for k in range(3, 13)]
    + [(boolean_power(k), k) for k in (2, 3, 4, 5)]
    + [(nmax_pair(m), m) for m in (1, 2, 3, 8, 30)]
    + [(without_tangibles(nmax_pair(m)), m + 1) for m in (1, 2, 3, 8, 30)]),
    ids=lambda x: getattr(x, "name", str(x)))
def test_join_generator_counts(p, kept):
    assert len(_join_generators(_Index(p))) == kept


def join_irreducible(lattice, ix):
    """Class arrays of the lattice's members that are not the join of the
    members strictly below them (the diagonal is the empty join)."""
    out = set()
    for c in lattice:
        seeds = [(x, r) for d in lattice if d < c
                 for x, r in enumerate(d.cls) if x != r]
        if _close(ix, seeds, translate=False) != c.cls:
            out.add(c.cls)
    return out


@pytest.mark.parametrize("base", BASES, ids=lambda p: p.name)
def test_join_generators_are_the_join_irreducibles(base):
    lattice = enumerate_congruences(base)
    ix = _Index(base)
    gens = _join_generators(ix)
    assert ({tuple(generate_congruence(base, [(a, b)]).cls) for a, b, _ in gens}
            == join_irreducible(lattice, ix))
