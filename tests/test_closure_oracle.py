"""The set closures that go through ``pairs.additive_closure`` against the
loops they replaced (closure_reference.py): equal module spans on free
modules and on random modules whose addition commutes, and the same primes,
semiprime count and Krull dimension from ``prime_spectrum_krull`` on every
oracle carrier, max-min chains failing with the same assertion, and on
carriers with several primes.

Also the tangible-spanning violations of ``verify_admissible`` and of
``verify_module_pair(admissible=True)`` against the pairwise closure they
used before ``pairs.unspanned``, on drawn 2-5 element tables whose addition
commutes or not and associates or not, many of whose seeds do not span."""

import itertools
import math
import os
import random

import pytest

import closure_reference as ref
from pairalg.congruences import prime_spectrum_krull
from pairalg.growth import ModulePair, free_module_pair, verify_module_pair
from pairalg.pairs import SemiringPair, additive_closure, verify_admissible
from pairalg.semirings import FiniteSemiring
from pairalg.structio import load_structures
from test_congruence_oracle import BASES, table_pair

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "pairalg",
                        "fixtures")


def fixture_pairs():
    out = [load_structures(os.path.join(FIXTURES, name))["pair"]
           for name in ("boolean.pair", "double_boolean.pair",
                        "supertropical3.pair")]
    s = load_structures(os.path.join(FIXTURES, "nmax3.semiring"))["semiring"]
    out.append(SemiringPair(s, [s.zero], list(range(1, s.n)), name=s.name))
    return out


PAIRS = fixture_pairs()


@pytest.mark.parametrize("rank", (1, 2))
@pytest.mark.parametrize("p", PAIRS, ids=lambda p: p.name)
def test_free_module_spans_match_reference(p, rank):
    mp = free_module_pair(p, rank)
    for k in range(3):
        for gens in itertools.combinations(mp.elements, k):
            assert mp.span(gens) == ref.span(mp, gens)


def random_module(rng):
    """A 2-5 element module over a fixture pair with a random commutative
    addition and a random action; no other module axiom is asked for."""
    p = rng.choice(PAIRS)
    m = rng.randint(2, 5)
    add = [[None] * m for _ in range(m)]
    for v, w in itertools.combinations_with_replacement(range(m), 2):
        add[v][w] = add[w][v] = rng.randrange(m)
    act = {a: [rng.randrange(m) for _ in range(m)] for a in p.carrier.elements()}
    image = [v for v in range(m) if rng.random() < 0.3]
    return ModulePair(p, range(m), lambda v, w: add[v][w],
                      lambda a, v: act[a][v], rng.randrange(m), image)


def test_random_module_spans_match_reference():
    rng = random.Random(0)
    grown = 0
    for _ in range(300):
        mp = random_module(rng)
        gens = [v for v in mp.elements if rng.random() < 0.3]
        got = mp.span(gens)
        assert got == ref.span(mp, gens)
        grown += len(got) > len(set(gens) | set(mp.n_image) | {mp.zero})
    # most spans reach past their seeds, so the closure is exercised
    assert grown > 150


def zn_pair(n):
    units = [u for u in range(n) if math.gcd(u, n) == 1]
    return table_pair("Z%d" % n, [str(i) for i in range(n)],
                      lambda i, j: (i + j) % n, lambda i, j: i * j % n,
                      0, 1, [0], units)


def boolean_power(k):
    """B^k with componentwise operations; only the top is tangible."""
    el = list(itertools.product((0, 1), repeat=k))
    pos = {e: i for i, e in enumerate(el)}

    def op(f):
        return lambda i, j: pos[tuple(map(f, el[i], el[j]))]

    top = len(el) - 1
    return table_pair("B^%d" % k, ["".join(map(str, e)) for e in el],
                      op(max), op(min), 0, top, [0], [top])


# the oracle carriers have at most one prime each; these have two to four,
# so meets of primes are formed: B^4 has 4 primes and 15 semiprimes
SPECTRUM_CASES = (BASES + [zn_pair(n) for n in (6, 12, 30)]
                  + [boolean_power(k) for k in (2, 3, 4)])


def spectrum(f, p):
    try:
        out = f(p)
    except AssertionError as exc:
        return "assert", str(exc)
    return ([c.cls for c in out["congruences"]], [q.cls for q in out["primes"]],
            out["semiprime_count"], out["krull_dimension"])


@pytest.mark.parametrize("p", SPECTRUM_CASES, ids=lambda p: p.name)
def test_prime_spectrum_matches_reference(p):
    got = spectrum(prime_spectrum_krull, p)
    assert got == spectrum(ref.prime_spectrum_krull, p)
    # the known defect: past two elements, a max-min chain's semiprimes are
    # not the meets of its admissible primes
    k = p.carrier.n
    if p.name == "maxmin(%d)" % k and k >= 3:
        assert got == ("assert", "semiprime/prime-intersection mismatch")


# ---------------------------------------------------------------------------
# Tangible spanning


def drawn_addition(rng, m):
    """An m x m addition table: half the time from an associative family
    (Z_m, a max chain, a left- or right-zero band) under a random relabelling,
    else uniform, and symmetrised half the time."""
    if rng.random() < 0.5:
        perm = list(range(m))
        rng.shuffle(perm)
        op = rng.choice([lambda i, j: (i + j) % m, max,
                         lambda i, j: i, lambda i, j: j])
        inv = {v: k for k, v in enumerate(perm)}
        return [[perm[op(inv[i], inv[j])] for j in range(m)] for i in range(m)]
    t = [[rng.randrange(m) for _ in range(m)] for _ in range(m)]
    if rng.random() < 0.5:
        for i, j in itertools.combinations(range(m), 2):
            t[j][i] = t[i][j]
    return t


def spanning(report):
    return [v.witness[0] for v in report.violations
            if v.axiom == "tangible-spanning"]


def shapes(add, m, seeds):
    """(commutes, associates, seeds span, the right-add pass alone misses
    what the pairwise closure reaches)."""
    r = range(m)
    right = additive_closure(None, seeds, [lambda x, t=t: add[x][t] for t in seeds])
    full = additive_closure(lambda x, y: add[x][y], seeds)
    return (all(add[i][j] == add[j][i] for i in r for j in r),
            all(add[add[i][j]][k] == add[i][add[j][k]] for i in r for j in r for k in r),
            full >= set(r), right != full)


def test_admissible_spanning_matches_reference():
    rng = random.Random(1)
    seen = set()
    for _ in range(1500):
        m = rng.randint(2, 5)
        add = drawn_addition(rng, m)
        mul = [[rng.randrange(m) for _ in range(m)] for _ in range(m)]
        s = FiniteSemiring([str(i) for i in range(m)], add, mul, 0, 1)
        tang = [x for x in range(m) if rng.random() < 0.4]
        p = SemiringPair(s, [x for x in range(m) if rng.random() < 0.3], tang)
        assert spanning(verify_admissible(p)) == ref.admissible_unspanned(p)
        seen.add(shapes(add, m, set(tang) | {0}))
    # every mix of commuting, associating and spanning is drawn, and the
    # pairwise closure decides some tables with and without commuting
    assert {s[:3] for s in seen} == set(itertools.product((True, False), repeat=3))
    assert {s[0] for s in seen if s[3]} == {True, False}


def test_module_spanning_matches_reference():
    rng = random.Random(2)
    seen = set()
    for _ in range(600):
        p = rng.choice(PAIRS)
        m = rng.randint(2, 5)
        add = drawn_addition(rng, m)
        act = {a: [rng.randrange(m) for _ in range(m)] for a in p.carrier.elements()}
        zero = rng.randrange(m)
        tang = [v for v in range(m) if rng.random() < 0.4]
        mp = ModulePair(p, range(m), lambda v, w, t=add: t[v][w],
                        lambda a, v, t=act: t[a][v], zero,
                        [v for v in range(m) if rng.random() < 0.3], tang)
        assert (spanning(verify_module_pair(mp, admissible=True))
                == ref.module_unspanned(mp))
        seen.add(shapes(add, m, set(tang) | {zero}))
    assert {s[:3] for s in seen} == set(itertools.product((True, False), repeat=3))
    assert {s[0] for s in seen if s[3]} == {True, False}
