"""The checks that form each sum and product once (the semiring axioms,
Property N, the semidomain scan) against the versions that formed them
where each test needed them (surpassing_reference.py): equal axiom reports
with violations and witnesses in order, equal Property N status, flags and
partners, and equal semidomain verdicts and witnesses. The work counts pin
down how many sums and products each check forms."""

import operator
import os
import random
from collections import Counter

import pytest

import surpassing_reference as ref
from pairalg.growth import is_semidomain
from pairalg.pairs import (PN_NEG_COMPATIBLE, PN_NONE, PN_PROPERTY_N,
                           PN_TANGIBLY_SEPARATING, SemiringPair,
                           property_n_status)
from pairalg.semirings import (FiniteSemiring, SymbolicSemiring, _seeded_indices,
                               double, nat_plus_times, nmax_trunc,
                               supertropical_integers, supertropical_naturals,
                               verify_semiring_axioms)
from pairalg.structio import load_structures

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "pairalg",
                        "fixtures")


def fixture(name):
    return load_structures(os.path.join(FIXTURES, name))


def nat_pair():
    return SemiringPair(nat_plus_times(), a0=lambda x: x == 0,
                        tangibles=lambda x: x != 0, name="nat_plus_times")


def naturals(name, add, mul):
    return SymbolicSemiring(name, add, mul, zero=0, one=1,
                            sample_fn=lambda window: list(range(window + 1)),
                            label_fn=str)


# each breaks the axioms named, so that every violation kind is compared
SKEWED = {
    "skew-add": naturals("skew-add", lambda x, y: x + 2 * y, operator.mul),
    "bumped-add": naturals("bumped-add",
                           lambda x, y: x + 1 if x == y else max(x, y),
                           operator.mul),
    "mod-mul": naturals("mod-mul", operator.add, lambda x, y: x * y % 5),
    "affine-mul": naturals("affine-mul", max, lambda x, y: x * y + 1),
}


def mod3_pair(s):
    """Multiples of 3 as A0 and the rest as T, so partners are many."""
    return SemiringPair(s, a0=lambda x: x % 3 == 0, tangibles=lambda x: x % 3 != 0,
                        tangible_sample=lambda w: [x for x in range(w + 1) if x % 3],
                        name=s.name)


def beyond_probe_pair():
    """Separation fails inside the 20-tangible probe, and would pass with
    partners from beyond it: sums over 30 count as tangible."""
    return SemiringPair(nat_plus_times(), a0=lambda x: x % 3 == 0,
                        tangibles=lambda x: x % 3 != 0 or x > 30,
                        tangible_sample=lambda w: [x for x in range(w + 1) if x % 3],
                        name="beyond-probe")


def drawn_pairs(count=20, seed=1):
    """Small tables with random layers: no axioms hold, and every Property N
    status and both semidomain verdicts occur."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.choice((3, 4))
        table = [[[rng.randrange(n) for _ in range(n)] for _ in range(n)]
                 for _ in range(2)]
        s = FiniteSemiring([str(k) for k in range(n)], *table, zero=0, one=1,
                           name="drawn%d" % i)
        rest = list(range(1, n))
        a0 = [0] + [x for x in rest if rng.random() < 0.3]
        tang = [x for x in rest if x not in a0 and rng.random() < 0.8]
        out.append(SemiringPair(s, a0, tang, name=s.name))
    return out


BUILTINS = {"stn": supertropical_naturals, "stz": supertropical_integers,
            "nat": nat_pair}
FIXTURE_PAIRS = ("boolean.pair", "double_boolean.pair", "supertropical3.pair")


def case(name, x, window):
    return pytest.param(x, window, id="%s-%s" % (name, window))


PAIR_CASES = (
    [case(n, fixture(n)["pair"], None) for n in FIXTURE_PAIRS]
    + [case(n, make(), w) for n, make in BUILTINS.items() for w in range(1, 9)]
    + [case("double-nat", double(nat_plus_times()), w) for w in (1, 2, 3)]
    + [case(n, mod3_pair(s), w) for n, s in SKEWED.items() for w in (2, 7)]
    + [case("beyond-probe", beyond_probe_pair(), 40)]
    + [case(p.name, p, None) for p in drawn_pairs()])

SEMIRING_CASES = (
    [case(n, fixture(n)["semiring"], None)
     for n in FIXTURE_PAIRS + ("nmax3.semiring",)]
    + [case(n, make().carrier, w) for n, make in BUILTINS.items()
       for w in range(1, 9)]
    + [case("double-nat", double(nat_plus_times()).carrier, w) for w in (1, 2, 3)]
    + [case(n, s, w) for n, s in SKEWED.items() for w in (2, 3, 7)]
    + [case(p.name, p.carrier, None) for p in drawn_pairs()[:10]])


def window_kw(window):
    return {} if window is None else {"window": window}


def as_tuple(report):
    return (report.subject, report.valid, report.checked, report.window,
            [(v.axiom, v.witness) for v in report.violations])


def pn_tuple(status):
    return (status.status, status.property_n, status.neg_compatible,
            status.tangibly_separating, list(status.partners.items()))


@pytest.mark.parametrize("s, window", SEMIRING_CASES)
def test_axiom_reports_match_reference(s, window):
    kw = window_kw(window)
    assert as_tuple(verify_semiring_axioms(s, **kw)) == as_tuple(
        ref.verify_semiring_axioms(s, **kw))


@pytest.mark.parametrize("p, window", PAIR_CASES)
def test_property_n_and_semidomain_match_reference(p, window):
    kw = window_kw(window)
    assert pn_tuple(property_n_status(p, **kw)) == pn_tuple(
        ref.property_n_status(p, **kw))
    assert is_semidomain(p, **kw) == ref.is_semidomain(p, **kw)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 43, 163])
def test_seeded_indices_are_the_draws_of_random_choice(n):
    # a power of two needs one more bit than n - 1, so half its draws are
    # rejected and drawn again
    rng = random.Random(0)
    want = [rng.choice(range(n)) for _ in range(6000)]
    assert _seeded_indices(n, 6000) == want
    with pytest.raises(IndexError):
        _seeded_indices(0, 1)


def test_oracle_cases_reach_every_outcome():
    axioms = {v.axiom for s in SKEWED.values()
              for v in verify_semiring_axioms(s, window=7).violations}
    assert axioms == {"zero-neutral", "one-neutral", "zero-absorbing",
                      "add-commutative", "add-associative", "mul-associative",
                      "left-distributive", "right-distributive"}
    pairs = drawn_pairs()
    assert {property_n_status(p).status for p in pairs} == {
        PN_NONE, PN_PROPERTY_N, PN_NEG_COMPATIBLE, PN_TANGIBLY_SEPARATING}
    assert {is_semidomain(p).status for p in pairs} == {"yes", "no"}


def counted(monkeypatch, carrier):
    calls = Counter()
    for op in ("add", "mul"):
        def count(x, y, fn=getattr(carrier, op), op=op):
            calls[op] += 1
            return fn(x, y)
        monkeypatch.setattr(carrier, op, count)
    return calls


def test_axiom_check_forms_each_sum_and_product_once(monkeypatch):
    s = supertropical_integers().carrier
    calls = counted(monkeypatch, s)
    verify_semiring_axioms(s, window=10)
    # 43 sample elements, each with 2 sums and 4 products against 0 and 1;
    # 2,000 triples of 7 sums (x+y, y+x, y+z and four more) and 7 products
    assert calls == {"add": 43 * 2 + 2000 * 7, "mul": 43 * 4 + 2000 * 7}

    t = nmax_trunc(3)
    calls = counted(monkeypatch, t)
    verify_semiring_axioms(t)
    # 5 elements; commutativity over the 25 ordered pairs; 125 triples of
    # 6 sums and 7 products
    assert calls == {"add": 5 * 2 + 25 * 2 + 125 * 6, "mul": 5 * 4 + 125 * 7}


def test_property_n_forms_each_separation_sum_once(monkeypatch):
    p = supertropical_integers()
    calls = counted(monkeypatch, p.carrier)
    assert property_n_status(p, window=10).tangibly_separating
    # 21 tangibles, each its own only partner: the 21^2 partner sums, then
    # c + a for each ordered pair of the 20-element probe
    assert calls == {"add": 21 ** 2 + 20 * 19}
