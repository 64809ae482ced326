"""Hyper-sums over bitmasks against the frozenset bodies they replaced
(hyper_reference.py): the same axiom reports, with `checked` and every
violation and witness in order; the same subset sums and coset tables; and
the same power-set pairs, with their elements, A0, T, and every sum and
product. Cases: the Krasner hyperfield, every Krasner quotient of F_5, F_7,
F_11 and F_13 under both A0 choices, the fixture semirings viewed as
hyperrings, and drawn 2-4 element tables, many of which fail an axiom."""

import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

import hyper_reference as ref
from pairalg.errors import PreconditionError
from pairalg.hyper import (A0_CONTAINS_ZERO, A0_SIZE_GE_TWO, SemiHypergroup,
                           SemiHyperring, krasner_hyperfield, krasner_quotient,
                           powerset_pair, semiring_as_hyperring,
                           verify_semihypergroup, verify_semihyperring)
from pairalg.structio import load_structures
from test_fraction_oracle import unit_subgroups
from test_hyper import mod_field

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "pairalg",
                        "fixtures")


def report(verify, h):
    try:
        r = verify(h)
    except PreconditionError as exc:
        return ("refused", str(exc))
    return (r.subject, r.checked, [(v.axiom, v.witness) for v in r.violations])


def pair_outcome(build, h, choice):
    try:
        p = build(h, choice)
    except PreconditionError as exc:
        return ("refused", str(exc))
    c = p.carrier
    elems = c.elements()
    return (p.name, c.zero, c.one, elems, [c.label(x) for x in elems],
            p.a0_elements(), p.tangible_elements(),
            [c.add(x, y) for x in elems for y in elems],
            [c.mul(x, y) for x in elems for y in elems])


def check(h, subsets):
    """Reports, sums of the given subsets, and (with a multiplication) both
    power-set pairs."""
    for verify, verify_ref in ((verify_semihypergroup, ref.verify_semihypergroup),
                               (verify_semihyperring, ref.verify_semihyperring)):
        assert report(verify, h) == report(verify_ref, h)
    for s1, s2 in itertools.product(subsets, repeat=2):
        assert h.hadd_sets(s1, s2) == ref.hadd_sets(h, s1, s2)
    if isinstance(h, SemiHyperring):
        for choice in (A0_CONTAINS_ZERO, A0_SIZE_GE_TWO):
            assert pair_outcome(powerset_pair, h, choice) == pair_outcome(
                ref.powerset_pair, h, choice)


def entries(h):
    """The singletons and the distinct hyper-sums of h."""
    return sorted({frozenset([a]) for a in h.elements()}
                  | {s for row in h.hyperadd for s in row}, key=sorted)


def test_krasner_hyperfield_matches_reference():
    h = krasner_hyperfield()
    check(h, [frozenset([0]), frozenset([1]), frozenset([0, 1])])
    fixture = load_structures(os.path.join(FIXTURES, "krasner.hyper"))["hyper"]
    check(fixture, entries(fixture))


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_krasner_quotients_match_reference(q):
    f = mod_field(q)
    base = semiring_as_hyperring(f)
    for g in unit_subgroups(q):
        h = krasner_quotient(f, g)
        assert h.hyperadd == ref.coset_hyperadd(base, g)
        assert report(lambda h: h.verification, h) == report(
            ref.verify_semihyperring, h)
        check(h, entries(h))


@pytest.mark.parametrize("name", ["boolean.pair", "double_boolean.pair",
                                  "nmax3.semiring", "supertropical3.pair"])
def test_fixture_semirings_as_hyperrings_match_reference(name):
    s = load_structures(os.path.join(FIXTURES, name))["semiring"]
    h = semiring_as_hyperring(s)
    check(h, entries(h))


@st.composite
def small_hyper_tables(draw):
    """Tables on 2-4 elements with 0 neutral for the sum and absorbing for
    the product and 1 neutral for the product; the other sums and products
    are drawn, so associativity and distributivity often fail. One cell may
    be redrawn, breaking commutativity or neutrality, and the product may
    be left out."""
    n = draw(st.integers(2, 4))
    cell = st.frozensets(st.integers(0, n - 1), min_size=1)
    add = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            add[a][b] = add[b][a] = frozenset([b]) if a == 0 else draw(cell)
    if draw(st.booleans()):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        add[a][b] = draw(cell)
    labels = [str(i) for i in range(n)]
    if draw(st.booleans()):
        return SemiHypergroup(labels, add, zero=0)
    mul = [[0 if 0 in (a, b) else b if a == 1 else a if b == 1
            else draw(st.integers(0, n - 1)) for b in range(n)]
           for a in range(n)]
    return SemiHyperring(labels, add, mul, zero=0, one=1)


@settings(max_examples=150, deadline=None)
@given(h=small_hyper_tables())
def test_drawn_tables_match_reference(h):
    subsets = [frozenset(s) for k in range(1, h.n + 1)
               for s in itertools.combinations(range(h.n), k)]
    check(h, subsets)
