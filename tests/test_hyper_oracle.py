"""Hyper-sums over bitmasks against the frozenset bodies they replaced
(hyper_reference.py): the same axiom reports, with `checked` and every
violation and witness in order; the same subset sums and coset tables; and
the same power-set pairs, with their elements, A0, T, and every sum and
product. Cases: the Krasner hyperfield, every Krasner quotient of F_5, F_7,
F_11 and F_13 under both A0 choices, the fixture semirings viewed as
hyperrings, and drawn 2-4 element tables, many of which fail an axiom.

Also: the power-set carrier's sums and products of subsets it did not make,
the sums its closure forms, the admissibility reports of power-set pairs of Krasner quotients, and
Krasner quotients read from the semiring's tables against the quotient of
the semiring viewed as a hyperring."""

import functools
import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

import hyper_reference as ref
from pairalg.errors import PreconditionError
from pairalg.hyper import (A0_CONTAINS_ZERO, A0_SIZE_GE_TWO, PowersetCarrier,
                           SemiHypergroup, SemiHyperring, hyper_coset_quotient,
                           krasner_hyperfield, krasner_quotient, powerset_pair,
                           semiring_as_hyperring, verify_semihypergroup,
                           verify_semihyperring)
from pairalg.pairs import verify_admissible
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


# ---------------------------------------------------------------------------
# The power-set carrier on subsets it did not make


@functools.lru_cache(maxsize=None)
def quotient(q, g):
    return krasner_quotient(mod_field(q), list(g))


def setwise_product(h, x, y):
    return frozenset(h.mul(a, b) for a in x for b in y)


def check_operands(h, c, subsets):
    """Every sum and product of the given subsets, none of them made by the
    carrier c, against the reference: equal, a plain frozenset, and the
    carrier's own object when the subset is in its closure."""
    made = {s: s for s in c.elements()}
    for x, y in itertools.product(subsets, repeat=2):
        for got, want in ((c.add(x, y), ref.hadd_sets(h, x, y)),
                          (c.mul(x, y), setwise_product(h, x, y))):
            assert got == want
            assert type(got) is frozenset
            assert made.get(got, got) is got


QUOTIENT_KEYS = [(q, tuple(g)) for q in (11, 13) for g in unit_subgroups(q)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), key=st.sampled_from(QUOTIENT_KEYS))
def test_carrier_sums_subsets_it_did_not_make(data, key):
    h = quotient(*key)
    subset = st.frozensets(st.integers(0, h.n - 1), max_size=h.n)
    subsets = data.draw(st.lists(subset, min_size=1, max_size=4))
    check_operands(h, PowersetCarrier(h), subsets)


@pytest.mark.parametrize("q, g, outside", [(11, (1, 10), 10), (13, (1, 12), 32)])
def test_carrier_sums_products_outside_its_closure(q, g, outside):
    """The products of two closure members that fall outside the closure,
    rebuilt as new frozensets, used as operands with each other and with
    every member."""
    h = quotient(q, g)
    closure = set(ref.powerset_pair(h).carrier.elements())
    beyond = {setwise_product(h, x, y)
              for x, y in itertools.product(closure, repeat=2)} - closure
    assert len(beyond) == outside
    c = PowersetCarrier(h)
    assert set(c.elements()) == closure
    copies = [frozenset(set(s)) for s in c.elements()]
    check_operands(h, c, sorted(beyond, key=sorted) + copies)


@pytest.mark.parametrize("q", [11, 13])
def test_carrier_closure_forms_n_sums_per_element(q, monkeypatch):
    """Built on a Krasner quotient with n <= 7 classes, the carrier forms
    exactly n sums per element it reaches, one per singleton, and reaches
    the reference's pairwise closure."""
    sums = []
    add = PowersetCarrier.add

    def counted(self, x, y):
        sums.append(1)
        return add(self, x, y)

    monkeypatch.setattr(PowersetCarrier, "add", counted)
    built = 0
    for g in unit_subgroups(q):
        h = quotient(q, tuple(g))
        if h.n > 7:
            continue
        sums.clear()
        c = PowersetCarrier(h)
        assert len(sums) == len(c.elements()) * h.n
        assert c.elements() == ref.powerset_pair(h).carrier.elements()
        built += 1
    assert built == {11: 3, 13: 5}[q]


# ---------------------------------------------------------------------------
# Admissibility of the power-set pairs of Krasner quotients


@pytest.mark.parametrize("q", [11, 13, 17])
def test_admissibility_reports_match_reference(q):
    """``checked``, violations and witnesses in order, for every quotient
    with at most 7 classes; the products outside the closure show as
    ``a0-mul-closed`` witnesses printed as ``frozenset({...})``."""
    mul_closed = []
    for g in unit_subgroups(q):
        h = quotient(q, tuple(g))
        if h.n > 7:
            continue
        for choice in (A0_CONTAINS_ZERO, A0_SIZE_GE_TWO):
            got = verify_admissible(powerset_pair(h, choice)).as_json()
            assert got == verify_admissible(ref.powerset_pair(h, choice)).as_json()
            mul_closed += [w for v in got["violations"]
                           if v["axiom"] == "a0-mul-closed" for w in v["witness"]]
    assert mul_closed
    assert all(w.startswith("frozenset({") for w in mul_closed)


# ---------------------------------------------------------------------------
# Krasner quotients from the semiring's tables


def quotient_outcome(build, r, g):
    try:
        h = build(r, g)
    except PreconditionError as exc:
        return ("refused", str(exc))
    return (h.labels, h.name, h.hyperadd, h.mul_table, h.zero, h.one,
            h.verification.as_json())


def via_hyperring(r, g):
    return hyper_coset_quotient(semiring_as_hyperring(r), g)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_krasner_quotient_matches_hyperring_path(q):
    f = mod_field(q)
    for g in unit_subgroups(q):
        assert quotient_outcome(krasner_quotient, f, g) == quotient_outcome(
            via_hyperring, f, g)


def test_krasner_quotient_of_nmax3_matches_hyperring_path():
    s = load_structures(os.path.join(FIXTURES, "nmax3.semiring"))["semiring"]
    g = [s.index("0")]
    assert quotient_outcome(krasner_quotient, s, g) == quotient_outcome(
        via_hyperring, s, g)
    refused = quotient_outcome(krasner_quotient, s, [s.index(x) for x in "0123"])
    assert refused == ("refused", "element 2 has no inverse in subgroup")
    assert refused == quotient_outcome(via_hyperring, s,
                                       [s.index(x) for x in "0123"])


@pytest.mark.parametrize("g, message", [
    ([2, 4], "subgroup must contain the unit"),
    ([1, 2], "subgroup not multiplicatively closed at (2, 2)"),
    ([0, 1], "element 0 has no inverse in subgroup"),
])
def test_krasner_quotient_refuses_as_hyperring_path(g, message):
    f = mod_field(7)
    assert quotient_outcome(krasner_quotient, f, g) == ("refused", message)
    assert quotient_outcome(via_hyperring, f, g) == ("refused", message)
