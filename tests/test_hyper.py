import itertools

import pytest

from pairalg import hyper
from pairalg.errors import (BoundExhausted, PreconditionError, StructureError,
                            Violation)
from pairalg.hyper import (A0_CONTAINS_ZERO, A0_SIZE_GE_TWO, SemiHypergroup,
                           SemiHyperring,
                           find_isomorphism, hyper_coset_quotient, krasner_hyperfield,
                           krasner_quotient, powerset_pair,
                           semiring_as_hyperring, verify_semihypergroup,
                           verify_semihyperring)
from pairalg.pairs import SemiringPair, is_shallow, verify_admissible
from pairalg.semirings import FiniteSemiring


def mod_field(q):
    labels = [str(i) for i in range(q)]
    add = [[(i + j) % q for j in range(q)] for i in range(q)]
    mul = [[(i * j) % q for j in range(q)] for i in range(q)]
    return FiniteSemiring(labels, add, mul, zero=0, one=1, name="F%d" % q)


def test_krasner_hyperfield_valid(krasner):
    assert verify_semihyperring(krasner).valid
    assert krasner.hadd(1, 1) == frozenset({0, 1})
    assert krasner.hadd(0, 1) == frozenset({1})


def test_krasner_quotient_f3_is_krasner(krasner):
    h = krasner_quotient(mod_field(3), [1, 2])
    assert h.n == 2
    assert verify_semihyperring(h).valid
    assert find_isomorphism(h, krasner) is not None


def test_krasner_quotient_needs_subgroup():
    with pytest.raises(PreconditionError):
        krasner_quotient(mod_field(3), [0, 1])


def test_iterated_quotient_isomorphic_to_direct():
    # F7 by the full unit group directly, versus through the subgroup {1,6}
    f7 = mod_field(7)
    direct = krasner_quotient(f7, [1, 2, 3, 4, 5, 6])
    step1 = krasner_quotient(f7, [1, 6])
    units = [x for x in step1.elements() if x != step1.zero]
    step2 = hyper_coset_quotient(step1, units)
    assert find_isomorphism(step2, direct) is not None


def test_quotient_by_trivial_subgroup_recovers_base():
    f3 = mod_field(3)
    h = krasner_quotient(f3, [1])
    assert find_isomorphism(h, semiring_as_hyperring(f3)) is not None


def test_powerset_pair_contains_zero(krasner):
    p = powerset_pair(krasner, A0_CONTAINS_ZERO)
    assert verify_admissible(p).valid
    labels = {p.carrier.label(x) for x in p.carrier.elements()}
    assert labels == {"{0}", "{1}", "{0,1}"}


def test_powerset_pair_size_ge_two_shallow(krasner):
    p = powerset_pair(krasner, A0_SIZE_GE_TWO)
    assert verify_admissible(p).valid
    assert is_shallow(p)


def test_powerset_subset_surpassing(krasner):
    p = powerset_pair(krasner, A0_CONTAINS_ZERO)
    c = p.carrier
    by_label = {c.label(x): x for x in c.elements()}
    assert p.surpasses(by_label["{1}"], by_label["{0,1}"])
    assert not p.surpasses(by_label["{0,1}"], by_label["{1}"])
    # F_5 modulo {1, 4}: three cosets, and all seven nonempty sets of them
    # are sums of singletons
    h = krasner_quotient(mod_field(5), [1, 4])
    for choice in (A0_CONTAINS_ZERO, A0_SIZE_GE_TWO):
        p = powerset_pair(h, choice)
        elems = p.carrier.elements()
        assert len(elems) == 7
        for x in elems:
            for y in elems:
                assert p.surpasses(x, y) == (x <= y)


def test_powerset_pair_of_a_quotient_is_not_checked_again(monkeypatch):
    h = krasner_quotient(mod_field(5), [1, 4])

    def no_check(h):
        raise AssertionError("quotient checked a second time")

    monkeypatch.setattr(hyper, "verify_semihyperring", no_check)
    p = powerset_pair(h, A0_CONTAINS_ZERO)
    # sums and products come back as the carrier's own objects
    c = p.carrier
    elems = c.elements()
    own = {x: x for x in elems}
    for x, y in itertools.product(elems, repeat=2):
        assert c.add(x, y) is own[c.add(x, y)]
        assert c.mul(x, y) is own[c.mul(x, y)]
    assert c.zero is own[frozenset([h.zero])]


def test_layers_are_listed_in_the_carrier_order():
    # frozensets compare by inclusion, so sorting power-set layers gave
    # hash order
    h = krasner_quotient(mod_field(17), [1, 16])
    for choice in (A0_CONTAINS_ZERO, A0_SIZE_GE_TWO):
        p = powerset_pair(h, choice)
        elems = p.carrier.elements()
        assert p.a0_elements() == [x for x in elems if p.in_a0(x)]
        assert p.tangible_elements() == [x for x in elems if p.is_tangible(x)]
    # a table carrier lists its layers by index, as sorting did
    p = SemiringPair(mod_field(5), [3, 0], range(4, 0, -1))
    assert p.a0_elements() == [0, 3]
    assert p.tangible_elements() == [1, 2, 3, 4]


def test_set_witnesses_print_their_members_sorted():
    a, b = frozenset([8, 0, 2, 7]), frozenset([0, 8, 2, 7])
    assert a == b and repr(a) != repr(b)
    for w in (a, b):
        assert Violation("a0-mul-closed", (w, frozenset())).as_json() == {
            "axiom": "a0-mul-closed",
            "witness": ["frozenset({0, 2, 7, 8})", "frozenset()"]}


def test_semihyperring_distributivity_violations():
    # e * e = 1 and e [+] e = {1}: e * (e [+] e) = {e}, but
    # e*e [+] e*e = 1 [+] 1 = {1}; (e [+] e) * e fails the same way
    h = SemiHyperring(["0", "1", "e"],
                      [[{0}, {1}, {2}], [{1}, {1}, {0, 1, 2}],
                       [{2}, {0, 1, 2}, {1}]],
                      [[0, 0, 0], [0, 1, 2], [0, 2, 1]], zero=0, one=1)
    found = {(v.axiom, v.witness) for v in verify_semihyperring(h).violations}
    assert ("left-distributive", (2, 2, 2)) in found
    assert ("right-distributive", (2, 2, 2)) in found


def test_table_classes_refuse_the_same_input():
    # one table check serves FiniteSemiring, SemiHypergroup and SemiHyperring:
    # a zero or one that is no element, and an entry out of range, are
    # refused alike, naming the entry
    labels, hyperadd = ["0", "1"], [[{0}, {1}], [{1}, {0, 1}]]
    add, mul = [[0, 1], [1, 1]], [[0, 0], [0, 1]]
    for build in (lambda: SemiHypergroup(labels, hyperadd, zero=7),
                  lambda: SemiHyperring(labels, hyperadd, mul, zero=0, one=5),
                  lambda: FiniteSemiring(labels, add, mul, zero=0, one=5)):
        with pytest.raises(StructureError, match="^zero/one index out of range$"):
            build()
    bad = [[0, 0], [0, 5]]
    with pytest.raises(StructureError, match="^mul table entry 5 out of range$"):
        SemiHyperring(labels, hyperadd, bad, zero=0, one=1)
    with pytest.raises(StructureError, match="^mul table entry 5 out of range$"):
        FiniteSemiring(labels, add, bad, zero=0, one=1)


def test_semiring_as_hyperring_roundtrip(B):
    h = semiring_as_hyperring(B)
    assert verify_semihyperring(h).valid
    assert h.hadd(1, 1) == frozenset({1})


def test_isomorphism_cap_raises_bound_exhausted(krasner, monkeypatch):
    monkeypatch.setattr(hyper, "MAX_ISOMORPHISM_SIZE", 1)
    with pytest.raises(BoundExhausted, match="MAX_ISOMORPHISM_SIZE=1"):
        find_isomorphism(krasner, krasner)
