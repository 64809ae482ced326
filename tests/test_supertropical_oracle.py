"""The supertropical rules against the bodies they replaced
(supertropical_reference.py): every ordered pair of a window sample of both
symbolic builtins, and the tabulated pair over a finite monoid whose
element list is not in value order, so a rank read as a raw value shows."""

import itertools

import pytest

import supertropical_reference as ref
from pairalg.semirings import (OrderedMonoid, max_plus_integers,
                               max_plus_naturals_monoid, supertropical_extension)


@pytest.mark.parametrize("monoid", [max_plus_naturals_monoid, max_plus_integers])
def test_symbolic_rules_match_reference(monoid):
    t = monoid()
    p = supertropical_extension(t)
    c = p.carrier
    add, mul, surpass, in_a0, is_tangible = ref.rules(t)
    sample = c.sample(6)
    assert len(sample) == 1 + 2 * len(t.sample(6))
    for x in sample:
        assert p.in_a0(x) == in_a0(x) and p.is_tangible(x) == is_tangible(x), x
    for x, y in itertools.product(sample, repeat=2):
        assert c.add(x, y) == add(x, y), (x, y)
        assert c.mul(x, y) == mul(x, y), (x, y)
        assert p.surpasses(x, y) == surpass(x, y), (x, y)
        assert p.surpasses(x, y, 6) == surpass(x, y), (x, y)


def test_tabulated_pair_over_an_unsorted_monoid_matches_reference():
    # ascending list 3 < 1 < 2, the product the maximum in that order, so
    # the unit 3 is the least element and value order disagrees with rank
    order = [3, 1, 2]
    t = OrderedMonoid(op=lambda a, b: max(a, b, key=order.index), unit=3,
                      elements=order)
    p = supertropical_extension(t)
    c = p.carrier
    add, mul, _, in_a0, is_tangible = ref.rules(t)
    elements = [ref.ST_ZERO] + [("t", v) for v in order] + [("g", v) for v in order]
    pos = {e: i for i, e in enumerate(elements)}
    assert c.labels == ["0", "3", "1", "2", "3v", "1v", "2v"]
    assert c.add_table == [[pos[add(x, y)] for y in elements] for x in elements]
    assert c.mul_table == [[pos[mul(x, y)] for y in elements] for x in elements]
    assert (c.zero, c.one) == (pos[ref.ST_ZERO], pos[("t", 3)])
    assert p.a0_elements() == [pos[x] for x in elements if in_a0(x)]
    assert p.tangible_elements() == [pos[x] for x in elements if is_tangible(x)]
    # 1 outranks 3, though 3 > 1 as numbers
    assert c.add(pos[("t", 3)], pos[("t", 1)]) == pos[("t", 1)]
