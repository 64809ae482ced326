import itertools
import operator

import pytest
from hypothesis import given, strategies as st

from pairalg.errors import StructureError
from pairalg.semirings import (OrderedMonoid, boolean_semiring, double,
                               nat_plus_times, nmax_trunc,
                               supertropical_extension, supertropical_naturals,
                               tabulate, verify_semiring_axioms)


def test_boolean_tables(B):
    assert B.add(1, 1) == 1
    assert B.mul(1, 1) == 1
    assert B.add(0, 1) == 1
    assert B.mul(0, 1) == 0


def test_boolean_axioms(B):
    assert verify_semiring_axioms(B).valid


def test_nmax_trunc_absorbs(nmax3):
    top = nmax3.index("3")
    one = nmax3.one
    assert nmax3.add(top, one) == top
    assert nmax3.mul(top, top) == top
    assert verify_semiring_axioms(nmax3).valid


def test_nmax_zero_is_neutral(nmax3):
    for x in nmax3.elements():
        assert nmax3.add(nmax3.zero, x) == x
        assert nmax3.mul(nmax3.zero, x) == nmax3.zero


def test_supertropical_ghost_rule(st_nat):
    c = st_nat.carrier
    assert c.add(("t", 3), ("t", 3)) == ("g", 3)
    assert c.add(("t", 3), ("t", 5)) == ("t", 5)
    assert c.mul(("t", 2), ("g", 3)) == ("g", 5)
    assert c.mul(("t", 2), ("t", 3)) == ("t", 5)


st_elem = st.one_of(
    st.just(("z",)),
    st.tuples(st.sampled_from(["t", "g"]), st.integers(0, 30)),
)


@given(st_elem, st_elem, st_elem)
def test_supertropical_axioms_sampled(x, y, z):
    c = supertropical_naturals().carrier
    assert c.add(x, y) == c.add(y, x)
    assert c.add(c.add(x, y), z) == c.add(x, c.add(y, z))
    assert c.mul(c.mul(x, y), z) == c.mul(x, c.mul(y, z))
    assert c.mul(x, c.add(y, z)) == c.add(c.mul(x, y), c.mul(x, z))


def test_double_twist_multiplication(double_bool):
    c = double_bool.carrier
    # table indices run over (0,0),(0,1),(1,0),(1,1); the two axes multiply
    # by the twist rule (a,b)(c,d) = (ac+bd, ad+bc)
    e01 = c.labels.index("(0,1)")
    e10 = c.labels.index("(1,0)")
    assert c.mul(e01, e01) == e10
    assert c.mul(e01, e10) == e01


def test_double_axioms(double_bool):
    assert verify_semiring_axioms(double_bool.carrier).valid


def test_double_negation_swaps(double_bool):
    c = double_bool.carrier
    for lab in c.labels:
        a, b = lab[1:-1].split(",")
        swapped = "(%s,%s)" % (b, a)
        x = c.labels.index(lab)
        y = c.labels.index(swapped)
        assert double_bool.in_a0(c.add(x, y))


def test_nmax_trunc_tables_are_truncated_max_plus():
    # position 0 is -inf and position i > 0 the value i - 1; sums take the
    # max, products add the values and saturate at n
    for n in range(1, 40):
        s = nmax_trunc(n)
        values = [None] + list(range(n + 1))
        assert s.labels == ["-inf"] + [str(v) for v in values[1:]]
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                top = max((v for v in (a, b) if v is not None), default=None)
                prod = None if None in (a, b) else min(a + b, n)
                assert values[s.add(i, j)] == top
                assert values[s.mul(i, j)] == prod


def test_tabulate_refuses_elements_the_carrier_leaves():
    # 2 * 2 = 4 leaves {1, 2, 3}; the error names both operands and the result
    m = OrderedMonoid(op=operator.mul, unit=1, elements=[1, 2, 3])
    with pytest.raises(StructureError, match=r"the product of \('t', 2\) and "
                       r"\('t', 2\), \('t', 4\), is not among the 7 elements"):
        supertropical_extension(m)
    nat = nat_plus_times()
    with pytest.raises(StructureError, match="the sum of 1 and 1, 2, is not among"):
        tabulate(nat, [0, 1])
    with pytest.raises(StructureError, match="the carrier's zero 0 is not among"):
        tabulate(nat, [1])
    with pytest.raises(StructureError, match="the carrier's one 1 is not among"):
        tabulate(nat, [0])
    table, pos = tabulate(boolean_semiring(), [1, 0])
    assert pos == {1: 0, 0: 1} and table.add_table == [[0, 0], [0, 1]]
