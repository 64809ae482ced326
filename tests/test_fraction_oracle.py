"""Fraction pairs classed through the signature index against the scan over
class representatives it replaced (fraction_reference.py): same classes in
the same order, tables, zero and one, layers, and refusal messages. The
rings Z/n (fields and rings with zero divisors) are localized at every
subgroup of their units, truncations, max-min chains, doubles and
supertropical chains at every one- or two-element set of tangibles, each in
three element orders (Z/13 in its own). The 2x2 Boolean matrices are
localized, in their own order, at S = {I, swap}, which is not central.
Localizing F_p at a subgroup of
F_p^* gives F_p back, and classing F_17 at F_17^* makes no frac_equiv call."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
from pairalg import fractions
from pairalg.errors import NO, YES, PreconditionError
from pairalg.fractions import (LocalizationContext, build_fraction_pair,
                               frac_is_tangible)
from pairalg.semirings import (FiniteSemiring, boolean_semiring, double,
                               verify_semiring_axioms)
from test_congruence_oracle import (chain_pair, fq_pair, max_min_pair,
                                    nmax_pair, orders, permuted, table_pair)
from test_fractions import boolean_matrices


def zn_pair(n):
    return table_pair("Z%d" % n, [str(i) for i in range(n)],
                      lambda i, j: (i + j) % n, lambda i, j: i * j % n,
                      0, 1, [0], list(range(1, n)))


def unit_subgroups(n):
    """Subgroups of (Z/n)^*, each generated by at most two units, which
    gives every subgroup for n <= 13."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    found = []
    for gens in itertools.combinations_with_replacement(units, 2):
        group = {1}
        while True:
            grown = group | {g * h % n for g in group for h in gens}
            if grown == group:
                break
            group = grown
        if sorted(group) not in found:
            found.append(sorted(group))
    return found


def small_subsets(p):
    """Every one- and two-element set of tangibles."""
    tang = list(p.tangible_elements())
    return [list(s) for k in (1, 2) for s in itertools.combinations(tang, k)]


def outcome(build, p, S, **kw):
    try:
        fp = build(p, S, **kw)
    except PreconditionError as exc:
        return ("refused", str(exc))
    c = fp.carrier
    return (c.labels, c.add_table, c.mul_table, c.zero, c.one,
            list(fp.a0_elements()), list(fp.tangible_elements()))


CASES = ([(zn_pair(n), unit_subgroups(n)) for n in range(2, 14)]
         + [(p, small_subsets(p)) for p in
            [nmax_pair(n) for n in range(1, 8)]
            + [max_min_pair(k) for k in range(2, 6)]
            + [double(boolean_semiring())]
            + [chain_pair(k) for k in (1, 2, 3)]]
         + [(p, [[pos[1, 0, 0, 1], pos[0, 1, 1, 0]]])
            for p, pos in [boolean_matrices()]])


@pytest.mark.parametrize("base,subsets", CASES, ids=lambda x: getattr(x, "name", ""))
def test_fraction_pairs_match_reference(base, subsets):
    n = base.carrier.n
    # the reference scan takes about 0.25 s per element order on F_13
    for p, new in orders(base) if n <= 12 else [(base, {i: i for i in range(n)})]:
        for S in subsets:
            S = [new[s] for s in S]
            assert outcome(build_fraction_pair, p, S) == outcome(
                ref.build_fraction_pair, p, S)


def test_boolean_matrices_at_swap_give_a_semiring():
    # S = {I, swap} is not central, so classing takes the non-central
    # branches of common_denominator and frac_mul
    p, pos = boolean_matrices()
    S = [pos[1, 0, 0, 1], pos[0, 1, 1, 0]]
    fp = build_fraction_pair(p, S)
    assert fp.carrier.n == 16
    assert verify_semiring_axioms(fp.carrier).valid
    # every nonzero matrix is tangible; 0/s equals no t/s' with t tangible
    for s in S:
        assert frac_is_tangible(fp.context.fraction(p.carrier.one, s)).status == YES
        assert frac_is_tangible(fp.context.fraction(p.carrier.zero, s)).status == NO


def test_denominator_outside_the_list_matches_reference():
    # S is listed as {2} and decided as F_5^*, so sums land over 4, which
    # no listed fraction has as denominator
    p, nonzero = fq_pair(5), (lambda x: x != 0)
    want = outcome(ref.build_fraction_pair, p, [2], s_member=nonzero)
    assert want[0] == ["0/2", "1/2", "2/2", "3/2", "4/2"]
    assert outcome(build_fraction_pair, p, [2], s_member=nonzero) == want


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_localizing_fp_gives_fp(data):
    q = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    group = data.draw(st.sampled_from(unit_subgroups(q)))
    order = data.draw(st.permutations(range(q)))
    p = permuted(fq_pair(q), order)
    new = {old: i for i, old in enumerate(order)}
    fp = build_fraction_pair(p, [new[s] for s in group])
    c = fp.carrier
    value = []
    for lab in c.labels:
        b, s = lab.split("/")
        value.append(int(b) * pow(int(s), -1, q) % q)
    assert sorted(value) == list(range(q))
    for i, j in itertools.product(range(q), repeat=2):
        assert value[c.add(i, j)] == (value[i] + value[j]) % q
        assert value[c.mul(i, j)] == value[i] * value[j] % q
    assert (value[c.zero], value[c.one]) == (0, 1)
    assert [value[i] for i in fp.a0_elements()] == [0]
    assert sorted(value[i] for i in fp.tangible_elements()) == list(range(1, q))


def test_classing_f17_makes_no_frac_equiv_call(monkeypatch):
    q = 17
    p = fq_pair(q)
    ctx = LocalizationContext(p, range(1, q))
    products = []
    mul = FiniteSemiring.mul

    def counted_mul(self, x, y):
        products.append(None)
        return mul(self, x, y)

    def no_frac_equiv(x, y):
        raise AssertionError("frac_equiv called while classing")

    monkeypatch.setattr(fractions, "frac_equiv", no_frac_equiv)
    monkeypatch.setattr(FiniteSemiring, "mul", counted_mul)
    classes, _ = fractions._fraction_classes(ctx)
    assert len(classes) == q
    assert len(products) <= 2 * q * (q - 1) ** 2
    monkeypatch.setattr(FiniteSemiring, "mul", mul)
    assert build_fraction_pair(p, range(1, q)).carrier.n == q
