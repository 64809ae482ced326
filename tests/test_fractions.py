import itertools
import random
from fractions import Fraction as QFraction

import pytest

from pairalg import fractions

from pairalg.errors import PreconditionError, UNKNOWN, Verdict
from pairalg.fractions import (LocalizationContext, build_fraction_pair,
                               check_ore, check_regular, common_denominator,
                               frac_add, frac_equiv, frac_in_a0,
                               frac_is_tangible, frac_mul)
from pairalg.pairs import SemiringPair
from pairalg.semirings import (FiniteSemiring, SymbolicSemiring, double,
                               nat_plus_times, supertropical_integers)


def dyadic_context(window=30):
    s = nat_plus_times()
    p = SemiringPair(s, a0=lambda x: x == 0, tangibles=lambda x: x != 0,
                     name="nat")
    powers = [2 ** k for k in range(8)]
    return LocalizationContext(p, powers,
                               s_member=lambda x: x > 0 and (x & (x - 1)) == 0,
                               window=window)


def test_regular_and_ore(bool_pair):
    assert check_regular(bool_pair, 1)
    assert check_ore(bool_pair, [1])


def test_preceq_left_unknown_on_symbolic_pair():
    # in double(nat), (1,1) reaches (0,0) through no quasi-zero of any window,
    # so the surpassing order is undecided there and no pair fails
    v = check_regular(double(nat_plus_times()), (1, 0), mode="preceq_left",
                      window=2)
    assert v.status == UNKNOWN and v.bound == 2


def test_central_shortcut():
    ctx = dyadic_context()
    assert ctx.central
    assert ctx.ore.detail == "central"


def test_frac_ops_match_rational_oracle():
    ctx = dyadic_context()
    rng = random.Random(3)
    for _ in range(300):
        x = ctx.fraction(rng.randrange(0, 40), 2 ** rng.randrange(0, 5))
        y = ctx.fraction(rng.randrange(0, 40), 2 ** rng.randrange(0, 5))
        s = frac_add(x, y)
        m = frac_mul(x, y)
        assert QFraction(s.b, s.s) == QFraction(x.b, x.s) + QFraction(y.b, y.s)
        assert QFraction(m.b, m.s) == QFraction(x.b, x.s) * QFraction(y.b, y.s)


def test_equivalence_is_unreduced():
    ctx = dyadic_context()
    x = ctx.fraction(3, 2)
    y = ctx.fraction(6, 4)
    assert x.b != y.b
    assert frac_equiv(x, y)
    assert not frac_equiv(x, ctx.fraction(5, 4))


def test_ops_well_defined_on_representatives():
    ctx = dyadic_context()
    rng = random.Random(9)
    for _ in range(100):
        b, s = rng.randrange(0, 20), 2 ** rng.randrange(0, 4)
        k = 2 ** rng.randrange(1, 3)
        x1 = ctx.fraction(b, s)
        x2 = ctx.fraction(b * k, s * k)
        y = ctx.fraction(rng.randrange(0, 20), 2 ** rng.randrange(0, 4))
        assert frac_equiv(frac_add(x1, y), frac_add(x2, y))
        assert frac_equiv(frac_mul(x1, y), frac_mul(x2, y))


def test_common_denominator():
    ctx = dyadic_context()
    x = ctx.fraction(3, 2)
    y = ctx.fraction(5, 8)
    (x2, y2) = common_denominator(x, y)
    assert x2.s == y2.s
    assert frac_equiv(x, x2) and frac_equiv(y, y2)


def test_membership_predicates():
    ctx = dyadic_context()
    assert frac_in_a0(ctx.fraction(0, 4))
    assert frac_is_tangible(ctx.fraction(3, 2))
    assert not frac_in_a0(ctx.fraction(3, 2))


def test_symbolic_membership_misses_carry_the_window():
    ctx = dyadic_context(window=5)
    unknown = Verdict(UNKNOWN, bound=5, detail="bounded search")
    assert frac_in_a0(ctx.fraction(3, 2)) == unknown
    assert frac_is_tangible(ctx.fraction(0, 2)) == unknown
    # a miss of the equivalence search carries the window too, not the size
    # of the tangible sample (7 on supertropical Z with window 3)
    ctx = LocalizationContext(supertropical_integers(), [("t", 0)], window=3)
    x, y = ctx.fraction(("t", 1), ("t", 0)), ctx.fraction(("g", 1), ("t", 0))
    assert frac_equiv(x, y) == Verdict(UNKNOWN, bound=3,
                                       detail="no witness in window")


def test_fraction_needs_denominator_in_s():
    ctx = dyadic_context()
    with pytest.raises(PreconditionError):
        ctx.fraction(1, 3)


def test_finite_fraction_pair(bool_pair):
    fp = build_fraction_pair(bool_pair, [1])
    assert fp.carrier.n == 2
    assert fp.admissibility.valid if hasattr(fp, "admissibility") else True


def field_pair(q):
    s = FiniteSemiring([str(i) for i in range(q)],
                       [[(i + j) % q for j in range(q)] for i in range(q)],
                       [[i * j % q for j in range(q)] for i in range(q)], 0, 1)
    return SemiringPair(s, [0], range(1, q))


def boolean_matrices():
    """2x2 Boolean matrices, entries row by row, and the index of each."""
    mats = list(itertools.product((0, 1), repeat=4))
    pos = {m: i for i, m in enumerate(mats)}

    def mul(a, b):
        return tuple(int(any(a[2 * i + k] and b[2 * k + j] for k in range(2)))
                     for i in range(2) for j in range(2))

    s = FiniteSemiring(["".join(map(str, m)) for m in mats],
                       [[pos[tuple(map(max, a, b))] for b in mats] for a in mats],
                       [[pos[mul(a, b)] for b in mats] for a in mats],
                       pos[0, 0, 0, 0], pos[1, 0, 0, 1], name="B2x2")
    return SemiringPair(s, [s.zero], range(1, 16)), pos


def count_regular_modes(monkeypatch):
    modes = []
    check = fractions.check_regular

    def counted(p, s, mode="left", window=30):
        modes.append(mode)
        return check(p, s, mode, window)

    monkeypatch.setattr(fractions, "check_regular", counted)
    return modes


def test_ore_runs_right_cancellation_only_off_the_center(monkeypatch):
    modes = count_regular_modes(monkeypatch)
    v = check_ore(field_pair(7), range(1, 7))
    assert v.detail == "central"
    assert modes == ["left"] * 6

    # the swap matrix is not central
    p, pos = boolean_matrices()
    S = [pos[1, 0, 0, 1], pos[0, 1, 1, 0]]
    modes.clear()
    v = check_ore(p, S)
    assert v.detail != "central"
    assert modes == ["left", "right"] * 2


def test_ore_unknown_names_its_window():
    # 2x2 matrices over N, sampled with entries up to the window: within
    # window 1, (0 0; 1 0) has no common multiple with diag(2, 1), which a
    # wider window may still supply, so the unknown says where it looked
    def mul(x, y):
        return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2))
                           for j in range(2)) for i in range(2))

    def add(x, y):
        return tuple(tuple(a + b for a, b in zip(r, q)) for r, q in zip(x, y))

    zero, one, d = ((0, 0), (0, 0)), ((1, 0), (0, 1)), ((2, 0), (0, 1))
    m2 = SymbolicSemiring(
        "M2(N)", add, mul, zero, one,
        sample_fn=lambda w: [((a, b), (c, e)) for a, b, c, e
                             in itertools.product(range(w + 1), repeat=4)])
    p = SemiringPair(m2, [zero], lambda x: x != zero)
    powers_of_d = lambda x: (x[0][1] == x[1][0] == 0 and x[1][1] == 1
                             and x[0][0] > 0 and x[0][0] & (x[0][0] - 1) == 0)
    v = check_ore(p, [one, d], window=1, s_member=powers_of_d)
    assert v == Verdict(UNKNOWN, ("no common multiple", ((0, 0), (1, 0)), d),
                        bound=1)
