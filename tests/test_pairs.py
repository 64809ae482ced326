import pytest

from pairalg.cli import builtin_structures
from pairalg.errors import NO, UNKNOWN, YES, Verdict
from pairalg.pairs import (SemiringPair, check_nondegenerate,
                           check_reversibility, check_weakly_bipotent,
                           compute_center, derive_negation, is_shallow,
                           property_n_status, verify_admissible,
                           verify_surpassing)
from pairalg.polynomials import PolynomialPair
from pairalg.semirings import (double, nat_plus_times, nmax_trunc,
                               supertropical_naturals)


def test_boolean_pair_admissible(bool_pair):
    assert verify_admissible(bool_pair).valid


def test_double_boolean_admissible(double_bool):
    assert verify_admissible(double_bool).valid


def test_supertropical3_admissible(st3):
    assert verify_admissible(st3).valid


def test_symbolic_supertropical_admissible(st_nat):
    assert verify_admissible(st_nat, window=8).valid


def test_shallow_fixtures(bool_pair, st3, double_bool):
    assert is_shallow(bool_pair)
    assert is_shallow(st3)
    assert is_shallow(double_bool)


def test_polynomial_pair_not_shallow(st3):
    # x + 1v has a tangible and a ghost coefficient: neither layer holds it
    pp = PolynomialPair(st3)
    f = pp.poly({(1,): st3.carrier.index("1"), (0,): st3.carrier.index("1v")})
    assert not pp.in_a0(f) and not pp.is_tangible(f)


def test_surpassing_axioms(bool_pair, st3, double_bool):
    for p in (bool_pair, st3, double_bool):
        assert verify_surpassing(p).valid, p.name


def test_shallow_forces_strong(st3):
    assert is_shallow(st3)
    assert verify_surpassing(st3, strong=True).valid


def test_symbolic_surpass_closed_form(st_nat):
    assert st_nat.surpasses(("t", 3), ("g", 3))
    assert st_nat.surpasses(("z",), ("g", 5))
    assert not st_nat.surpasses(("g", 3), ("t", 3))
    assert not st_nat.surpasses(("t", 3), ("t", 5))


def test_property_n_supertropical(st3):
    status = property_n_status(st3)
    assert status.property_n
    one = st3.carrier.index("1")
    assert one in status.partners[one]


def test_property_n_absent_on_plain_boolean(bool_pair):
    # 1 + 1 = 1 stays tangible, so no tangible quasi-negation exists
    assert property_n_status(bool_pair).status == "none"


def test_derive_negation_double(double_bool):
    neg = derive_negation(double_bool)
    c = double_bool.carrier
    e01 = c.labels.index("(0,1)")
    e10 = c.labels.index("(1,0)")
    assert neg(e01) == e10
    assert neg(e10) == e01


def test_derive_negation_supertropical_identity(st3):
    neg = derive_negation(st3)
    one = st3.carrier.index("1")
    assert neg(one) == one


def test_weakly_bipotent(st3, double_bool):
    assert check_weakly_bipotent(st3)
    assert check_weakly_bipotent(double_bool)


def test_not_weakly_bipotent_over_ordinary_naturals():
    from pairalg.semirings import nat_plus_times
    s = nat_plus_times()
    p = SemiringPair(s, a0=lambda x: x == 0, tangibles=lambda x: x != 0,
                     name="nat")
    v = check_weakly_bipotent(p, window=6)
    assert not v and v.witness == (1, 2)


def test_admissibility_violation_reported():
    n1 = nmax_trunc(1)
    # both layers claim the unit: disjointness fails
    p = SemiringPair(n1, a0=[n1.zero, n1.one], tangibles=[n1.one, 2])
    rep = verify_admissible(p)
    assert not rep.valid
    assert any(v.axiom == "a0-tangible-disjoint" for v in rep.violations)


def test_reversibility_boolean(bool_pair):
    # 0 precedes b + a only for b = a = 0, and then a precedes b
    for a in bool_pair.elements():
        assert check_reversibility(bool_pair, a).status == YES


def test_reversibility_fails_at_ghost(st3):
    # 0 + 1v = 1v lies in A0, so 0 precedes it, but 1v does not precede 0
    c = st3.carrier
    ghost, zero = c.index("1v"), c.index("0")
    assert check_reversibility(st3, c.index("1")).status == YES
    v = check_reversibility(st3, ghost)
    assert v.status == NO and v.witness == zero


def test_symbolic_yes_verdicts_carry_their_window(st_int):
    # a yes read off a window of an infinite carrier says which window
    windowed = Verdict(YES, bound=4, detail="windowed")
    assert check_reversibility(st_int, ("t", 0), window=4) == windowed
    assert check_weakly_bipotent(st_int, window=4) == windowed
    assert check_nondegenerate(st_int, window=4) == windowed
    assert is_shallow(st_int, window=4) == windowed


def test_nondegenerate_boolean(bool_pair):
    # the only tangible point is 1, where every tangible polynomial is 1
    assert check_nondegenerate(bool_pair).status == YES


def test_supertropical3_degenerate(st3):
    # x + 1 at the only tangible point x = 1 is 1v, a quasi-zero
    one = st3.carrier.index("1")
    v = check_nondegenerate(st3)
    assert v.status == NO
    assert v.witness == [((0,), one), ((1,), one)]


def test_nondegenerate_no_is_exact(st3):
    # a polynomial in A0 at every tangible of a symbolic window may leave A0
    # at a wider one: over the supertropical naturals, windows 0 and 1 find
    # one such, window 2 none; a finite carrier's no is exact and unbounded
    p = supertropical_naturals()
    found = [check_nondegenerate(p, window=w) for w in range(3)]
    assert [(v.status, v.bound) for v in found] == [
        (UNKNOWN, 0), (UNKNOWN, 1), (YES, 2)]
    assert found[0].witness == [((0,), ("t", 0)), ((1,), ("t", 0))]
    one = st3.carrier.index("1")
    assert check_nondegenerate(st3) == Verdict(NO, [((0,), one), ((1,), one)])


def test_nondegenerate_shallow_no_needs_an_exact_shallow_yes():
    # is_shallow's yes on a symbolic window leaves elements past it unseen,
    # so a value outside A0 that is not tangible refutes nothing: over
    # double(nat) at window 1 such a value, (2, 1), shows the pair is not
    # shallow at all, and the polynomial in A0 on the window stays unknown
    p = double(nat_plus_times())
    assert is_shallow(p, window=1) == Verdict(YES, bound=1, detail="windowed")
    found = [check_nondegenerate(p, window=w) for w in range(3)]
    assert [(v.status, v.bound) for v in found] == [
        (YES, 0), (UNKNOWN, 1), (YES, 2)]
    assert found[1].detail == "in A0 at every tangible of the window"


def test_center_of_commutative_pair(bool_pair, st3, double_bool):
    for p in (bool_pair, st3, double_bool):
        center = compute_center(p)
        assert center["center"] == list(p.elements())
        assert center["is_commutative"]


def test_listed_a0_decides_precedes_zero():
    # nat-plus-times lists A0 = {0}: a miss is False, found without sampling
    p = builtin_structures("nat-plus-times")["pair"]

    def no_sample(window):
        raise AssertionError("surpasses sampled the carrier")

    p.carrier.sample_fn = no_sample
    assert p.surpasses(2, 3) is False
    assert p.surpasses(3, 3) is True
    assert p.a0_elements() == [0]


def test_precedes_zero_samples_a0_once_per_window():
    # A0 is the diagonal predicate: the sample of the last window is kept
    p = double(nat_plus_times())
    fresh = double(nat_plus_times())
    windows = []
    sample_fn = p.carrier.sample_fn

    def counted(window):
        windows.append(window)
        return sample_fn(window)

    p.carrier.sample_fn = counted
    elems = fresh.elements(2)
    for window in (2, 2, 3, 3, 2):
        for b1 in elems[:4]:
            for b2 in elems:
                a0 = fresh.a0_elements(window)
                want = True if any(fresh.carrier.add(b1, y) == b2 for y in a0) else None
                assert p.surpasses(b1, b2, window) is want
    assert windows == [2, 3, 2]
    assert p.surpasses((0, 0), (1, 1), 2) is True
    assert p.surpasses((0, 0), (5, 5), 2) is None
    assert windows == [2, 3, 2]
