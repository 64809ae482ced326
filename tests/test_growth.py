import math

import pytest

import surpassing_reference as ref
from pairalg import growth
from pairalg.cli import builtin_structures, main
from pairalg.errors import BoundExhausted, PreconditionError
from pairalg.growth import (ModulePair, base_check, build_model, commutative_model,
                            free_module_pair, free_words_model, gk_dimension,
                            growth_sequence, hilbert_series, is_semidomain,
                            matrix_units_model, module_morphisms, ore_witness,
                            poly_closed_form, rank, unit_vectors,
                            verify_module_pair)
from pairalg.pairs import SemiringPair
from pairalg.semirings import nat_plus_times


def test_free_module_pair_axioms(bool_pair):
    mp = free_module_pair(bool_pair, 2)
    assert verify_module_pair(mp, admissible=True).valid


def test_module_pair_tangibles_must_span(bool_pair):
    mp = free_module_pair(bool_pair, 2)
    short = ModulePair(bool_pair, mp.elements, mp.add, mp.smul, mp.zero,
                       mp.n_image, tangibles=[(1, 0)])
    report = verify_module_pair(short, admissible=True)
    missed = [v.witness for v in report.violations
              if v.axiom == "tangible-spanning"]
    assert missed == [((0, 1),), ((1, 1),)]


def test_unit_vectors_form_base(bool_pair):
    mp = free_module_pair(bool_pair, 2)
    out = base_check(mp, unit_vectors(mp, 2))
    assert out["is_base"]


def test_proper_subset_does_not_span(bool_pair):
    mp = free_module_pair(bool_pair, 2)
    out = base_check(mp, unit_vectors(mp, 2)[:1])
    assert not out["spans"]


def test_base_check_unknown_on_symbolic_pair():
    # coefficients 3 and 4 give the same truncated vector, and whether 3
    # precedes 4 over the naturals is undecided in any window
    p = SemiringPair(nat_plus_times(), a0=lambda x: x == 0,
                     tangibles=lambda x: x != 0, name="nat")
    mp = ModulePair(p, range(4), lambda v, w: min(v + w, 3),
                    lambda a, v: min(a * v, 3), 0, [0])
    out = base_check(mp, [1], coeff_pool=range(5))
    assert out["spans"] is True
    assert out["independent"] is None and out["is_base"] is None


def test_rank_of_free_module(bool_pair):
    mp = free_module_pair(bool_pair, 2)
    assert rank(mp) == 2


def test_rank_submultiplicative(bool_pair):
    m1 = free_module_pair(bool_pair, 1)
    m2 = free_module_pair(bool_pair, 2)
    assert rank(m2) <= rank(m1) * 2


def test_module_morphism_count(bool_pair):
    m1 = free_module_pair(bool_pair, 1)
    morphs = module_morphisms(m1, m1)
    # identity and the zero map
    assert len(morphs) == 2


def test_free_growth_powers():
    prof = growth_sequence(free_words_model(2), 8)
    assert prof.d == [1] + [2 ** k for k in range(1, 9)]


def test_commutative_growth_matches_closed_form():
    for t in (1, 2, 3):
        prof = growth_sequence(commutative_model(t), 8)
        assert prof.d == poly_closed_form(t, 8)


def test_matrix_units_growth_stops():
    prof = growth_sequence(matrix_units_model(3), 6)
    assert prof.d == [1, 9, 0, 0, 0, 0, 0]


def test_hilbert_series_coefficients():
    prof = growth_sequence(free_words_model(2), 5)
    assert hilbert_series(prof)["coefficients"] == [2, 4, 8, 16, 32]


def test_gk_matrix_units_zero():
    est = gk_dimension(growth_sequence(matrix_units_model(2), 8))
    assert not est["divergent"]
    assert abs(est["estimate"]) <= 0.1


def test_gk_one_variable_near_one():
    est = gk_dimension(growth_sequence(commutative_model(1), 10))
    assert not est["divergent"]
    assert abs(est["estimate"] - 1.0) <= 0.25


def test_gk_free_flagged_divergent():
    est = gk_dimension(growth_sequence(free_words_model(2), 8))
    assert est["divergent"]


def test_build_model_rejects_unknown():
    with pytest.raises(PreconditionError):
        build_model("nope", 2)


def test_supertropical_is_semidomain(st_nat):
    assert is_semidomain(st_nat, window=10)


def test_ordinary_naturals_semidomain():
    s = nat_plus_times()
    p = SemiringPair(s, a0=lambda x: x == 0, tangibles=lambda x: x != 0,
                     name="nat")
    assert is_semidomain(p, window=10)


def test_ore_witness_supertropical(st_nat):
    v = ore_witness(st_nat, ("t", 1), ("t", 2), degree_bound=1, window=4)
    assert v
    b1, b2 = v.witness["b1"], v.witness["b2"]
    assert not st_nat.in_a0(b1) and not st_nat.in_a0(b2)
    c = st_nat.carrier
    combo = c.add(c.mul(b1, ("t", 1)), c.mul(b2, ("t", 2)))
    assert st_nat.in_a0(combo)
    assert (b1, b2) == (("t", 1), ("t", 0))


ORE_CASES = [
    ("stn", "supertropical-naturals", [(("t", 1), ("t", 2)), (("t", 3), ("t", 0))]),
    ("stz", "supertropical-integers", [(("t", -2), ("t", 4)), (("t", 5), ("t", 5))]),
    ("nat", "nat-plus-times", [(2, 3), (1, 1)]),
    ("st3", "supertropical3", [(1, 1)]),
    ("bool", "boolean", [(1, 1)]),
]


@pytest.mark.parametrize("name, builtin, args", ORE_CASES,
                         ids=[c[0] for c in ORE_CASES])
def test_ore_witness_matches_reference(name, builtin, args):
    p = builtin_structures(builtin)["pair"]
    for a1, a2 in args:
        for degree in (0, 1, 2):
            # past window 1 the reference's degree-2 scan on nat-plus-times
            # takes seconds
            for window in (1,) if name == "nat" and degree == 2 else (1, 2, 3):
                want = ref.ore_witness(p, a1, a2, degree_bound=degree, window=window)
                got = ore_witness(p, a1, a2, degree_bound=degree, window=window)
                assert got == want, (a1, a2, degree, window)


def test_ore_witness_evaluates_each_tuple_once(monkeypatch):
    # nat-plus-times has A0 = {0}, so no witness exists and the search runs
    # out: the scan it replaced evaluated every h-tuple again for every
    # g-tuple, 900, 4,624 and 16,900 times; now each degree's (w + 1) and
    # (w + 1)^3 tuples are evaluated once
    p = builtin_structures("nat-plus-times")["pair"]
    calls = []
    value_at = growth.value_at

    def counted(*args):
        calls.append(args)
        return value_at(*args)

    monkeypatch.setattr(growth, "value_at", counted)
    for window, count in ((2, 30), (3, 68), (4, 130)):
        calls.clear()
        v = ore_witness(p, 2, 3, degree_bound=1, window=window)
        assert v.status == "unknown"
        assert len(calls) == count == (window + 1) + (window + 1) ** 3


def test_ore_witness_work_cap(monkeypatch, capsys):
    # nat-plus-times has no witness: at degree 1 and window 2 the search
    # charges its 3 degree-0 and 27 degree-1 coefficient tuples
    p = builtin_structures("nat-plus-times")["pair"]
    monkeypatch.setattr(growth, "MAX_ORE_TUPLES", 30)
    v = ore_witness(p, 2, 3, degree_bound=1, window=2)
    assert (v.status, v.detail) == ("unknown", "no witness at degree bound")
    for cap in (29, 2):
        monkeypatch.setattr(growth, "MAX_ORE_TUPLES", cap)
        v = ore_witness(p, 2, 3, degree_bound=1, window=2)
        assert (v.status, v.bound) == ("unknown", cap)
        assert v.detail == "work cap MAX_ORE_TUPLES=%d spent" % cap
    # the supertropical integers have a constant witness among the 42
    # degree-0 tuples of window 20
    argv = ["ore-witness", "supertropical-integers", "--a1", "1", "--a2", "2"]
    monkeypatch.setattr(growth, "MAX_ORE_TUPLES", 41)
    assert main(argv) == 3
    assert "work cap MAX_ORE_TUPLES=41 spent" in capsys.readouterr().out
    monkeypatch.undo()
    assert main(argv) == 0
    # at the default degree 2 and window 20, degree 2 alone is 21^6 tuples
    v = ore_witness(p, 2, 3)
    assert (v.status, v.bound) == ("unknown", growth.MAX_ORE_TUPLES)


def test_rank_caps_raise_bound_exhausted(bool_pair, monkeypatch):
    mp = free_module_pair(bool_pair, 2)  # 4 elements, rank 2
    monkeypatch.setattr(growth, "MAX_RANK_MODULE", 3)
    with pytest.raises(BoundExhausted, match="MAX_RANK_MODULE=3"):
        rank(mp)
    monkeypatch.undo()
    monkeypatch.setattr(growth, "MAX_RANK_GENERATORS", 1)
    with pytest.raises(BoundExhausted, match="MAX_RANK_GENERATORS=1"):
        rank(mp)
