"""Every public yes/no decision answers with a Verdict, on finite fixtures
and, where the decision applies, on a symbolic builtin."""

import os

import pytest

from pairalg.cli import load_input
from pairalg.congruences import (congruence_kernel, diagonal,
                                 enumerate_congruences, is_irreducible,
                                 is_prime, is_semiprime,
                                 verify_pair_homomorphism)
from pairalg.errors import NO, UNKNOWN, YES, PreconditionError, Verdict
from pairalg.fractions import LocalizationContext, check_ore, check_regular
from pairalg.growth import is_semidomain
from pairalg.pairs import (check_nondegenerate, check_reversibility,
                           check_weakly_bipotent, is_shallow)
from pairalg.semirings import supertropical_integers

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "pairalg", "fixtures")
FINITE = [os.path.join(FIXTURES, n)
          for n in ("boolean.pair", "supertropical3.pair")]
SYMBOLIC = ["supertropical-integers"]

ANY_CARRIER = {
    "is_shallow": is_shallow,
    "check_reversibility": lambda p: check_reversibility(p, p.carrier.one),
    "check_weakly_bipotent": check_weakly_bipotent,
    "check_nondegenerate": check_nondegenerate,
    "check_regular": lambda p: check_regular(p, p.carrier.one),
    "check_ore": lambda p: check_ore(p, [p.carrier.one]),
    "is_semidomain": is_semidomain,
}
FINITE_CARRIER = {
    "is_prime": lambda p: is_prime(diagonal(p)),
    "is_semiprime": lambda p: is_semiprime(diagonal(p)),
    "is_irreducible": lambda p: is_irreducible(diagonal(p),
                                               enumerate_congruences(p)),
    "verify_pair_homomorphism":
        lambda p: verify_pair_homomorphism(lambda x: x, p, p),
}
CASES = ([(name, spec) for name in ANY_CARRIER for spec in FINITE + SYMBOLIC]
         + [(name, spec) for name in FINITE_CARRIER for spec in FINITE])


@pytest.mark.parametrize("name, spec", CASES, ids=os.path.basename)
def test_decisions_return_verdicts(name, spec):
    p = load_input(spec)["pair"]
    v = {**ANY_CARRIER, **FINITE_CARRIER}[name](p)
    assert isinstance(v, Verdict)
    assert v.status in (YES, NO, UNKNOWN)
    assert bool(v) == (v.status == YES)


@pytest.mark.parametrize("name", ANY_CARRIER)
def test_symbolic_yes_names_its_window(name):
    # a search on a symbolic carrier covers a window only, so its yes says
    # which one
    v = ANY_CARRIER[name](load_input(SYMBOLIC[0])["pair"])
    assert v.status != YES or v.bound is not None


def test_central_ore_keeps_its_detail_and_names_its_window():
    ctx = LocalizationContext(supertropical_integers(), [("t", 0)], window=3)
    assert ctx.ore == Verdict(YES, bound=3, detail="central")
    assert ctx.central


def test_non_homomorphism_names_law_and_argument(st3):
    c = st3.carrier
    zero, one, ghost = c.index("0"), c.index("1"), c.index("1v")
    # 1 + 1 = 1v, but the map sends 1v to 1, where 1 + 1 lands on 1v again
    ghost_to_one = {zero: zero, one: one, ghost: one}.__getitem__
    v = verify_pair_homomorphism(ghost_to_one, st3, st3, check_a0=False)
    assert v == Verdict(NO, witness=(one, one), detail="additivity")
    with pytest.raises(PreconditionError):
        congruence_kernel(ghost_to_one, st3, st3, check_a0=False)
    v = verify_pair_homomorphism(lambda x: zero, st3, st3)
    assert v == Verdict(NO, witness=one, detail="one")
