import collections
import itertools
import os
import subprocess
import sys

import pytest

from pairalg import congruences
from pairalg.congruences import (NO_PAIR_CONGRUENCE, Congruence,
                                 NoPairCongruence, classify_congruence,
                                 congruence_kernel,
                                 diagonal, enumerate_congruences,
                                 generate_congruence, generated_chain_probe,
                                 intersection_of_primes_above, is_prime,
                                 is_semiprime, levitzki_sequence,
                                 prime_spectrum_krull, principal_relation,
                                 quotient_pair, radical, twist_product,
                                 verify_pair_homomorphism)
from pairalg.errors import BoundExhausted, StructureError
from pairalg.pairs import SemiringPair, verify_admissible
from pairalg.semirings import FiniteSemiring, boolean_semiring, nmax_trunc
from test_congruence_oracle import (fq_pair, max_min_pair,
                                    upper_triangular_boolean)


def test_twist_product_formula(bool_pair):
    # (a1,a1')*(a2,a2') = (a1a2 + a1'a2', a1a2' + a1'a2)
    assert twist_product(bool_pair.carrier, (0, 1), (0, 1)) == (1, 0)
    assert twist_product(bool_pair.carrier, (1, 0), (0, 1)) == (0, 1)


def test_twist_associative_small_carriers(bool_pair, st3, double_bool):
    for p in (bool_pair, st3, double_bool):
        elems = list(p.elements())
        if len(elems) > 4:
            continue
        pts = list(itertools.product(elems, repeat=2))
        for x, y, z in itertools.product(pts, repeat=3):
            a = twist_product(p.carrier, twist_product(p.carrier, x, y), z)
            b = twist_product(p.carrier, x, twist_product(p.carrier, y, z))
            assert a == b


def test_diagonal_is_prime_on_boolean(bool_pair):
    d = diagonal(bool_pair)
    assert is_semiprime(d)
    assert is_prime(d)


def test_boolean_spectrum(bool_pair):
    spec = prime_spectrum_krull(bool_pair)
    assert len(spec["primes"]) == 1
    assert spec["krull_dimension"] == 0


def test_st3_diagonal_not_semiprime(st3):
    assert not is_semiprime(diagonal(st3))


def test_st3_radical_of_diagonal_is_marker(st3):
    d = diagonal(st3)
    congs = enumerate_congruences(st3)
    assert radical(d) == NO_PAIR_CONGRUENCE
    assert intersection_of_primes_above(d, congs) == NO_PAIR_CONGRUENCE


def test_double_boolean_has_no_primes(double_bool):
    spec = prime_spectrum_krull(double_bool)
    assert spec["primes"] == []
    assert spec["krull_dimension"] is None


def test_radical_matches_prime_intersection_everywhere(bool_pair, st3,
                                                       double_bool):
    for p in (bool_pair, st3, double_bool):
        congs = enumerate_congruences(p)
        for c in congs:
            assert radical(c) == intersection_of_primes_above(c, congs), p.name


def test_classify_prime_iff_semiprime_irreducible(bool_pair, st3):
    for p in (bool_pair, st3):
        congs = enumerate_congruences(p)
        for c in congs:
            rec = classify_congruence(c, congs)
            assert rec["prime"] == (rec["semiprime"] and rec["irreducible"])


def test_generate_congruence_blocked_by_tangible_a0_pair(st3):
    one = st3.carrier.index("1")
    ghost = st3.carrier.index("1v")
    with pytest.raises(NoPairCongruence):
        generate_congruence(st3, [(one, ghost)])


def test_principal_relation_matches_generated_closure():
    n1 = nmax_trunc(1)
    p = SemiringPair(n1, a0=[n1.zero], tangibles=[n1.one, 2], name="nmax1")
    for a in p.elements():
        seeded = generate_congruence(p, [(a, n1.zero)],
                                     require_admissible=False)
        formula = generate_congruence(p, principal_relation(p, a),
                                      require_admissible=False)
        assert seeded == formula


def test_quotient_pair_boolean(bool_pair):
    q = quotient_pair(bool_pair, diagonal(bool_pair))
    assert q.carrier.n == 2
    assert q.admissibility.valid


def test_quotient_pair_rejects_a_partition_that_is_no_congruence():
    # {0, 1} as one class on nmax_trunc(3): 0 * 1 = 1 but 1 * 1 = 2
    s = nmax_trunc(3)
    p = SemiringPair(s, [s.zero], range(1, s.n))
    cls = Congruence(p, [0, 1, 1, 3, 4], require_admissible=False)
    with pytest.raises(StructureError,
                       match="induced operation ill-defined on classes"):
        quotient_pair(p, cls)


def test_congruence_kernel_of_sum_map(bool_pair, double_bool):
    B = bool_pair.carrier
    c = double_bool.carrier

    def f(i):
        a, b = c.labels[i][1:-1].split(",")
        return B.add(int(a), int(b))

    assert verify_pair_homomorphism(f, double_bool, bool_pair, check_a0=False)
    ker = congruence_kernel(f, double_bool, bool_pair, check_a0=False)
    assert not ker.admissible
    assert len(ker.relation) == 10


def test_levitzki_witness_exists_for_non_semiprime(st3):
    d = diagonal(st3)
    assert not is_semiprime(d)
    elems = list(st3.elements())
    found = False
    for start in itertools.product(elems, repeat=2):
        if start in d:
            continue
        out = levitzki_sequence(d, start)
        if out["terminated"] and out["witness"] is not None:
            found = True
            break
    assert found


def test_generated_chain_probe_collapses_on_truncation():
    n3 = nmax_trunc(3)
    p = SemiringPair(n3, a0=[n3.zero], tangibles=list(range(1, n3.n)),
                     name="nmax3-pair")
    seeds = [[(n3.index("0"), n3.index("1"))],
             [(n3.index("0"), n3.index("1")), (n3.index("0"), n3.index("2"))]]
    congs, verdicts = generated_chain_probe(p, seeds)
    assert len(congs) == 2
    assert congs[0] <= congs[1]


def test_search_caps_raise_bound_exhausted(monkeypatch):
    n64 = nmax_trunc(64)  # 66 elements, past the 64-element enumeration cap
    p = SemiringPair(n64, a0=[n64.zero], tangibles=list(range(1, n64.n)),
                     name="nmax64-pair")
    with pytest.raises(BoundExhausted, match="MAX_ELEMS=64"):
        enumerate_congruences(p)
    # the max-min chain of 6 elements has 16 pair-congruences
    chain = FiniteSemiring([str(i) for i in range(6)],
                           [[max(i, j) for j in range(6)] for i in range(6)],
                           [[min(i, j) for j in range(6)] for i in range(6)],
                           zero=0, one=5, name="maxmin(6)")
    maxmin = SemiringPair(chain, a0=[0], tangibles=range(1, 6))
    monkeypatch.setattr(congruences, "MAX_CONGRUENCES", 16)
    assert len(enumerate_congruences(maxmin)) == 16
    monkeypatch.setattr(congruences, "MAX_CONGRUENCES", 15)
    with pytest.raises(BoundExhausted, match="MAX_CONGRUENCES=15"):
        enumerate_congruences(maxmin)


def test_enumeration_closures_are_bounded(monkeypatch):
    # maxmin(8): one closure per pair for the 21 distinct principal
    # congruences, one per distinct principal to keep the 6 join-irreducible
    # ones, and the joins with those: 241 closures, where joins with every
    # principal formed 1,051
    calls = collections.Counter()
    real = congruences._close

    def counting(ix, seeds, base=None, translate=True, stop=True):
        calls["principal" if translate else "filter" if base is None
              else "join"] += 1
        return real(ix, seeds, base, translate, stop)

    monkeypatch.setattr(congruences, "_close", counting)
    assert len(enumerate_congruences(max_min_pair(8))) == 64
    assert calls == {"principal": 28, "filter": 21, "join": 192}


def test_classification_budget_raises_bound_exhausted(monkeypatch, bool_pair):
    # the boolean pair's diagonal has a chain quotient: both tests read the
    # tables and form no twist product, so the whole spectrum fits a budget
    # of 0
    monkeypatch.setattr(congruences, "MAX_TWIST_PRODUCTS", 0)
    d = diagonal(bool_pair)
    assert is_prime(d) and is_semiprime(d)
    assert len(prime_spectrum_krull(bool_pair)["primes"]) == 1
    # F_3 is commutative but no chain: its diagonal squares the 2 orbits
    # (0, 1) and (1, 2) for the semiprime test and multiplies their 3
    # pairings for the prime test; the spectrum charges both to one budget
    f3 = fq_pair(3)
    d = diagonal(f3)
    for test, n in ((is_semiprime, 2), (is_prime, 3)):
        monkeypatch.setattr(congruences, "MAX_TWIST_PRODUCTS", n)
        assert test(d)
        monkeypatch.setattr(congruences, "MAX_TWIST_PRODUCTS", n - 1)
        with pytest.raises(BoundExhausted, match="MAX_TWIST_PRODUCTS=%d" % (n - 1)):
            test(d)
    monkeypatch.setattr(congruences, "MAX_TWIST_PRODUCTS", 5)
    assert len(prime_spectrum_krull(f3)["primes"]) == 1
    monkeypatch.setattr(congruences, "MAX_TWIST_PRODUCTS", 4)
    with pytest.raises(BoundExhausted, match="MAX_TWIST_PRODUCTS=4"):
        prime_spectrum_krull(f3)


def test_scan_budget_counts_twist_products(monkeypatch):
    # mul of the upper-triangular Boolean matrices does not commute, so the
    # 8-class diagonal is scanned: 74 twist products for the prime test, 76
    # for the semiprime test; its 4 other congruences have commutative
    # quotients, three of them chains, and the spectrum forms 158 products
    # in all
    p = upper_triangular_boolean()
    d = diagonal(p)
    for test, n in ((is_prime, 74), (is_semiprime, 76)):
        monkeypatch.setattr(congruences, "MAX_TWIST_PRODUCTS", n)
        assert not test(d)
        monkeypatch.setattr(congruences, "MAX_TWIST_PRODUCTS", n - 1)
        with pytest.raises(BoundExhausted):
            test(d)
    monkeypatch.setattr(congruences, "MAX_TWIST_PRODUCTS", 158)
    assert len(prime_spectrum_krull(p)["primes"]) == 3
    monkeypatch.setattr(congruences, "MAX_TWIST_PRODUCTS", 157)
    with pytest.raises(BoundExhausted, match="MAX_TWIST_PRODUCTS=157"):
        prime_spectrum_krull(p)


def test_spectrum_of_a_large_field():
    # F_61: its diagonal is prime, and the 1830 pairs (a, b) with a < b fall
    # into 31 orbits of unit scaling and swap, so the spectrum forms 527
    # twist products where a scan of all pairs would exceed the budget
    spec = prime_spectrum_krull(fq_pair(61))
    assert len(spec["primes"]) == 1 and spec["krull_dimension"] == 0


# the max-min chain 0 < 1 < 2 fails both checks (ROADMAP item 1), so each
# call must raise, also when assert statements are compiled away
UNDER_O = """
from pairalg.congruences import diagonal, prime_spectrum_krull, radical
from pairalg.pairs import SemiringPair
from pairalg.semirings import FiniteSemiring

r = range(3)
chain = FiniteSemiring([str(i) for i in r], [[max(i, j) for j in r] for i in r],
                       [[min(i, j) for j in r] for i in r], zero=0, one=2)
p = SemiringPair(chain, a0=[0], tangibles=[1, 2])
for call in (lambda: prime_spectrum_krull(p), lambda: radical(diagonal(p))):
    try:
        call()
        print("returned")
    except AssertionError as exc:
        print(repr(exc))
"""


def test_invariant_checks_survive_optimized_mode():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    out = subprocess.run([sys.executable, "-O", "-c", UNDER_O],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.splitlines() == [
        "AssertionError('semiprime/prime-intersection mismatch')",
        "AssertionError()"]


def test_closure_needs_no_cap_on_a_large_carrier():
    # 514 elements: relating 2 with the top merges every value from 2 up
    n512 = nmax_trunc(512)
    p = SemiringPair(n512, a0=[n512.zero], tangibles=list(range(1, n512.n)),
                     name="nmax512-pair")
    cong = generate_congruence(p, [(n512.index("2"), n512.index("512"))])
    assert cong.cls == (0, 1, 2) + (3,) * 511
