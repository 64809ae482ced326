"""The hand-written set closures that ``pairs.additive_closure`` replaced,
kept as a reference: the snapshot rounds of ``ModulePair.span``, which
apply every scalar and form every ordered pair of the set each round, and
``prime_spectrum_krull`` with its own worklist of meets. The bodies are the
library's before the change.

Also the tangible-spanning checks of ``verify_admissible`` and of
``verify_module_pair(admissible=True)`` as they were before
``pairs.unspanned``: every element the pairwise closure of T u {0} misses,
in element order, with that closure copied here as it was."""

import itertools

from pairalg.congruences import (_longest_chain, _meet, _Work,
                                 enumerate_congruences, is_prime, is_semiprime)


def span(mp, gens):
    current = set(mp.n_image) | {mp.zero} | set(gens)
    scalars = list(mp.pair.carrier.elements())
    grown = True
    while grown:
        grown = False
        snapshot = list(current)
        for v in snapshot:
            for a in scalars:
                w = mp.smul(a, v)
                if w not in current:
                    current.add(w)
                    grown = True
        snapshot = list(current)
        for v, w in itertools.product(snapshot, repeat=2):
            u = mp.add(v, w)
            if u not in current:
                current.add(u)
                grown = True
    return current


def prime_spectrum_krull(p):
    lattice = enumerate_congruences(p)
    work = _Work()
    primes = [c for c in lattice if is_prime(c, work)]
    semiprimes = {c.cls for c in lattice if is_semiprime(c, work)}
    # intersections of nonempty sets of primes: the primes closed under meets
    from_primes = {q.cls for q in primes}
    frontier = list(from_primes)
    while frontier:
        cls = frontier.pop()
        for q in primes:
            m = _meet(cls, q.cls)
            if m not in from_primes:
                from_primes.add(m)
                frontier.append(m)
    assert semiprimes == from_primes, "semiprime/prime-intersection mismatch"
    dim = _longest_chain(primes) if primes else None
    return {
        "congruences": lattice,
        "primes": primes,
        "krull_dimension": dim,
        "semiprime_count": len(semiprimes),
    }


def pairwise_closure(add, seeds):
    reached = set(seeds)
    frontier = list(seeds)
    while frontier:
        x = frontier.pop()
        for y in list(reached):
            s = add(x, y)
            if s not in reached:
                reached.add(s)
                frontier.append(s)
    return reached


def admissible_unspanned(p):
    c = p.carrier
    reached = pairwise_closure(c.add, set(p.tangible_elements()) | {c.zero})
    return [x for x in p.elements() if x not in reached]


def module_unspanned(mp):
    reach = pairwise_closure(mp.add, {mp.zero} | mp.tangibles)
    return [v for v in mp.elements if v not in reach]
