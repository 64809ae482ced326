"""Reference computations the benchmark checks answers against.

Everything here is written from the definitions, independently of the
library's algorithms: congruences are class arrays closed by union-find,
the lattice is a partition walk, primality and the twist-power radical are
the literal element criteria, and the supertropical carriers have their own
arithmetic. Finite structures are passed as plain tables."""

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Tables:
    """A finite pair as plain data: labels, operation tables, A0 and T."""

    labels: tuple
    add: tuple
    mul: tuple
    a0: frozenset
    tang: frozenset

    @classmethod
    def of_pair(cls, p):
        c = p.carrier
        return cls(tuple(c.labels), tuple(map(tuple, c.add_table)),
                   tuple(map(tuple, c.mul_table)),
                   frozenset(p.a0_elements()), frozenset(p.tangible_elements()))

    @property
    def n(self):
        return len(self.labels)


# ---------------------------------------------------------------------------
# congruences as class arrays


def closure(t, seeds):
    """Least congruence containing the seed pairs, as a class array whose
    entries are the least element of each class."""
    parent = list(range(t.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    add, mul, elems = t.add, t.mul, range(t.n)
    work = list(seeds)
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[max(ra, rb)] = min(ra, rb)
        for x in elems:
            work.append((add[a][x], add[b][x]))
            work.append((mul[a][x], mul[b][x]))
            work.append((mul[x][a], mul[x][b]))
    return canonical([find(x) for x in elems])


def canonical(cls):
    first = {}
    return tuple(first.setdefault(c, i) for i, c in enumerate(cls))


def relation(cls):
    return frozenset((a, b) for a in range(len(cls)) for b in range(len(cls))
                     if cls[a] == cls[b])


def labelled(t, rel):
    return frozenset((t.labels[a], t.labels[b]) for a, b in rel)


def meets_t_a0(t, cls):
    for a in range(t.n):
        for b in range(t.n):
            if cls[a] == cls[b] and a in t.tang and b in t.a0:
                return (a, b)
    return None


def is_congruence(t, rel):
    """Equivalence relation closed under + and both multiplications."""
    if any((a, a) not in rel for a in range(t.n)):
        return False
    for a, b in rel:
        if (b, a) not in rel:
            return False
        for x in range(t.n):
            if ((t.add[a][x], t.add[b][x]) not in rel
                    or (t.mul[a][x], t.mul[b][x]) not in rel
                    or (t.mul[x][a], t.mul[x][b]) not in rel):
                return False
    blocks = {}
    for a, b in rel:
        blocks.setdefault(a, set()).add(b)
    return all(blocks[a] == blocks[b] for a, b in rel)


def _partitions(n):
    rgs = [0] * n
    while True:
        yield tuple(rgs)
        i = n - 1
        while i > 0 and rgs[i] > max(rgs[:i]):
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        for j in range(i + 1, n):
            rgs[j] = 0


def lattice(t):
    """Every pair-congruence (disjoint from T x A0), as class arrays."""
    out = []
    for rgs in _partitions(t.n):
        cls = canonical(rgs)
        if meets_t_a0(t, cls) is None and _compatible(t, cls):
            out.append(cls)
    return out


def _compatible(t, cls):
    for a in range(t.n):
        for b in range(a + 1, t.n):
            if cls[a] != cls[b]:
                continue
            for x in range(t.n):
                if (cls[t.add[a][x]] != cls[t.add[b][x]]
                        or cls[t.mul[a][x]] != cls[t.mul[b][x]]
                        or cls[t.mul[x][a]] != cls[t.mul[x][b]]):
                    return False
    return True


# ---------------------------------------------------------------------------
# twist products, primes, radicals


def twist(t, x, y):
    (a1, b1), (a2, b2) = x, y
    add, mul = t.add, t.mul
    return (add[mul[a1][a2]][mul[b1][b2]], add[mul[a1][b2]][mul[b1][a2]])


def _inside(cls, x):
    return cls[x[0]] == cls[x[1]]


def is_prime(t, cls):
    cross = list(itertools.product(range(t.n), repeat=2))
    outside = [x for x in cross if not _inside(cls, x)]
    for x in outside:
        left = {twist(t, x, z) for z in cross}
        for y in outside:
            if all(_inside(cls, twist(t, w, y)) for w in left):
                return False
    return True


def is_semiprime(t, cls):
    cross = list(itertools.product(range(t.n), repeat=2))
    for x in cross:
        if not _inside(cls, x) and all(
                _inside(cls, twist(t, twist(t, x, y), x)) for y in cross):
            return False
    return True


def finer(c1, c2):
    """Relation of c1 contained in that of c2."""
    return all(c2[a] == c2[c1[a]] for a in range(len(c1)))


def krull_dimension(primes):
    """Strict containments along the longest chain of primes; None if
    there are no primes."""
    if not primes:
        return None
    depth = {}

    def chain(i):
        if i not in depth:
            depth[i] = 1 + max((chain(j) for j, q in enumerate(primes)
                                if q != primes[i] and finer(primes[i], q)),
                               default=0)
        return depth[i]

    return max(chain(i) for i in range(len(primes))) - 1


def radical(t, base):
    """Twist-power radical of a congruence: the congruence generated by the
    pairs with some twist power inside; None when it meets T x A0."""
    members = []
    for x in itertools.product(range(t.n), repeat=2):
        seen, y = set(), x
        while y not in seen:
            if _inside(base, y):
                members.append(x)
                break
            seen.add(y)
            y = twist(t, y, x)
    cls = closure(t, members)
    return None if meets_t_a0(t, cls) else cls


def admissible(elems, add, mul, zero, one, a0, tang):
    """The pair axioms: A0 a sub-semiring with 0, T a monoid with 1, the two
    disjoint, and T plus 0 spanning the carrier additively."""
    if zero not in a0 or one not in tang or a0 & tang:
        return False
    if any(add(x, y) not in a0 or mul(x, y) not in a0 for x in a0 for y in a0):
        return False
    if any(mul(x, y) not in tang for x in tang for y in tang):
        return False
    reached, frontier = set(tang) | {zero}, list(tang) + [zero]
    while frontier:
        x = frontier.pop()
        for y in list(reached):
            s = add(x, y)
            if s not in reached:
                reached.add(s)
                frontier.append(s)
    return reached == set(elems)


def admissible_tables(t, zero, one):
    r = range(t.n)
    return admissible(r, lambda x, y: t.add[x][y], lambda x, y: t.mul[x][y],
                      zero, one, t.a0, t.tang)


# ---------------------------------------------------------------------------
# hyper-addition on subsets


def hyper_sum(hyperadd, s1, s2):
    out = set()
    for a in s1:
        for b in s2:
            out |= hyperadd[a][b]
    return frozenset(out)


def powerset_closure(hyperadd, n):
    """Subsets reachable from the singletons under elementwise hyper-sum."""
    reached = {frozenset([a]) for a in range(n)}
    frontier = list(reached)
    while frontier:
        s = frontier.pop()
        for u in list(reached):
            v = hyper_sum(hyperadd, s, u)
            if v not in reached:
                reached.add(v)
                frontier.append(v)
    return reached


# ---------------------------------------------------------------------------
# supertropical arithmetic: ("z",) zero, ("t", v) tangible, ("g", v) ghost

ST_ZERO = ("z",)


def st_add(x, y):
    if x == ST_ZERO:
        return y
    if y == ST_ZERO:
        return x
    if x[1] == y[1]:
        return ("g", x[1])
    return x if x[1] > y[1] else y


def st_mul(x, y):
    if x == ST_ZERO or y == ST_ZERO:
        return ST_ZERO
    return ("t" if x[0] == y[0] == "t" else "g", x[1] + y[1])


def st_in_a0(x):
    return x == ST_ZERO or x[0] == "g"


def st_label(x):
    return "0" if x == ST_ZERO else str(x[1]) + ("v" if x[0] == "g" else "")


def st_surpass(b1, b2):
    """b1 below b2: b2 = b1 + a quasi-zero."""
    if b1 == b2:
        return True
    if b2 == ST_ZERO or b2[0] != "g":
        return False
    return b1 == ST_ZERO or b1[1] <= b2[1]


def st_sample(builtin, window):
    values = (range(window + 1) if builtin == "supertropical-naturals"
              else range(-window, window + 1))
    return ([ST_ZERO] + [("t", v) for v in values]
            + [("g", v) for v in values])


def st_power(x, k):
    acc = ("t", 0)
    for _ in range(k):
        acc = st_mul(acc, x)
    return acc


def st_eval(terms, point):
    """terms: list of (coefficient, exponent tuple)."""
    total = ST_ZERO
    for coeff, exps in terms:
        v = coeff
        for b, k in zip(point, exps):
            v = st_mul(v, st_power(b, k))
        total = st_add(total, v)
    return total


def nat_eval(terms, point):
    total = 0
    for coeff, exps in terms:
        v = coeff
        for b, k in zip(point, exps):
            v *= b ** k
        total += v
    return total


# ---------------------------------------------------------------------------
# polynomials in one variable over the supertropical carrier, as dicts
# exponent -> coefficient


def st_poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            out[e] = st_add(out.get(e, ST_ZERO), st_mul(c1, c2))
    return {e: c for e, c in out.items() if c != ST_ZERO}


def st_poly_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = st_add(out.get(e, ST_ZERO), c)
    return {e: c for e, c in out.items() if c != ST_ZERO}


def st_poly_power(f, k):
    acc = {0: ("t", 0)}
    for _ in range(k):
        acc = st_poly_mul(acc, f)
    return acc


def st_poly_combination(coeffs, y):
    """sum coeffs[i] y^i with constant coefficients."""
    total = {}
    for i, a in enumerate(coeffs):
        if a != ST_ZERO:
            total = st_poly_add(total, st_poly_mul({0: a}, st_poly_power(y, i)))
    return total


def st_poly_surpass(f, g):
    """Coefficientwise surpassing of polynomials."""
    return all(st_surpass(f.get(e, ST_ZERO), g.get(e, ST_ZERO))
               for e in set(f) | set(g))


# ---------------------------------------------------------------------------
# growth models


def growth_layers(kind, size, kmax):
    """d_0..d_kmax for the free, commutative and matrix-unit models."""
    if kind == "free":
        return [size ** k for k in range(kmax + 1)]
    if kind == "commutative":
        return [_comb(k + size - 1, size - 1) for k in range(kmax + 1)]
    return [1, size * size] + [0] * (kmax - 1)


def _comb(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out
