"""Formal polynomials over a pair carrier: convolution product, evaluation,
polynomial pairs, roots with quasi-zero values, twist substitution, and
geometric congruences on points."""

import itertools
import operator
from types import SimpleNamespace

from .errors import PreconditionError
from .pairs import SemiringPair, iter_monomials
from .semirings import SymbolicSemiring, twist_product


class Polynomial:
    """Finite-support map from exponent tuples to nonzero coefficients."""

    def __init__(self, pair, nvars, terms):
        self.pair = pair
        self.nvars = nvars
        zero = pair.carrier.zero
        self.terms = {}
        for exp, c in dict(terms).items():
            exp = tuple(exp)
            if len(exp) != nvars:
                raise PreconditionError("exponent arity mismatch")
            if c != zero:
                self.terms[exp] = c

    @classmethod
    def constant(cls, pair, nvars, c):
        return cls(pair, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, pair, nvars):
        """The first variable."""
        return cls(pair, nvars, {(1,) + (0,) * (nvars - 1): pair.carrier.one})

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def coeff(self, exp):
        return self.terms.get(tuple(exp), self.pair.carrier.zero)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        c = self.pair.carrier
        terms = dict(self.terms)
        for exp, v in other.terms.items():
            terms[exp] = c.add(terms[exp], v) if exp in terms else v
        return Polynomial(self.pair, self.nvars, terms)

    def __mul__(self, other):
        c = self.pair.carrier
        terms = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                prod = c.mul(v1, v2)
                terms[exp] = c.add(terms[exp], prod) if exp in terms else prod
        return Polynomial(self.pair, self.nvars, terms)

    def scale(self, a):
        c = self.pair.carrier
        return Polynomial(self.pair, self.nvars,
                          {e: c.mul(a, v) for e, v in self.terms.items()})

    def __call__(self, point):
        return poly_eval(self, point)

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        lab = self.pair.carrier.label
        bits = []
        for exp, v in self.sorted_terms():
            mono = "*".join("x%d^%d" % (i, k) for i, k in enumerate(exp) if k)
            bits.append(lab(v) + ("*" + mono if mono else ""))
        return "Polynomial(%s)" % " + ".join(bits)


def poly_eval(f, point):
    """Evaluation homomorphism at a carrier tuple: the sum, from zero and in
    term order, of each coefficient times the powers of its variables with
    exponent k > 0, in variable order."""
    point = tuple(point)
    if len(point) != f.nvars:
        raise PreconditionError("point arity mismatch")
    c = f.pair.carrier
    total = c.zero
    for exp, v in f.terms.items():
        term = v
        for b, k in zip(point, exp):
            if k:
                term = c.mul(term, c.power(b, k))
        total = c.add(total, term)
    return total


def functional_equal(f, g, domain):
    """Pointwise agreement over explicit tuples; formal inequality is common."""
    return all(poly_eval(f, pt) == poly_eval(g, pt) for pt in domain)


def is_tangible_poly(f):
    """All coefficients tangible; the zero polynomial does not qualify."""
    return bool(f.terms) and all(f.pair.is_tangible(v) for v in f.terms.values())


def find_preceq_roots(f, domain):
    """Tuples from the domain where the value lands in A0, in scan order.
    Each term's coefficient times the powers of the first nvars - 1
    coordinates is formed once per prefix; each point then takes one product
    per term with a nonzero last exponent, and the sum. Products and sums
    associate as in ``poly_eval``, so the roots need no semiring law."""
    if not f.nvars:
        return [()] if f.pair.in_a0(poly_eval(f, ())) else []
    c = f.pair.carrier
    add, mul, in_a0, zero = c.add, c.mul, f.pair.in_a0, c.zero
    table = [(b, [c.power(b, k) for k in range(f.degree() + 1)]) for b in domain]
    terms = [(v, [(i, k) for i, k in enumerate(exp[:-1]) if k], exp[-1])
             for exp, v in f.terms.items()]
    roots = []
    for prefix in itertools.product(table, repeat=f.nvars - 1):
        heads = []
        for v, lead, last in terms:
            for i, k in lead:
                v = mul(v, prefix[i][1][k])
            heads.append((v, last))
        start = tuple(b for b, _ in prefix)
        for b, powers in table:
            total = zero
            for v, k in heads:
                total = add(total, mul(v, powers[k]) if k else v)
            if in_a0(total):
                roots.append(start + (b,))
    return roots


# ---------------------------------------------------------------------------
# Polynomial pairs


class PolynomialPair(SemiringPair):
    """Pair structure on one-variable polynomials over a base pair. Quasi-zeros
    are the coefficientwise-A0 polynomials; tangibles are the monomials with
    tangible coefficient; f is surpassed by g coefficient by coefficient.
    The carrier's sample is degree-1 polynomials over the base's sample."""

    def __init__(self, pair):
        self.base = pair

        def sample(window):
            coeffs = list(pair.carrier.sample(max(2, window // 4)))
            # window 0 still samples one polynomial
            return list(itertools.islice(self.enumerate(1, coeffs=coeffs),
                                         max(1, window * window)))

        carrier = SymbolicSemiring(
            "poly(%s)" % pair.carrier.name, operator.add,
            operator.mul, Polynomial(pair, 1, {}),
            Polynomial.constant(pair, 1, pair.carrier.one), sample)
        super().__init__(
            carrier,
            a0=lambda f: all(pair.in_a0(v) for v in f.terms.values()),
            tangibles=lambda f: (len(f.terms) == 1 and
                                 pair.is_tangible(next(iter(f.terms.values())))),
            surpass_fn=_coefficientwise(pair), name="poly(%s)" % pair.name)

    def poly(self, terms):
        return Polynomial(self.base, 1, terms)

    def enumerate(self, degree, coeffs=None):
        """All polynomials of total degree <= degree with coefficients from
        the given list (defaults to the whole finite carrier)."""
        if coeffs is None:
            coeffs = list(self.base.carrier.elements())
        monos = iter_monomials(1, degree)
        for choice in itertools.product(coeffs, repeat=len(monos)):
            yield self.poly(dict(zip(monos, choice)))


def _coefficientwise(pair):
    """f below g via a coefficientwise quasi-zero top-up; decided
    coefficient by coefficient against the base relation."""
    zero = pair.carrier.zero

    def surpasses(f, g):
        ft, gt = f.terms, g.terms
        out = True
        for e in set(ft) | set(gt):
            v = pair.surpasses(ft.get(e, zero), gt.get(e, zero))
            if v is False:
                return False
            if v is None:
                out = None
        return out
    return surpasses


# ---------------------------------------------------------------------------
# Twist substitution and geometric congruences


def twist_substitute(fpair, zpair):
    """(f1,f2) applied to a point pair: (f1(z1)+f2(z2), f1(z2)+f2(z1))."""
    f1, f2 = fpair
    z1, z2 = zpair
    c = f1.pair.carrier
    return (c.add(poly_eval(f1, z1), poly_eval(f2, z2)),
            c.add(poly_eval(f1, z2), poly_eval(f2, z1)))


def compose_star(f, g):
    """Substitution product f(g): on monomials, c lambda^k composed with
    d lambda^l gives c d^k lambda^(k l). This is the multiplication under
    which twist products interchange with twist substitution; the
    interchange law is exact on monomials. One variable only."""
    if f.nvars != 1 or g.nvars != 1:
        raise PreconditionError("composition product is single-variable")
    out = Polynomial(f.pair, 1, {})
    gp = Polynomial.constant(f.pair, 1, f.pair.carrier.one)
    k_prev = 0
    for (k,), v in sorted(f.terms.items()):
        for _ in range(k - k_prev):
            gp = gp * g
        k_prev = k
        out = out + gp.scale(v)
    return out


# polynomials under + and the substitution product
_COMPOSITION = SimpleNamespace(add=operator.add, mul=compose_star)


def twist_compose_product(x, y):
    return twist_product(_COMPOSITION, x, y)


def check_mixed_associativity(fpair, gpair, z):
    """Compares ((f)*(g)) at z against f at (g at z). Returns "equal",
    "surpasses" when the combined side dominates coordinatewise in the
    surpassing order (ghost ties can strictly dominate), "fails", or
    "unknown" when the order is undecided on a coordinate and fails on
    none."""
    lhs = twist_substitute(twist_compose_product(fpair, gpair), z)
    inner = twist_substitute(gpair, z)
    rhs = twist_substitute(fpair, ((inner[0],), (inner[1],)))
    if lhs == rhs:
        return "equal"
    p = fpair[0].pair
    below = [p.surpasses(r, l) for r, l in zip(rhs, lhs)]
    if False in below:
        return "fails"
    return "unknown" if None in below else "surpasses"


class GeometricCongruence:
    """Pairs of polynomials whose twist substitution lands in A0 x A0 at
    every listed point pair. Membership is decided by evaluation, so it is
    not bounded by degree."""

    def __init__(self, p, points):
        self.pair = p
        self.points = [(tuple(z1), tuple(z2)) for z1, z2 in points]

    def contains(self, f1, f2):
        for z in self.points:
            v1, v2 = twist_substitute((f1, f2), z)
            if not (self.pair.in_a0(v1) and self.pair.in_a0(v2)):
                return False
        return True


def check_polypair_semiprime(p, degree=1):
    """Trivial-congruence semiprimeness of the truncated polynomial pair:
    every formally distinct pair (f1, f2) of degree at most ``degree`` must
    have some convolution sandwich, by a pair of the same degree bound, with
    distinct components. Returns a record with the base verdict and the
    polynomial-level verdict within the bound."""
    from .congruences import diagonal, is_semiprime

    base_semiprime = bool(is_semiprime(diagonal(p)))
    pp = PolynomialPair(p)
    c = pp.carrier
    polys = list(pp.enumerate(degree))
    mids = [(g1, g2) for g1 in polys for g2 in polys]
    witness = None
    for f1 in polys:
        for f2 in polys:
            if f1 == f2:
                continue
            x = (f1, f2)
            if all(s1 == s2 for s1, s2 in
                   (twist_product(c, twist_product(c, x, y), x) for y in mids)):
                witness = x
                break
        if witness:
            break
    return {
        "base_semiprime": base_semiprime,
        "poly_semiprime": witness is None,
        "witness": witness,
        "degree": degree,
    }


# ---------------------------------------------------------------------------
# Literal parser


_VARIABLES = {"x": 0, "y": 1, "z": 2}


def parse_poly(p, text):
    """Parses literals like '2*x^2*y + 1v*x + 4' in the variables x, y, z.
    Coefficient tokens are carrier labels; for supertropical carriers a
    trailing v marks a ghost and plain integers are tangible. Raises
    PreconditionError with the offending token."""
    text = text.replace(" ", "")
    if not text:
        raise PreconditionError("empty polynomial literal")
    used = 0
    parsed = []
    for term in text.split("+"):
        if not term:
            raise PreconditionError("empty term in %r" % text)
        coeff_tok = None
        exps = {}
        for factor in term.split("*"):
            name, _, exp = factor.partition("^")
            if name in _VARIABLES:
                k = 1
                if exp:
                    try:
                        k = int(exp)
                    except ValueError:
                        raise PreconditionError("bad exponent %r" % exp) from None
                    if k < 0:
                        raise PreconditionError("negative exponent %r" % exp)
                i = _VARIABLES[name]
                exps[i] = exps.get(i, 0) + k
                used = max(used, i + 1)
            elif exp:
                raise PreconditionError("exponent on coefficient %r" % factor)
            elif coeff_tok is None:
                coeff_tok = name
            else:
                raise PreconditionError("two coefficients in term %r" % term)
        parsed.append((coeff_tok, exps))
    nvars = max(used, 1)
    terms = {}
    c = p.carrier
    for coeff_tok, exps in parsed:
        v = c.one if coeff_tok is None else _parse_coeff(p, coeff_tok)
        exp = tuple(exps.get(i, 0) for i in range(nvars))
        terms[exp] = c.add(terms[exp], v) if exp in terms else v
    return Polynomial(p, nvars, terms)


def _parse_coeff(p, tok):
    c = p.carrier
    if c.finite:
        try:
            return c.index(tok)
        except Exception:
            raise PreconditionError("unknown coefficient label %r" % tok) from None
    # symbolic supertropical convention: -inf, n, nv
    if tok == "-inf":
        return c.zero
    ghost = tok.endswith("v")
    body = tok[:-1] if ghost else tok
    try:
        n = int(body)
    except ValueError:
        raise PreconditionError("bad coefficient token %r" % tok) from None
    return ("g", n) if ghost else ("t", n)
