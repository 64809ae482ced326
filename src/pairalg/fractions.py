"""Ore localization of a pair at a multiplicative set of regular tangibles:
regularity and Ore checks, fraction equivalence, arithmetic, and the
localized pair."""

import itertools

from .errors import NO, PreconditionError, UNKNOWN, Verdict, YES
from .semirings import SymbolicSemiring, tabulate
from .pairs import DEFAULT_WINDOW, SemiringPair


def check_regular(p, s, mode="left", window=DEFAULT_WINDOW):
    """Cancellation of s: left mode cancels s on the right of products
    (b1 s = b2 s forces b1 = b2), right mode on the left, preceq_left
    relaxes equality to the surpassing order. An undecided surpassing
    check and no failure give UNKNOWN."""
    if not p.is_tangible(s):
        raise PreconditionError("regularity is defined for tangible elements")
    c = p.carrier
    sample = c.sample(window)
    unknown = False
    for b1, b2 in itertools.combinations(sample, 2):
        if mode == "left":
            if c.mul(b1, s) == c.mul(b2, s):
                return Verdict(NO, witness=(b1, b2))
        elif mode == "right":
            if c.mul(s, b1) == c.mul(s, b2):
                return Verdict(NO, witness=(b1, b2))
        elif mode == "preceq_left":
            for x, y in ((b1, b2), (b2, b1)):
                lhs = p.surpasses(c.mul(x, s), c.mul(y, s), window)
                rhs = p.surpasses(x, y, window) if lhs else True
                if rhs is False:
                    return Verdict(NO, witness=(x, y))
                unknown = unknown or lhs is None or rhs is None
        else:
            raise PreconditionError("unknown mode %r" % mode)
    if unknown:
        return Verdict(UNKNOWN, bound=window, detail="surpassing undecided")
    return Verdict.held(c.finite, window)


def _is_central(p, S, sample):
    c = p.carrier
    return all(c.mul(s, b) == c.mul(b, s) for s in S for b in sample)


def check_ore(p, S, window=DEFAULT_WINDOW, s_member=None):
    """Left Ore condition for S: common multiples s'b = b's exist, and
    right cancellation by s is witnessed by a left s'. Central S (in
    particular any commutative carrier) passes outright. For symbolic
    carriers S is a sample and s_member decides closure membership."""
    c = p.carrier
    S = list(S)
    member = s_member or (lambda x: x in S)
    for s in S:
        if not p.is_tangible(s):
            raise PreconditionError("S must consist of tangibles")
    for s1, s2 in itertools.product(S, repeat=2):
        if not member(c.mul(s1, s2)):
            raise PreconditionError("S not multiplicatively closed at %r" % ((s1, s2),))
    sample = list(c.sample(window))
    missed, bound = (NO, None) if c.finite else (UNKNOWN, window)
    central = _is_central(p, S, sample)
    # on a central S right cancellation repeats the left mode's products
    modes = ("left",) if central else ("left", "right")
    for s in S:
        for mode in modes:
            v = check_regular(p, s, mode, window)
            if not v:
                return Verdict(NO, witness=("not regular", s, v.witness))
    if central:
        return Verdict(YES, bound=bound, detail="central")
    for b in sample:
        for s in S:
            if not any(c.mul(sp, b) == c.mul(bp, s)
                       for sp in S for bp in sample):
                return Verdict(missed, ("no common multiple", b, s), bound)
    for b1, b2 in itertools.product(sample, repeat=2):
        for s in S:
            if c.mul(b1, s) == c.mul(b2, s):
                if not any(c.mul(sp, b1) == c.mul(sp, b2) for sp in S):
                    return Verdict(missed, ("no left witness", b1, b2, s), bound)
    return Verdict.held(c.finite, window)


class OreFailure(PreconditionError):
    """S fails the Ore condition; the failing check_ore verdict is kept."""

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__("Ore condition fails: %r" % (verdict.witness,))


class LocalizationContext:
    """Base pair plus a verified multiplicative set S of regular tangibles.
    For symbolic carriers S is given by an explicit sample list (kept
    multiplicatively closed by the caller) and membership predicate."""

    def __init__(self, pair, s_elements, s_member=None, window=DEFAULT_WINDOW):
        self.pair = pair
        self.s_elements = list(s_elements)
        if not self.s_elements:
            raise PreconditionError("the denominator set S is empty")
        self.s_member = s_member or frozenset(self.s_elements).__contains__
        self.window = window
        self.ore = check_ore(pair, self.s_elements, window, s_member=self.s_member)
        if self.ore.status == NO:
            raise OreFailure(self.ore)
        self.central = self.ore.detail == "central"
        self.tangibles = pair.tangible_elements(window)

    def fraction(self, b, s):
        if not self.s_member(s):
            raise PreconditionError("denominator %r not in S" % (s,))
        return Fraction(self, b, s)


class Fraction:
    """Unreduced pair (numerator, denominator); equality is always the
    witness search of frac_equiv."""

    __slots__ = ("ctx", "b", "s")

    def __init__(self, ctx, b, s):
        self.ctx = ctx
        self.b = b
        self.s = s

    def __repr__(self):
        lab = self.ctx.pair.carrier.label
        return "Fraction(%s / %s)" % (lab(self.b), lab(self.s))


def frac_equiv(x, y):
    """Search for a1, a2 in T with a1 b1 = a2 b2 and a1 s1 = a2 s2 in S.
    Exhaustive on finite carriers; three-valued on symbolic ones."""
    ctx = x.ctx
    if ctx is not y.ctx:
        raise PreconditionError("fractions from different localizations")
    c = ctx.pair.carrier
    tang = ctx.tangibles
    for a1 in tang:
        for a2 in tang:
            if (c.mul(a1, x.b) == c.mul(a2, y.b)
                    and c.mul(a1, x.s) == c.mul(a2, y.s)
                    and ctx.s_member(c.mul(a1, x.s))):
                return Verdict(YES, witness=(a1, a2))
    if c.finite:
        return Verdict(NO)
    return Verdict(UNKNOWN, bound=ctx.window, detail="no witness in window")


def common_denominator(x, y):
    """s = s' s1 = b' s2 in S with s' in S, b' in A; both fractions are
    rewritten over s. Fails loudly if no such s lands in S."""
    ctx = x.ctx
    c = ctx.pair.carrier
    if ctx.central:
        s = c.mul(y.s, x.s)
        if not ctx.s_member(s):
            raise PreconditionError("common denominator %r escaped S" % (s,))
        return ctx.fraction(c.mul(y.s, x.b), s), ctx.fraction(c.mul(x.s, y.b), s)
    sample = list(c.sample(ctx.window))
    for sp in ctx.s_elements:
        for bp in sample:
            s = c.mul(sp, x.s)
            if s == c.mul(bp, y.s) and ctx.s_member(s):
                return (ctx.fraction(c.mul(sp, x.b), s),
                        ctx.fraction(c.mul(bp, y.b), s))
    raise PreconditionError("no common denominator found within bound")


def frac_add(x, y):
    fx, fy = common_denominator(x, y)
    c = x.ctx.pair.carrier
    return x.ctx.fraction(c.add(fx.b, fy.b), fx.s)


def frac_mul(x, y):
    """s1^-1 b1 . s2^-1 b2 = (s' s1)^-1 (b' b2) with s' b1 = b' s2."""
    ctx = x.ctx
    c = ctx.pair.carrier
    if ctx.central:
        return ctx.fraction(c.mul(x.b, y.b), c.mul(x.s, y.s))
    sample = list(c.sample(ctx.window))
    for sp in ctx.s_elements:
        for bp in sample:
            if c.mul(sp, x.b) == c.mul(bp, y.s):
                return ctx.fraction(c.mul(bp, y.b), c.mul(sp, x.s))
    raise PreconditionError("no Ore witness for multiplication within bound")


def _equivalent_to_layer(x, member, numerators):
    """YES when x's numerator passes ``member``, or some fraction b/s, b from
    ``numerators()`` and s in S, is equivalent to x, with witness (b, s). On
    a symbolic carrier a miss is UNKNOWN within the window."""
    ctx = x.ctx
    if member(x.b):
        return Verdict(YES)
    for b in numerators():
        for s in ctx.s_elements:
            if frac_equiv(x, ctx.fraction(b, s)):
                return Verdict(YES, witness=(b, s))
    if ctx.pair.carrier.finite:
        return Verdict(NO)
    return Verdict(UNKNOWN, bound=ctx.window, detail="bounded search")


def frac_in_a0(x):
    """Membership in S^-1 A0: equivalent to some fraction with quasi-zero
    numerator."""
    p, window = x.ctx.pair, x.ctx.window
    return _equivalent_to_layer(x, p.in_a0, lambda: p.a0_elements(window))


def frac_is_tangible(x):
    """Membership in the tangibles of S^-1 A: equivalent to some fraction
    with tangible numerator."""
    ctx = x.ctx
    return _equivalent_to_layer(x, ctx.pair.is_tangible, lambda: ctx.tangibles)


def _fraction_classes(ctx):
    """Classes of the fractions b/s (b in A, s in S, in that order) under
    frac_equiv on a finite carrier, and the class of a fraction. frac_equiv
    holds exactly when the signatures {(a b, a s) : a in T, a s in S} of the
    two fractions meet, so a fraction's class is the least index its
    signature hits among the representatives' signatures, or a new class:
    the first match of a scan over the representatives, for at most 2 |T|
    products per fraction instead of a |T|^2 witness search per class."""
    c = ctx.pair.carrier
    mul, member, tang = c.mul, ctx.s_member, ctx.tangibles

    def signature(b, s):
        return [(mul(a, b), a_s) for a in tang if member(a_s := mul(a, s))]

    index, classes, class_at = {}, [], {}

    def hit(sig):
        return min((index[e] for e in sig if e in index), default=None)

    for b in c.elements():
        for s in ctx.s_elements:
            sig = signature(b, s)
            i = hit(sig)
            if i is None:
                i = len(classes)
                classes.append([])
                index.update(dict.fromkeys(sig, i))
            classes[i].append(ctx.fraction(b, s))
            class_at[b, s] = i

    def cls_of(f):
        # a member of S outside the listed denominators has no entry
        i = class_at.get((f.b, f.s))
        if i is None:
            i = hit(signature(f.b, f.s))
        if i is None:
            raise PreconditionError("fraction escaped the class list")
        return i

    return classes, cls_of


def build_fraction_pair(p, S, window=DEFAULT_WINDOW, s_member=None):
    """Localized pair. On a finite carrier the equivalence classes are
    materialized into a table semiring and a SemiringPair is returned; on a
    symbolic carrier the LocalizationContext itself carries the arithmetic
    (fractions compared through frac_equiv)."""
    ctx = LocalizationContext(p, S, s_member=s_member, window=window)
    if not p.carrier.finite:
        return ctx
    c = p.carrier
    classes, cls_of = _fraction_classes(ctx)
    reps = [cl[0] for cl in classes]
    s0 = ctx.s_elements[0]
    fraction_classes = SymbolicSemiring(
        name="S^-1(%s)" % c.name,
        add_fn=lambda i, j: cls_of(frac_add(reps[i], reps[j])),
        mul_fn=lambda i, j: cls_of(frac_mul(reps[i], reps[j])),
        zero=cls_of(ctx.fraction(c.zero, s0)),
        one=cls_of(ctx.fraction(c.one, s0)),
        sample_fn=lambda window: range(len(reps)),
        label_fn=lambda i: "%s/%s" % (c.label(reps[i].b), c.label(reps[i].s)),
    )
    qcar, _ = tabulate(fraction_classes, range(len(reps)))
    a0 = frozenset(i for i, cl in enumerate(classes)
                   if any(p.in_a0(f.b) for f in cl))
    tang = frozenset(i for i, cl in enumerate(classes)
                     if i not in a0 and any(p.is_tangible(f.b) for f in cl))
    out = SemiringPair(qcar, a0, tang, name=qcar.name)
    out.context = ctx
    return out
