"""The fraction classing that the signature index replaced, kept as a
reference: every fraction b/s is compared through ``frac_equiv`` with the
representative of each class found so far, and every table entry is
classed by the same scan. The body is the library's ``build_fraction_pair``
before the change."""

from pairalg.errors import PreconditionError
from pairalg.fractions import (LocalizationContext, frac_add, frac_equiv,
                               frac_mul)
from pairalg.pairs import SemiringPair
from pairalg.semirings import SymbolicSemiring, tabulate


def build_fraction_pair(p, S, window=30, s_member=None):
    ctx = LocalizationContext(p, S, s_member=s_member, window=window)
    if not p.carrier.finite:
        return ctx
    c = p.carrier
    fracs = [ctx.fraction(b, s) for b in c.elements() for s in ctx.s_elements]
    classes = []
    for f in fracs:
        for cl in classes:
            if frac_equiv(f, cl[0]):
                cl.append(f)
                break
        else:
            classes.append([f])
    reps = [cl[0] for cl in classes]

    def cls_of(f):
        for i, cl in enumerate(classes):
            if frac_equiv(f, cl[0]):
                return i
        raise PreconditionError("fraction escaped the class list")

    s0 = next(s for s in ctx.s_elements)
    fraction_classes = SymbolicSemiring(
        name="S^-1(%s)" % getattr(c, "name", "A"),
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
