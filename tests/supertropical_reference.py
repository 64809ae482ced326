"""The supertropical rules that the one-frame closures of
``semirings.supertropical_extension`` replaced, kept as references: zero is
compared with ``ST_ZERO``, values through ``operator.gt`` or a rank lambda,
and products through the monoid's ``op``."""

import operator

ST_ZERO = ("z",)


def _st_add(gt):
    def add(x, y):
        if x == ST_ZERO:
            return y
        if y == ST_ZERO:
            return x
        vx, vy = x[1], y[1]
        if vx == vy:
            return ("g", vx)
        return x if gt(vx, vy) else y

    return add


def _order(m):
    """The strict order test of a monoid: ``>`` on the symbolic integers, by
    rank in the ascending element list on a finite monoid."""
    if m.elements is None:
        return operator.gt
    rank = {e: i for i, e in enumerate(m.elements)}
    return lambda a, b: rank[a] > rank[b]


def _st_mul(m):
    op = m.op

    def mul(x, y):
        if x == ST_ZERO or y == ST_ZERO:
            return ST_ZERO
        tag = "t" if x[0] == y[0] == "t" else "g"
        return (tag, op(x[1], y[1]))

    return mul


def rules(t):
    """add, mul, surpass, in_a0 and is_tangible of the supertropical pair
    over the ordered monoid ``t``."""
    gt = _order(t)

    def st_surpass(b1, b2):
        # b1 precedes b2 (witness y in A0) has a closed form here
        if b1 == b2:
            return True
        if b2 == ST_ZERO or b2[0] != "g":
            return False
        return b1 == ST_ZERO or not gt(b1[1], b2[1])

    return (_st_add(gt), _st_mul(t), st_surpass,
            lambda x: x == ST_ZERO or x[0] == "g",
            lambda x: x != ST_ZERO and x[0] == "t")
