"""The library's surface, read from its source: the number of parameters a
caller can leave out does not rise, every name a module imports is used, and
no invariant rests on an ``assert`` statement, which ``python -O`` drops,
and every module-level ``MAX_*`` cap is named in the README.
A change that adds a knob raises ``SETTABLE_PARAMETERS`` in the same diff and
says why."""

import ast
import itertools
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "pairalg")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))

# defaulted parameters over every def in src/pairalg
SETTABLE_PARAMETERS = 67


def tree(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        return ast.parse(fh.read(), module)


def settable(node):
    args = node.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def test_settable_parameters_do_not_rise():
    count = sum(settable(node) for module in MODULES
                for node in ast.walk(tree(module))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    assert count <= SETTABLE_PARAMETERS


def exported(t):
    """The names listed in a module's ``__all__``."""
    for node in t.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(x, "id", None) == "__all__" for x in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    t = tree(module)
    imported = {}
    for node in ast.walk(t):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(t) if isinstance(node, ast.Name)}
    unused = set(imported) - used - exported(t)
    assert not unused, ["%s:%d %s" % (module, imported[n], n) for n in sorted(unused)]


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    lines = [node.lineno for node in ast.walk(tree(module))
             if isinstance(node, ast.Assert)]
    assert not lines, ["%s:%d" % (module, n) for n in lines]


def test_a_pair_forwards_none_of_its_carriers_arithmetic():
    # a pair holds its carrier and its layers; arithmetic goes through
    # p.carrier, the one carrier protocol
    from pairalg.pairs import SemiringPair
    from pairalg.polynomials import PolynomialPair
    from pairalg.semirings import boolean_semiring

    p = SemiringPair(boolean_semiring(), [0], [1])
    for pair in (p, PolynomialPair(p)):
        assert not [name for name in ("finite", "zero", "one", "add", "mul",
                                      "power", "label") if hasattr(pair, name)]


def test_one_window_default():
    # the library and the CLI sample a symbolic carrier alike unless told
    # otherwise: every defaulted window outside the CLI, whose window=False
    # is an argparse switch, is the one name pairs.py assigns
    from pairalg.cli import build_parser
    from pairalg.pairs import DEFAULT_WINDOW

    constants, literal = [], []
    for module in MODULES:
        for node in ast.walk(tree(module)):
            if isinstance(node, ast.Assign):
                constants += [(module, t.id) for t in node.targets
                              if "WINDOW" in getattr(t, "id", "")]
            if module == "cli.py" or not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            named = args.posonlyargs + args.args
            defaulted = list(zip(named[len(named) - len(args.defaults):], args.defaults))
            defaulted += zip(args.kwonlyargs, args.kw_defaults)
            literal += ["%s:%d" % (module, node.lineno) for arg, default in defaulted
                        if arg.arg == "window" and default is not None
                        and getattr(default, "id", None) != "DEFAULT_WINDOW"]
    assert constants == [("pairs.py", "DEFAULT_WINDOW")]
    assert not literal
    assert DEFAULT_WINDOW == 20
    assert build_parser().parse_args(["verify", "boolean"]).window == DEFAULT_WINDOW


def symbolic_carriers():
    from pairalg.pairs import SemiringPair
    from pairalg.polynomials import PolynomialPair
    from pairalg.semirings import (boolean_semiring, double, nat_plus_times,
                                   supertropical_integers, supertropical_naturals)

    bool_pair = SemiringPair(boolean_semiring(), [0], [1])
    return [nat_plus_times(), supertropical_naturals().carrier,
            supertropical_integers().carrier, double(nat_plus_times()).carrier,
            PolynomialPair(bool_pair).carrier]


def test_symbolic_operations_are_the_carriers_own_functions():
    # c.add is add_fn itself, with no frame between, and the class's own
    # add still calls it, which is where a counting wrapper goes
    from pairalg.semirings import SymbolicSemiring

    for c in symbolic_carriers():
        assert c.add is c.add_fn and c.mul is c.mul_fn, c.name
        x, y = c.sample(2)[-2:]
        assert SymbolicSemiring.add(c, x, y) == c.add_fn(x, y)
        assert SymbolicSemiring.mul(c, x, y) == c.mul_fn(x, y)

        def first(a, b):
            return a

        c.add = first
        assert c.add_fn is first and "add" not in vars(c)


@pytest.mark.parametrize("builtin", ["supertropical_naturals",
                                     "supertropical_integers"])
def test_supertropical_rules_open_one_frame_per_call(builtin):
    # each rule is the function a hot loop calls, and it calls no other
    # Python function: a helper or lambda put back inside one fails here
    import sys

    from pairalg import semirings

    p = getattr(semirings, builtin)()
    c = p.carrier
    sample = c.sample(10)
    pairs = list(itertools.product(sample, repeat=2))[:300]
    calls = [(c.add, pairs), (c.mul, pairs), (p.surpasses, pairs),
             (p.in_a0, [(x,) for x in sample] * 20),
             (p.is_tangible, [(x,) for x in sample] * 20)]
    for fn, args in calls:
        frames = []

        def profile(frame, event, arg):
            if event == "call":
                frames.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            for a in args:
                fn(*a)
        finally:
            sys.setprofile(None)
        assert len(args) >= 200
        assert len(frames) == len(args), (fn, sorted(set(frames)))


def test_only_semirings_reads_the_operation_fields():
    # every symbolic operation goes through c.add / c.mul, so a wrapper on
    # SymbolicSemiring sees it; naming add_fn at construction is fine
    reads = ["%s:%d" % (module, node.lineno) for module in MODULES
             if module != "semirings.py" for node in ast.walk(tree(module))
             if (isinstance(node, ast.Attribute) and node.attr in ("add_fn", "mul_fn"))
             or (isinstance(node, ast.Constant) and node.value in ("add_fn", "mul_fn"))]
    assert not reads


def test_every_cap_is_named_in_the_readme():
    with open(os.path.join(SRC, "..", "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    caps = ["%s:%s" % (module, t.id) for module in MODULES
            for node in tree(module).body if isinstance(node, ast.Assign)
            for t in node.targets if getattr(t, "id", "").startswith("MAX_")]
    assert len(caps) >= 9
    assert not [cap for cap in caps if cap.split(":")[1] not in readme]
