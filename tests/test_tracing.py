"""The benchmark's tracer (perfbench/tracing.py) wraps pairalg functions by
name and methods by the class body that defines them. A rename, or a method
moved to a base class, must fail here and not only in a traced benchmark run."""

import importlib.util
import os

import pairalg.cli  # noqa: F401  the tracer patches every pairalg module
from pairalg import congruences, semirings

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls(capsys):
    add = semirings.FiniteSemiring.__dict__["add"]
    twist = congruences.twist_product
    tracer = load_tracing().Tracer()
    tracer.install(hot=True)
    try:
        # the radical forms twist powers; the boolean spectrum, on chain
        # quotients only, forms no twist product
        assert pairalg.cli.main(["radical", "boolean"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["semirings.ops"] > 0
    assert tracer.calls["congruences.twist_product"] > 0
    assert semirings.FiniteSemiring.__dict__["add"] is add
    assert congruences.twist_product is twist


def test_tracer_counts_every_symbolic_operation():
    # a symbolic carrier's add and mul are its own functions, and the
    # tracer's class-level wrapper still counts each call: 6 per sample
    # element (11 at window 2) and 14 per triple (2,000)
    add = semirings.SymbolicSemiring.__dict__["add"]
    tracer = load_tracing().Tracer()
    tracer.install(hot=True)
    try:
        semirings.verify_semiring_axioms(
            semirings.supertropical_integers().carrier, window=2)
    finally:
        tracer.uninstall()
    assert tracer.calls["semirings.ops"] == 6 * 11 + 14 * 2000 == 28066
    assert semirings.SymbolicSemiring.__dict__["add"] is add
