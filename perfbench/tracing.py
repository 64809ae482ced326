"""Per-layer tracing of pairalg from outside the library.

``Tracer.install`` rebinds each traced function on its module and on every
pairalg module that imported it by name (``cli`` imports
``generate_congruence``, ``radical as radical_op`` and so on), and wraps the
traced methods on their classes. Layers are named after the modules.

- Span functions record (id, name, start, end, parent id, job) in memory;
  ``dump`` writes them out at the end of the run. Self time is a span minus
  the time of its children.
- Hot primitives only count calls: carrier add/mul, ``twist_product``,
  ``hadd_sets``, ``surpasses``, ``value_at``, ``eval_poly``, and the
  partitions the lattice walk visits. These wrappers cost more than the work
  they count, so they are installed only for a counting cycle, and times
  come from cycles without them.
- ``poly_eval`` and ``frac_equiv`` add up their time without spans; it
  counts as child time of the enclosing span.

No layer has a queue, so no waiting time is recorded."""

import json
import os
import sys
from collections import Counter
from itertools import count
from time import perf_counter

# span name -> functions, as (module, attribute path)
SPANS = {
    "semirings.build": [
        ("semirings", "boolean_semiring"), ("semirings", "nmax_trunc"),
        ("semirings", "nat_plus_times"), ("semirings", "supertropical_extension"),
        ("semirings", "supertropical_naturals"),
        ("semirings", "supertropical_integers"), ("semirings", "double"),
        ("semirings", "FiniteSemiring.__init__")],
    "pairs.verify_surpassing": [("pairs", "verify_surpassing")],
    "pairs.verify_admissible": [("pairs", "verify_admissible")],
    "congruences.generate_congruence": [("congruences", "generate_congruence")],
    "congruences.enumerate_congruences": [("congruences", "enumerate_congruences")],
    "congruences.is_prime": [("congruences", "is_prime")],
    "congruences.is_semiprime": [("congruences", "is_semiprime")],
    "congruences.prime_spectrum_krull": [("congruences", "prime_spectrum_krull")],
    "congruences.radical": [("congruences", "radical")],
    "congruences.quotient_pair": [("congruences", "quotient_pair")],
    "fractions.check_ore": [("fractions", "check_ore")],
    "fractions.build_fraction_pair": [("fractions", "build_fraction_pair")],
    "hyper.krasner_quotient": [("hyper", "krasner_quotient")],
    "hyper.powerset_pair": [("hyper", "powerset_pair")],
    "hyper.verify_semihyperring": [("hyper", "verify_semihyperring")],
    "polynomials.find_preceq_roots": [("polynomials", "find_preceq_roots")],
    "extensions.is_integral": [("extensions", "is_integral")],
    "extensions.is_algebraic": [("extensions", "is_algebraic")],
    "extensions.is_congruence_algebraic": [("extensions", "is_congruence_algebraic")],
    "growth.growth_sequence": [("growth", "growth_sequence")],
    "growth.ore_witness": [("growth", "ore_witness")],
    "structio.load_structures": [("structio", "load_structures")],
    "structio.serialize_structures": [("structio", "serialize_structures")],
    "cli.main": [("cli", "main")],
}

COUNTED = {
    "semirings.ops": [("semirings", "FiniteSemiring.add"),
                      ("semirings", "FiniteSemiring.mul"),
                      ("semirings", "SymbolicSemiring.add"),
                      ("semirings", "SymbolicSemiring.mul")],
    "congruences.twist_product": [("congruences", "twist_product")],
    "hyper.hadd_sets": [("hyper", "SemiHypergroup.hadd_sets")],
    "extensions.eval_poly": [("extensions", "ExtensionPair.eval_poly")],
    "growth.value_at": [("growth", "value_at")],
}

TIMED = {
    "polynomials.poly_eval": ("polynomials", "poly_eval"),
    "fractions.frac_equiv": ("fractions", "frac_equiv"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.ids = count()
        self.job = None
        self._patched = []
        self.reset()

    def reset(self):
        """Start a new measurement: totals and counts, not the span log.
        The counters are cleared in place, since wrappers hold them."""
        for name in ("calls", "busy", "self_s", "extra", "depth"):
            if hasattr(self, name):
                getattr(self, name).clear()
            else:
                setattr(self, name, Counter())

    # -- wrappers

    def _span(self, name, fn, after=None):
        tr = self

        def wrapper(*args, **kwargs):
            parent = tr.stack[-1][0] if tr.stack else None
            frame = [next(tr.ids), 0.0]
            tr.stack.append(frame)
            tr.depth[name] += 1
            start = perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                tr.stack.pop()
                tr.depth[name] -= 1
                dur = end - start
                if tr.stack:
                    tr.stack[-1][1] += dur
                tr.calls[name] += 1
                tr.self_s[name] += dur - frame[1]
                if not tr.depth[name]:
                    tr.busy[name] += dur
                tr.spans.append((frame[0], name, start, end, parent, tr.job))
                if after is not None:
                    after(tr, args, result, exc)
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name, fn, after=None):
        tr = self

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            dur = perf_counter() - start
            if tr.stack:
                tr.stack[-1][1] += dur
            tr.calls[name] += 1
            tr.busy[name] += dur
            if after is not None:
                after(tr, args, result, None)
            return result
        return wrapper

    def _surpasses(self, fn):
        calls, extra = self.calls, self.extra

        def wrapper(*args, **kwargs):
            calls["pairs.surpasses"] += 1
            result = fn(*args, **kwargs)
            if result is None:
                extra["pairs.surpasses.unknown"] += 1
            return result
        return wrapper

    def _partitions(self, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                calls["congruences.partitions"] += 1
                yield item
        return wrapper

    # -- installation

    def install(self, hot=True):
        """Wrap the span and timed functions; with `hot`, also the counted
        primitives, whose wrappers cost more than the work they count."""
        mods = {m: sys.modules["pairalg." + m] for m in (
            "semirings", "pairs", "congruences", "fractions", "hyper",
            "polynomials", "extensions", "growth", "structio", "cli")}
        after = {
            "congruences.generate_congruence": _after_closure,
            "congruences.enumerate_congruences": _after_enumeration,
            "hyper.powerset_pair": _after_powerset,
            "growth.growth_sequence": _after_growth,
            "structio.load_structures": _after_load,
        }
        for name, targets in SPANS.items():
            for mod, path in targets:
                self._patch(mods[mod], path,
                            lambda fn, n=name: self._span(n, fn, after.get(n)))
        for name, (mod, path) in TIMED.items():
            self._patch(mods[mod], path, lambda fn, n=name: self._timed(
                n, fn, _after_frac_equiv if n == "fractions.frac_equiv" else None))
        if not hot:
            return
        for name, targets in COUNTED.items():
            for mod, path in targets:
                self._patch(mods[mod], path,
                            lambda fn, n=name: self._counted(n, fn))
        self._patch(mods["pairs"], "SemiringPair.surpasses", self._surpasses)
        if hasattr(mods["congruences"], "_partitions"):
            self._patch(mods["congruences"], "_partitions", self._partitions)

    def _patch(self, module, path, make):
        """Wrap a function everywhere pairalg holds it by name, or a method
        on its class."""
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, make(original))
            self._patched.append((owner, attr, original))
            return
        original = getattr(module, path)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "pairalg" and not name.startswith("pairalg."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._patched.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def count(self, name, n):
        self.extra[name] += n

    # -- results

    def metrics(self):
        """Per-layer metrics of the current measurement, by name."""
        c, b, s, x = self.calls, self.busy, self.self_s, self.extra

        def ratio(num, den):
            return num / den if den else 0.0

        gen = "congruences.generate_congruence"
        enum = "congruences.enumerate_congruences"
        values = {
            "semirings.ops": (c["semirings.ops"], "count"),
            "semirings.build.busy_s": (b["semirings.build"], "s"),
            "pairs.surpasses.calls": (c["pairs.surpasses"], "count"),
            "pairs.surpasses.unknown_ratio": (
                ratio(x["pairs.surpasses.unknown"], c["pairs.surpasses"]), "ratio"),
            "pairs.verify_surpassing.busy_s": (b["pairs.verify_surpassing"], "s"),
            "pairs.verify_admissible.busy_s": (b["pairs.verify_admissible"], "s"),
            gen + ".calls": (c[gen], "count"),
            gen + ".busy_s": (b[gen], "s"),
            gen + ".pairs_out": (x[gen + ".pairs_out"], "count"),
            gen + ".escaped_ratio": (ratio(x[gen + ".escaped"], c[gen]), "ratio"),
            enum + ".busy_s": (b[enum], "s"),
            enum + ".partitions": (c["congruences.partitions"], "count"),
            enum + ".found": (x[enum + ".found"], "count"),
            enum + ".yield_ratio": (
                ratio(x[enum + ".found"], c["congruences.partitions"]), "ratio"),
            "congruences.is_prime.busy_s": (b["congruences.is_prime"], "s"),
            "congruences.is_semiprime.busy_s": (b["congruences.is_semiprime"], "s"),
            "congruences.twist_product.calls": (c["congruences.twist_product"], "count"),
            "congruences.prime_spectrum_krull.self_s": (
                s["congruences.prime_spectrum_krull"], "s"),
            "congruences.radical.self_s": (s["congruences.radical"], "s"),
            "congruences.quotient_pair.busy_s": (b["congruences.quotient_pair"], "s"),
            "fractions.check_ore.busy_s": (b["fractions.check_ore"], "s"),
            "fractions.frac_equiv.calls": (c["fractions.frac_equiv"], "count"),
            "fractions.frac_equiv.busy_s": (b["fractions.frac_equiv"], "s"),
            "fractions.frac_equiv.yes_ratio": (
                ratio(x["fractions.frac_equiv.yes"], c["fractions.frac_equiv"]),
                "ratio"),
            "fractions.build_fraction_pair.self_s": (
                s["fractions.build_fraction_pair"], "s"),
            "hyper.krasner_quotient.self_s": (s["hyper.krasner_quotient"], "s"),
            "hyper.powerset_pair.self_s": (s["hyper.powerset_pair"], "s"),
            "hyper.powerset_pair.size": (x["hyper.powerset_pair.size"], "count"),
            "hyper.verify_semihyperring.busy_s": (
                b["hyper.verify_semihyperring"], "s"),
            "hyper.hadd_sets.calls": (c["hyper.hadd_sets"], "count"),
            "polynomials.poly_eval.calls": (c["polynomials.poly_eval"], "count"),
            "polynomials.poly_eval.busy_s": (b["polynomials.poly_eval"], "s"),
            "polynomials.find_preceq_roots.busy_s": (
                b["polynomials.find_preceq_roots"], "s"),
            "extensions.is_integral.busy_s": (b["extensions.is_integral"], "s"),
            "extensions.is_algebraic.busy_s": (b["extensions.is_algebraic"], "s"),
            "extensions.is_congruence_algebraic.busy_s": (
                b["extensions.is_congruence_algebraic"], "s"),
            "extensions.eval_poly.calls": (c["extensions.eval_poly"], "count"),
            "growth.growth_sequence.busy_s": (b["growth.growth_sequence"], "s"),
            "growth.words": (x["growth.words"], "count"),
            "growth.ore_witness.busy_s": (b["growth.ore_witness"], "s"),
            "growth.value_at.calls": (c["growth.value_at"], "count"),
            "structio.load_structures.busy_s": (b["structio.load_structures"], "s"),
            "structio.serialize_structures.busy_s": (
                b["structio.serialize_structures"], "s"),
            "structio.bytes_in": (x["structio.bytes_in"], "bytes"),
            "cli.main.self_s": (s["cli.main"], "s"),
            "cli.bytes_out": (x["cli.bytes_out"], "bytes"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def report(self, out):
        """Spans by self time, for reading."""
        names = sorted(self.self_s, key=self.self_s.get, reverse=True)
        print("%-40s %9s %10s %10s" % ("span", "calls", "busy_s", "self_s"),
              file=out)
        for n in names:
            print("%-40s %9d %10.4f %10.4f" % (n, self.calls[n], self.busy[n],
                                               self.self_s[n]), file=out)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _after_closure(tr, args, result, exc):
    if exc is not None:
        if type(exc).__name__ == "NoPairCongruence":
            tr.extra["congruences.generate_congruence.escaped"] += 1
    else:
        tr.extra["congruences.generate_congruence.pairs_out"] += len(result.relation)


def _after_enumeration(tr, args, result, exc):
    if exc is None:
        tr.extra["congruences.enumerate_congruences.found"] += len(result)


def _after_powerset(tr, args, result, exc):
    if exc is None:
        tr.extra["hyper.powerset_pair.size"] += len(result.carrier.elements())


def _after_growth(tr, args, result, exc):
    if exc is None:
        tr.extra["growth.words"] += result.cumulative[-1]


def _after_load(tr, args, result, exc):
    tr.extra["structio.bytes_in"] += os.path.getsize(args[0])


def _after_frac_equiv(tr, args, result, exc):
    if result:
        tr.extra["fractions.frac_equiv.yes"] += 1
