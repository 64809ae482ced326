"""Command-line interface: structure-file ingestion, subcommand dispatch,
canonical JSON reports on stdout and a short human summary on stderr.

Exit codes: 0 computed, 1 property fails or nothing found, 2 input error,
3 bound exhausted (unknown)."""

import argparse
import contextlib
import functools
import io
import json
import os
import sys

from . import growth as growth_mod
from .congruences import (NO_PAIR_CONGRUENCE, NoPairCongruence, diagonal,
                          enumerate_congruences, generate_congruence,
                          prime_spectrum_krull, radical as radical_op)
from .errors import (BoundExhausted, NO, PreconditionError, StructureError,
                     UNKNOWN, UnsupportedStructureError, YES)
from .extensions import ExtensionPair, is_algebraic, is_congruence_algebraic, is_integral
from .fractions import OreFailure, build_fraction_pair
from .hyper import (A0_CONTAINS_ZERO, A0_SIZE_GE_TWO, SemiHyperring,
                    krasner_quotient, powerset_pair, verify_semihypergroup,
                    verify_semihyperring)
from .pairs import (DEFAULT_WINDOW, SemiringPair, is_shallow, property_n_status,
                    verify_admissible)
from .polynomials import find_preceq_roots, parse_poly
from .semirings import (boolean_semiring, double, nmax_trunc, nat_plus_times,
                        supertropical_extension, supertropical_integers,
                        supertropical_naturals, trivial_monoid,
                        verify_semiring_axioms)
from .structio import load_structures, serialize_structures

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BOUND = 3


def builtin_structures(name):
    if name == "boolean":
        s = boolean_semiring()
        return {"semiring": s,
                "pair": SemiringPair(s, [s.zero], [s.one], name="boolean")}
    if name == "double-boolean":
        p = double(boolean_semiring())
        return {"semiring": p.carrier, "pair": p}
    if name == "supertropical3":
        p = supertropical_extension(trivial_monoid())
        return {"semiring": p.carrier, "pair": p}
    if name == "nmax3":
        return {"semiring": nmax_trunc(3)}
    if name == "supertropical-naturals":
        p = supertropical_naturals()
        return {"semiring": p.carrier, "pair": p}
    if name == "supertropical-integers":
        p = supertropical_integers()
        return {"semiring": p.carrier, "pair": p}
    if name == "nat-plus-times":
        s = nat_plus_times()
        return {"semiring": s,
                "pair": SemiringPair(s, a0=[0],
                                     tangibles=lambda x: x != 0,
                                     name="nat_plus_times")}
    return None


def load_input(spec):
    built = builtin_structures(spec)
    if built is not None:
        return built
    if not os.path.exists(spec):
        raise StructureError("no such file or builtin structure: %r" % spec)
    return load_structures(spec)


def need(structs, kind, spec):
    if kind not in structs:
        raise StructureError("input %r has no [%s] section" % (spec, kind))
    return structs[kind]


_encode = json.encoder.encode_basestring_ascii


def _write(x, out, pad):
    """Append to ``out`` the JSON text of ``x``, as json.dumps(x,
    sort_keys=True, indent=2) writes it at the indentation ``pad`` (a
    newline and the spaces), in one walk: an object with ``as_json`` is
    written as what that returns, dict keys become str(k) (of two equal
    keys the later wins), sets and frozensets are sorted by repr, a str,
    int, float, bool or None is written by json.dumps, and anything else
    as its repr."""
    t = type(x)
    if t is str:
        out.append(_encode(x))
        return
    if t is not list and t is not tuple and t is not dict:
        if hasattr(x, "as_json"):
            _write(x.as_json(), out, pad)
            return
        if isinstance(x, dict):
            t = dict
        elif isinstance(x, (set, frozenset)):
            x = sorted(x, key=repr)
        elif not isinstance(x, (list, tuple)):
            out.append(json.dumps(x) if isinstance(x, (str, int, float))
                       or x is None else _encode(repr(x)))
            return
    if not x:
        out.append("{}" if t is dict else "[]")
        return
    inner = pad + "  "
    if t is dict:
        d = {str(k): v for k, v in x.items()}
        sep = "{" + inner
        for k in sorted(d):
            out.append(sep + _encode(k) + ": ")
            _write(d[k], out, inner)
            sep = "," + inner
        out.append(pad + "}")
        return
    sep = "[" + inner
    for v in x:
        out.append(sep)
        _write(v, out, inner)
        sep = "," + inner
    out.append(pad + "]")


def emit(args, report, summary, code):
    """Print the report, headed by the subcommand and, for subcommands that
    take a structure, its input, as JSON on stdout and the summary on
    stderr; return the exit code."""
    head = {"command": args.command}
    if hasattr(args, "structure"):
        head["input"] = args.structure
    out = []
    _write({**head, **report}, out, "\n")
    print("".join(out))
    print(summary, file=sys.stderr)
    return code


def verdict_code(v):
    if v.status == YES:
        return EXIT_OK
    if v.status == NO:
        return EXIT_FAIL
    return EXIT_BOUND


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_verify(args, structs):
    reports = {}
    ok = True
    if "hyper" in structs:
        h = structs["hyper"]
        rep = (verify_semihyperring(h) if isinstance(h, SemiHyperring)
               else verify_semihypergroup(h))
        reports["hyper"] = rep
        ok = ok and rep.valid
    if "semiring" in structs:
        rep = verify_semiring_axioms(structs["semiring"], window=args.window)
        reports["semiring"] = rep
        ok = ok and rep.valid
    if "pair" in structs:
        rep = verify_admissible(structs["pair"], window=args.window)
        reports["pair"] = rep
        ok = ok and rep.valid
    return emit(args, {"reports": reports, "valid": ok},
                "verify %s: %s" % (args.structure, "ok" if ok else "FAILED"),
                EXIT_OK if ok else EXIT_FAIL)


def cmd_shallow(args, p):
    v = is_shallow(p, window=args.window)
    report = {"shallow": bool(v)}
    if v.bound is not None:
        report["window"] = v.bound
    return emit(args, report, "shallow: %s" % bool(v), verdict_code(v))


def cmd_property_n(args, p):
    status = property_n_status(p, window=args.window)
    code = EXIT_OK if status.status != "none" else EXIT_FAIL
    return emit(args, {"result": status},
                "property-n: %s" % status.status, code)


def cmd_congruences(args, p):
    congs = enumerate_congruences(p)
    return emit(args, {"count": len(congs),
                       "congruences": [c.as_json() for c in congs]},
                "%d pair-congruences" % len(congs), EXIT_OK)


def cmd_spectrum(args, p):
    spec = prime_spectrum_krull(p)
    dim = spec["krull_dimension"]
    summary = "%d primes, Krull dimension %s" % (len(spec["primes"]),
                                                 "undefined" if dim is None
                                                 else dim)
    return emit(args, {"prime_count": len(spec["primes"]),
                       "primes": [c.as_json() for c in spec["primes"]],
                       "semiprime_count": spec["semiprime_count"],
                       "krull_dimension": dim},
                summary, EXIT_OK if spec["primes"] else EXIT_FAIL)


def cmd_krull(args, p):
    spec = prime_spectrum_krull(p)
    dim = spec["krull_dimension"]
    if dim is None:
        return emit(args, {"krull_dimension": None},
                    "no primes; Krull dimension undefined", EXIT_FAIL)
    return emit(args, {"krull_dimension": dim},
                "Krull dimension %d" % dim, EXIT_OK)


def _parse_seed_pairs(p, text):
    if not hasattr(p.carrier, "index"):
        raise StructureError("seed pairs need a finite labelled carrier")
    seeds = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise StructureError("seed %r is not 'a,b'" % chunk)
        seeds.append((p.carrier.index(parts[0].strip()),
                      p.carrier.index(parts[1].strip())))
    return seeds


def cmd_radical(args, p):
    if not p.carrier.finite:
        raise StructureError("radical expects a finite structure")
    try:
        if args.generators:
            base = generate_congruence(p, _parse_seed_pairs(p, args.generators))
        else:
            base = diagonal(p)
    except NoPairCongruence as exc:
        return emit(args, {"radical": NO_PAIR_CONGRUENCE,
                           "witness": exc.witness},
                    "generators close onto T x A0", EXIT_FAIL)
    rad = radical_op(base)
    if rad == NO_PAIR_CONGRUENCE:
        return emit(args, {"radical": NO_PAIR_CONGRUENCE},
                    "radical: no pair-congruence", EXIT_FAIL)
    return emit(args, {"radical": rad.as_json()},
                "radical has %d pairs" % len(rad.relation), EXIT_OK)


def cmd_polyroots(args, p):
    f = parse_poly(p, args.poly)
    roots = find_preceq_roots(f, p.elements(args.window))
    # a root's first coordinate repeats over the later ones: label it once
    labels = list(map(functools.cache(p.carrier.label), (r[0] for r in roots)))
    report = {"poly": args.poly, "roots": labels}
    if not p.carrier.finite:
        report["window"] = args.window
    return emit(args, report, "%d roots" % len(roots),
                EXIT_OK if roots else EXIT_FAIL)


def cmd_localize(args, p):
    if not p.carrier.finite:
        raise StructureError("localize expects a finite structure file")
    S = [p.carrier.index(lab) for lab in args.s_subset.split()]
    try:
        fp = build_fraction_pair(p, S)
    except OreFailure as exc:
        return emit(args, {"ore": exc.verdict}, "denominator set fails the "
                    "common-multiple condition", EXIT_FAIL)
    c = fp.carrier
    report = {
        "s_subset": args.s_subset, "ore": fp.context.ore,
        "elements": list(c.labels),
        "zero": c.labels[c.zero], "one": c.labels[c.one],
        "a0": [c.labels[i] for i in fp.a0_elements()],
        "tangibles": [c.labels[i] for i in fp.tangible_elements()],
        "add": [[c.labels[v] for v in row] for row in c.add_table],
        "mul": [[c.labels[v] for v in row] for row in c.mul_table],
    }
    return emit(args, report, "fraction pair with %d classes" % c.n, EXIT_OK)


def cmd_classify_element(args, p):
    ext = ExtensionPair(p)
    y = parse_poly(p, args.element)
    integral = is_integral(ext, y, degree_bound=args.degree, window=args.window)
    algebraic = is_algebraic(ext, y, degree_bound=args.degree,
                             window=args.window)
    cong_alg = is_congruence_algebraic(ext, y, degree_bound=args.degree,
                                       window=args.window)
    if integral.status == YES:
        kind = "integral"
    elif algebraic.status == YES:
        kind = "algebraic"
    elif cong_alg.status == YES:
        kind = "congruence-algebraic"
    else:
        kind = "transcendental at bound"
    report = {"element": args.element, "classification": kind,
              "integral": integral, "algebraic": algebraic,
              "congruence_algebraic": cong_alg,
              "degree_bound": args.degree, "window": args.window}
    code = EXIT_OK
    if kind == "transcendental at bound":
        code = (EXIT_BOUND if UNKNOWN in (integral.status, algebraic.status,
                                          cong_alg.status) else EXIT_FAIL)
    return emit(args, report, "classification: %s" % kind, code)


def _profile(args):
    """The growth profile, up to --kmax, of the one model the flags pick."""
    sizes = [("free", args.free_letters), ("commutative", args.poly_letters),
             ("matrix_units", args.matrix_units)]
    chosen = [(kind, n) for kind, n in sizes if n is not None]
    if len(chosen) != 1:
        raise StructureError("pick exactly one of --free-letters, "
                             "--poly-letters, --matrix-units")
    kind, n = chosen[0]
    return growth_mod.growth_sequence(growth_mod.build_model(kind, n),
                                      args.kmax)


def cmd_growth(args, profile):
    code = EXIT_BOUND if profile.truncated else EXIT_OK
    return emit(args, {"profile": profile},
                "d = %s" % profile.d, code)


def cmd_hilbert(args, profile):
    series = growth_mod.hilbert_series(profile)
    return emit(args, {"model": profile.model.name,
                       "kmax": args.kmax, "coefficients": series["coefficients"]},
                "coefficients %s" % series["coefficients"],
                EXIT_BOUND if profile.truncated else EXIT_OK)


def cmd_gk(args, profile):
    head = {"model": profile.model.name, "truncated": profile.truncated}
    if profile.truncated:
        # a cut profile gives no estimate, however many levels it kept
        top = len(profile.d) - 1
        return emit(args, {**head, "kmax": top},
                    "word cap MAX_WORDS=%d hit at length %d; no GK estimate"
                    % (growth_mod.MAX_WORDS, top), EXIT_BOUND)
    est = growth_mod.gk_dimension(profile)
    summary = ("divergent (exponential growth)" if est["divergent"]
               else "GK estimate %.3f" % est["estimate"])
    return emit(args, {**head, "result": est}, summary, EXIT_OK)


def cmd_ore_witness(args, p):
    def grab(text):
        if p.carrier.finite:
            a = p.carrier.index(text)
        else:
            try:
                a = ("t", int(text))
            except ValueError:
                raise StructureError("tangible %r is not an integer"
                                     % text) from None
        if not p.is_tangible(a):
            raise StructureError("%r is not tangible" % text)
        return a

    a1, a2 = grab(args.a1), grab(args.a2)
    v = growth_mod.ore_witness(p, a1, a2, degree_bound=args.degree,
                               window=args.window)
    summary = ("witness b1=%r b2=%r" % (v.witness["b1"], v.witness["b2"])
               if v.status == YES else v.detail)
    return emit(args, {"a1": args.a1, "a2": args.a2, "result": v},
                summary, verdict_code(v))


def cmd_krasner(args, s):
    if not s.finite:
        raise StructureError("krasner expects a finite semiring")
    g = [s.index(lab) for lab in args.subgroup.split()]
    # a quotient that fails the axioms raises, so the report is valid
    h = krasner_quotient(s, g)
    return emit(args, {"subgroup": args.subgroup,
                       "quotient": serialize_structures({"hyper": h}),
                       "verify": h.verification},
                "quotient has %d classes, valid" % h.n, EXIT_OK)


def cmd_powerset(args, h):
    choice = (A0_SIZE_GE_TWO if args.a0_choice == "size_ge_two"
              else A0_CONTAINS_ZERO)
    p = powerset_pair(h, choice)
    rep = verify_admissible(p)
    c = p.carrier
    return emit(args, {"a0_choice": args.a0_choice,
                       "elements": [c.label(x) for x in c.elements()],
                       "a0": [c.label(x) for x in p.a0_elements()],
                       "tangibles": [c.label(x) for x in p.tangible_elements()],
                       "shallow": bool(is_shallow(p)), "verify": rep},
                "powerset pair with %d elements, %s" %
                (len(list(c.elements())), "valid" if rep.valid else "INVALID"),
                EXIT_OK if rep.valid else EXIT_FAIL)


# ---------------------------------------------------------------------------


def non_negative_int(text):
    """argparse type of --window, --degree and --kmax: a negative bound
    leaves nothing to sample or search, so it is an input error."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % n)
    return n


def build_parser():
    ap = argparse.ArgumentParser(
        prog="pairalg",
        description="Computations with semiring pairs: verification, "
        "congruence spectra, localization, growth.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, needs, window=False):
        # fn(args, input) reads the input's section ``needs`` ("any": all of
        # it), or for ``needs=None`` the growth profile its flags pick
        sp = sub.add_parser(name)
        if needs:
            sp.add_argument("structure",
                            help="structure file or builtin name")
        if window:
            sp.add_argument("--window", type=non_negative_int,
                            default=DEFAULT_WINDOW)
        sp.add_argument("--json", action="store_true",
                        help="suppress the stderr summary")
        sp.set_defaults(fn=fn, needs=needs)
        return sp

    add("verify", cmd_verify, "any", window=True)
    add("shallow", cmd_shallow, "pair", window=True)
    add("property-n", cmd_property_n, "pair", window=True)
    add("congruences", cmd_congruences, "pair")
    add("spectrum", cmd_spectrum, "pair")
    add("krull", cmd_krull, "pair")

    sp = add("radical", cmd_radical, "pair")
    sp.add_argument("--generators", default="",
                    help="seed pairs 'a,b;c,d' (default: diagonal)")

    sp = add("polyroots", cmd_polyroots, "pair", window=True)
    sp.add_argument("--poly", required=True,
                    help="polynomial such as 'x^2 + 1*x + 4'")

    sp = add("localize", cmd_localize, "pair")
    sp.add_argument("--s-subset", required=True,
                    help="denominator labels, whitespace separated")

    sp = add("classify-element", cmd_classify_element, "pair", window=True)
    sp.add_argument("--element", required=True,
                    help="polynomial expression for the element")
    sp.add_argument("--degree", type=non_negative_int, default=3)

    for name, fn in (("growth", cmd_growth), ("hilbert", cmd_hilbert),
                     ("gk", cmd_gk)):
        sp = add(name, fn, None)
        sp.add_argument("--free-letters", type=int)
        sp.add_argument("--poly-letters", type=int)
        sp.add_argument("--matrix-units", type=int)
        sp.add_argument("--kmax", type=non_negative_int, default=8)

    sp = add("ore-witness", cmd_ore_witness, "pair", window=True)
    sp.add_argument("--a1", required=True)
    sp.add_argument("--a2", required=True)
    sp.add_argument("--degree", type=non_negative_int, default=2)

    sp = add("krasner", cmd_krasner, "semiring")
    sp.add_argument("--subgroup", required=True,
                    help="subgroup element labels, whitespace separated")

    sp = add("powerset", cmd_powerset, "hyper")
    sp.add_argument("--a0-choice", default="contains_zero",
                    choices=["contains_zero", "size_ge_two"])

    return ap


@functools.cache
def _parser():
    # in-process callers build the 18 subparsers once, not on every main()
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    quiet = (contextlib.redirect_stderr(io.StringIO())
             if getattr(args, "json", False) else contextlib.nullcontext())
    with quiet:
        try:
            if args.needs is None:
                return args.fn(args, _profile(args))
            structs = load_input(args.structure)
            return args.fn(args, structs if args.needs == "any"
                           else need(structs, args.needs, args.structure))
        except (StructureError, PreconditionError,
                UnsupportedStructureError) as exc:
            print("input error: %s" % exc, file=sys.stderr)
            return EXIT_INPUT
        except BoundExhausted as exc:
            print("bound exhausted: %s" % exc, file=sys.stderr)
            return EXIT_BOUND


if __name__ == "__main__":
    sys.exit(main())
