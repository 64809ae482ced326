"""Seeded inputs, jobs and answer checks of the three workloads.

A job is one in-process ``pairalg.cli.main(argv)`` call, or one call of a
public library function where no subcommand covers the work. Library
functions are looked up on their module at call time, so the tracer's
wrappers see them. Each job carries a check that compares the answer with a
reference the benchmark computes itself (``oracle``) or with an expected
answer stated here. A check may return follow-up jobs that take the
answer as input, such as the quotient by a closure just computed.

Known defects stay in the draw: a job whose failure text contains its
``known`` string is counted as failed without making the run incorrect."""

import ast
import contextlib
import io
import itertools
import json
import math
import os
import statistics
from dataclasses import dataclass
from functools import cached_property

import oracle
from oracle import ST_ZERO, Tables

from pairalg import cli, hyper, pairs, semirings, structio
from pairalg import congruences as cong
from pairalg.errors import StructureError

# Failure texts of the defects reproducible at the benchmark's first commit.
PRIME_INTERSECTION = "AssertionError"  # spectrum/krull/radical, max-min chains
CHAIN_WITH_ZERO = "StructureError: duplicate element labels"
SEED_SYNTAX = "exit 2: input error: seed"  # --generators vs labels with commas
BRACKET_LABELS = "exit 2: input error: line"  # Krasner labels [x] as headers
SYMBOLIC_COEFFS = "TypeError"  # numeric literals on nat-plus-times


class Mismatch(Exception):
    """An answer that fails its check."""


@dataclass
class Job:
    key: str
    group: str
    call: object
    check: object
    known: str = ""


@dataclass
class CliResult:
    code: object
    out: str
    err: str


def run_cli(argv):
    """In-process CLI call with stdout and stderr captured by redirection
    (``--json`` is not used: it replaces sys.stderr for good)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_job(key, group, argv, check, known=""):
    return Job(key, group, lambda: run_cli(argv), check, known)


def answer(res, *codes):
    if res.code not in codes:
        raise Mismatch("exit %r: %s" % (res.code, res.err.strip()[-300:]))
    return json.loads(res.out)


def require(ok, what):
    if not ok:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# families, built with the library's constructors


def nmax_pair(n):
    s = semirings.nmax_trunc(n)
    return pairs.SemiringPair(s, [s.zero], list(range(1, s.n)), name=s.name)


def max_min_pair(k):
    labels = [str(i) for i in range(k)]
    s = semirings.FiniteSemiring(
        labels, [[max(i, j) for j in range(k)] for i in range(k)],
        [[min(i, j) for j in range(k)] for i in range(k)], 0, k - 1,
        name="maxmin(%d)" % k)
    return pairs.SemiringPair(s, [0], list(range(1, k)), name=s.name)


def fq_semiring(q):
    labels = [str(i) for i in range(q)]
    return semirings.FiniteSemiring(
        labels, [[(i + j) % q for j in range(q)] for i in range(q)],
        [[i * j % q for j in range(q)] for i in range(q)], 0, 1,
        name="F%d" % q)


def fq_pair(q):
    s = fq_semiring(q)
    return pairs.SemiringPair(s, [0], list(range(1, q)), name=s.name)


def chain_pair(k, offset):
    """Supertropical pair over the truncated chain {o, ..., o+k-1} with
    a * b = min(a + b - o, top) and unit o."""
    top = offset + k - 1
    m = semirings.OrderedMonoid(op=lambda a, b: min(a + b - offset, top),
                                unit=offset,
                                elements=list(range(offset, top + 1)))
    return semirings.supertropical_extension(m)


def double_boolean():
    return semirings.double(semirings.boolean_semiring())


def double_nmax(k):
    return semirings.double(semirings.nmax_trunc(k))


def permuted(p, rng):
    """Isomorphic copy with the elements listed in a seeded order."""
    c = p.carrier
    order = list(range(c.n))
    rng.shuffle(order)
    pos = {old: new for new, old in enumerate(order)}
    s = semirings.FiniteSemiring(
        [c.labels[o] for o in order],
        [[pos[c.add_table[a][b]] for b in order] for a in order],
        [[pos[c.mul_table[a][b]] for b in order] for a in order],
        pos[c.zero], pos[c.one], name=c.name)
    return pairs.SemiringPair(s, sorted(pos[x] for x in p.a0_elements()),
                              sorted(pos[x] for x in p.tangible_elements()),
                              name=p.name)


def subgroups(q):
    """Subgroups of the cyclic group F_q^*, one per order, ascending."""
    gen = next(g for g in range(2, q)
               if len({pow(g, k, q) for k in range(q - 1)}) == q - 1)
    out = []
    for d in range(1, q):
        if (q - 1) % d == 0:
            h = pow(gen, (q - 1) // d, q)
            out.append(sorted({pow(h, k, q) for k in range(d)}))
    return out


class Files:
    """Writes inputs with serialize_structures and parses them back."""

    def __init__(self, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def write(self, name, structs):
        text = structio.serialize_structures(structs)
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if structio.serialize_structures(structio.load_structures(path)) != text:
            raise RuntimeError("%s does not parse back to itself" % name)
        return path

    def write_text(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def index_of(t, label):
    return t.labels.index(label)


# ---------------------------------------------------------------------------
# lattice: enumeration and classification on 3-8 element pairs


class LatticeFacts:
    """Reference lattice, primes and Krull dimension of one small pair,
    computed once per instance."""

    def __init__(self, t):
        self.t = t

    @cached_property
    def lattice(self):
        return oracle.lattice(self.t)

    @cached_property
    def primes(self):
        return [c for c in self.lattice if oracle.is_prime(self.t, c)]

    @cached_property
    def semiprime_count(self):
        return sum(1 for c in self.lattice if oracle.is_semiprime(self.t, c))

    def labelled(self, cls):
        return oracle.labelled(self.t, oracle.relation(cls))


def pair_set(doc_pairs):
    return frozenset(tuple(ab) for ab in doc_pairs)


def check_congruences(facts):
    def check(res):
        doc = answer(res, 0)
        want = {facts.labelled(c) for c in facts.lattice}
        got = {pair_set(c) for c in doc["congruences"]}
        require(doc["count"] == len(want) and got == want,
                "congruence lattice differs")
    return check


def check_spectrum(facts):
    def check(res):
        doc = answer(res, 0 if facts.primes else 1)
        want = {facts.labelled(c) for c in facts.primes}
        require({pair_set(c) for c in doc["primes"]} == want
                and doc["prime_count"] == len(want), "primes differ")
        require(doc["semiprime_count"] == facts.semiprime_count,
                "semiprime count differs")
        require(doc["krull_dimension"] == oracle.krull_dimension(facts.primes),
                "Krull dimension differs")
    return check


def check_krull(facts):
    def check(res):
        dim = oracle.krull_dimension(facts.primes)
        doc = answer(res, 1 if dim is None else 0)
        require(doc["krull_dimension"] == dim, "Krull dimension differs")
    return check


def check_radical(t, seeds):
    """Radical of the closure of the seeds (of the diagonal without seeds)."""
    def check(res):
        base = oracle.closure(t, seeds)
        rad = None if oracle.meets_t_a0(t, base) else oracle.radical(t, base)
        doc = answer(res, 1 if rad is None else 0)
        if rad is None:
            require(doc["radical"] == cong.NO_PAIR_CONGRUENCE,
                    "radical should escape into T x A0")
        else:
            require(pair_set(doc["radical"])
                    == oracle.labelled(t, oracle.relation(rad)),
                    "radical differs")
    return check


def constructor_job(key, group, make):
    """A draw whose pair cannot be built: the job re-runs the constructor."""
    def check(p):
        require(oracle.admissible_tables(Tables.of_pair(p), p.carrier.zero,
                                         p.carrier.one),
                "constructed pair is not admissible")
    return Job(key, group, make, check, CHAIN_WITH_ZERO)


LATTICE_COMMANDS = ("congruences", "spectrum", "krull", "radical",
                    "radical-tt", "radical-tt", "radical-a0", "radical-a0")


def lattice_jobs(rng, files, spec):
    fam = spec["families"]
    draws = [("nmax", m, lambda m=m: nmax_pair(m - 2))
             for m in fam["nmax_trunc"]["elements"]]
    draws += [("maxmin", m, lambda m=m: max_min_pair(m))
              for m in fam["max_min_chain"]["elements"]]
    draws += [("F", q, lambda q=q: fq_pair(q)) for q in fam["fq"]["q"]]
    draws += [("double-boolean", 4, double_boolean)]
    draws += [("chain", "%d-%d" % (k, o), lambda k=k, o=o: chain_pair(k, o))
              for k in fam["supertropical_chain"]["values"]
              for o in fam["supertropical_chain"]["offsets"]]
    jobs = []
    for family, size, make in draws:
        name = "%s%s" % (family, size)
        try:
            p = make()
        except StructureError:
            jobs += [constructor_job("%s/%d-%s" % (name, i, c), "construct",
                                     make)
                     for i, c in enumerate(LATTICE_COMMANDS)]
            continue
        p = permuted(p, rng)
        path = files.write(name + ".pair", {"semiring": p.carrier, "pair": p})
        t = Tables.of_pair(p)
        facts = LatticeFacts(t)
        known = PRIME_INTERSECTION if family == "maxmin" else ""
        # seed pairs: two distinct non-unit tangibles (the unit alone when
        # there are fewer), and a quasi-zero with a tangible
        tang = sorted(t.tang)
        inner = [x for x in tang if x != p.carrier.one] or [p.carrier.one]
        gens = [("tt", rng.sample(inner, 2) if len(inner) > 1 else inner * 2)
                for _ in range(2)]
        gens += [("a0", [rng.choice(sorted(t.a0)), rng.choice(tang)])
                 for _ in range(2)]
        jobs.append(cli_job(name + "/congruences", "lattice",
                            ["congruences", path], check_congruences(facts)))
        jobs.append(cli_job(name + "/spectrum", "lattice", ["spectrum", path],
                            check_spectrum(facts), known))
        jobs.append(cli_job(name + "/krull", "lattice", ["krull", path],
                            check_krull(facts), known))
        jobs.append(cli_job(name + "/radical", "lattice", ["radical", path],
                            check_radical(t, []), known))
        for i, (tag, (a, b)) in enumerate(gens):
            arg = "%s,%s" % (t.labels[a], t.labels[b])
            jobs.append(cli_job(
                "%s/radical-%d-%s-%s" % (name, i, tag, arg), "lattice",
                ["radical", path, "--generators=" + arg],
                check_radical(t, [(a, b)]),
                SEED_SYNTAX if family == "double-boolean" else known))
    rng.shuffle(jobs)
    return jobs


def lattice_ladder(files):
    def attempt(m):
        p = nmax_pair(m - 2)
        path = files.write("ladder%d.pair" % m, {"semiring": p.carrier, "pair": p})
        t = Tables.of_pair(p)
        check = check_spectrum(LatticeFacts(t)) if m <= 8 else spectrum_shape(t)
        return lambda: run_cli(["spectrum", path]), check
    return attempt


def spectrum_shape(t):
    """Cheap invariants for sizes past the reference enumeration: every
    listed prime is a congruence disjoint from T x A0."""
    index = {lab: i for i, lab in enumerate(t.labels)}

    def check(res):
        doc = answer(res, 0, 1)
        for prime in doc["primes"]:
            rel = frozenset((index[a], index[b]) for a, b in prime)
            require(oracle.is_congruence(t, rel), "listed prime is not a congruence")
            require(not any(a in t.tang and b in t.a0 for a, b in rel),
                    "listed prime meets T x A0")
    return check


# ---------------------------------------------------------------------------
# constructions: closure, localization and coset quotients past the cap


def closure_job(key, p, t, seeds):
    def call():
        try:
            return cong.generate_congruence(p, seeds)
        except cong.NoPairCongruence as exc:
            return exc

    reference = []

    def check(value):
        if not reference:
            cls = oracle.closure(t, seeds)
            reference.extend((cls, oracle.meets_t_a0(t, cls),
                              oracle.relation(cls)))
        cls, escapes, rel = reference
        if escapes:
            require(isinstance(value, cong.NoPairCongruence),
                    "closure should meet T x A0")
            a, b = value.witness
            require(cls[a] == cls[b] and ((a in t.tang and b in t.a0)
                                          or (a in t.a0 and b in t.tang)),
                    "escape witness is not a closure pair in T x A0")
            return []
        require(not isinstance(value, Exception) and value.relation == rel,
                "closure differs")
        return [quotient_job(key, p, t, value, cls)]
    return Job(key, "closure", call, check)


def quotient_job(key, p, t, congruence, cls):
    def check(q):
        cm = q.class_map
        k = len(set(cls))
        require(q.carrier.n == k, "quotient has %d classes, want %d"
                % (q.carrier.n, k))
        require(all((cm[a] == cm[b]) == (cls[a] == cls[b])
                    for a in range(t.n) for b in range(t.n)),
                "class map differs from the congruence")
        qa, qm = q.carrier.add_table, q.carrier.mul_table
        require(all(qa[cm[a]][cm[b]] == cm[t.add[a][b]]
                    and qm[cm[a]][cm[b]] == cm[t.mul[a][b]]
                    for a in range(t.n) for b in range(t.n)),
                "induced operations differ")
        return [verify_job(key + "/verify", q)]
    return Job(key + "/quotient", "closure",
               lambda: cong.quotient_pair(p, congruence), check)


def verify_job(key, q):
    def check(report):
        want = oracle.admissible_tables(Tables.of_pair(q), q.carrier.zero,
                                        q.carrier.one)
        require(report.valid == want, "admissibility verdict differs")
    return Job(key, "closure", lambda: pairs.verify_admissible(q), check)


def check_localize_fq(q):
    def check(res):
        doc = answer(res, 0)
        val = {}
        for lab in doc["elements"]:
            b, s = lab.split("/")
            val[lab] = int(b) * pow(int(s), -1, q) % q
        require(sorted(val.values()) == list(range(q)),
                "localization of F_%d does not give %d classes" % (q, q))
        labs = doc["elements"]
        for i, x in enumerate(labs):
            for j, y in enumerate(labs):
                require(val[doc["add"][i][j]] == (val[x] + val[y]) % q
                        and val[doc["mul"][i][j]] == val[x] * val[y] % q,
                        "fraction arithmetic differs from F_%d" % q)
        require(val[doc["zero"]] == 0 and val[doc["one"]] == 1
                and [val[x] for x in doc["a0"]] == [0]
                and sorted(val[x] for x in doc["tangibles"]) == list(range(1, q)),
                "fraction pair layers differ")
    return check


def check_localize_unit(t):
    def check(res):
        doc = answer(res, 0)
        val = {lab: index_of(t, lab.split("/")[0]) for lab in doc["elements"]}
        require(sorted(val.values()) == list(range(t.n)),
                "localizing at the unit changes the carrier")
        labs = doc["elements"]
        require(all(val[doc["add"][i][j]] == t.add[val[x]][val[y]]
                    and val[doc["mul"][i][j]] == t.mul[val[x]][val[y]]
                    for i, x in enumerate(labs) for j, y in enumerate(labs)),
                "localizing at the unit changes the operations")
    return check


def check_refused_ore(res):
    doc = answer(res, 1)
    require(doc["ore"]["status"] == "no", "non-regular S must fail Ore")


class CosetTables:
    """Reference Krasner quotient F_q / G from residue arithmetic."""

    def __init__(self, q, g):
        self.q, self.g = q, g
        seen = []
        for x in range(q):
            c = self.coset(x)
            if c not in seen:
                seen.append(c)
        self.cosets = seen

    def coset(self, x):
        return frozenset(x * a % self.q for a in self.g)

    def sums(self, c1, c2):
        return {self.coset(x + y) for x in c1 for y in c2}


def parse_quotient_text(text):
    """Labels and tables of a serialized [hyper] section."""
    lines = text.splitlines()
    head = dict(ln.split(" = ", 1) for ln in lines if " = " in ln)
    labels = head["elements"].split()
    start = lines.index("add =") + 1
    add = [[frozenset(cell[1:-1].split(",")) for cell in ln.split()]
           for ln in lines[start:start + len(labels)]]
    start = lines.index("mul =") + 1
    mul = [ln.split() for ln in lines[start:start + len(labels)]]
    return labels, add, mul, head["zero"], head["one"]


def check_krasner(q, g, files, key):
    ref = CosetTables(q, g)

    def check(res):
        doc = answer(res, 0)
        require(doc["verify"]["valid"], "Krasner quotient reported invalid")
        labels, add, mul, _, _ = parse_quotient_text(doc["quotient"])
        require(len(labels) == len(ref.cosets) == (q - 1) // len(g) + 1,
                "quotient has %d classes" % len(labels))
        coset = {lab: ref.coset(int(lab[1:-1])) for lab in labels}
        require(sorted(coset.values(), key=min) == sorted(ref.cosets, key=min),
                "quotient classes are not the cosets")
        for i, x in enumerate(labels):
            for j, y in enumerate(labels):
                require({coset[lab] for lab in add[i][j]}
                        == ref.sums(coset[x], coset[y]),
                        "coset hyper-sum differs")
                rep = ref.coset(min(coset[x]) * min(coset[y]))
                require(coset[mul[i][j]] == rep, "coset product differs")
        path = files.write_text("%s.hyper" % key.replace("/", "-"),
                                doc["quotient"])
        return [cli_job(key + "/powerset-cli", "coset", ["powerset", path],
                        check_powerset_cli(doc["quotient"]), BRACKET_LABELS)]
    return check


def quotient_from_text(text):
    labels, add, mul, zero, one = parse_quotient_text(text)
    ix = {lab: i for i, lab in enumerate(labels)}
    hyperadd = [[frozenset(ix[lab] for lab in cell) for cell in row]
                for row in add]
    return (len(labels), hyperadd, [[ix[lab] for lab in row] for row in mul],
            ix[zero], ix[one])


def powerset_reference(n, hyperadd, mul, zero, one, choice):
    """Carrier, A0 and T of the power-set pair, and its admissibility."""
    elems = oracle.powerset_closure(hyperadd, n)
    zs = frozenset([zero])
    if choice == hyper.A0_CONTAINS_ZERO:
        a0 = frozenset(s for s in elems if zero in s)
    else:
        a0 = frozenset(s for s in elems if len(s) >= 2 or s == zs)
    tang = frozenset(s for s in elems if len(s) == 1 and s != zs and s not in a0)
    ok = oracle.admissible(
        elems, lambda x, y: oracle.hyper_sum(hyperadd, x, y),
        lambda x, y: frozenset(mul[a][b] for a in x for b in y),
        zs, frozenset([one]), a0, tang)
    return elems, a0, tang, ok


def check_powerset_cli(text):
    def check(res):
        answer(res, 0, 1)
        n, hyperadd, mul, zero, one = quotient_from_text(text)
        elems, _, _, ok = powerset_reference(n, hyperadd, mul, zero, one,
                                             hyper.A0_CONTAINS_ZERO)
        doc = answer(res, 0 if ok else 1)
        require(len(doc["elements"]) == len(elems), "power-set size differs")
        require(doc["verify"]["valid"] == ok, "admissibility verdict differs")
    return check


def powerset_job(key, k, choice):
    reference = []

    def check(p):
        if not reference:
            reference.extend(powerset_reference(
                k.n, k.hyperadd, k.mul_table, k.zero, k.one, choice))
        elems, a0, tang, ok = reference
        require(set(p.carrier.elements()) == elems, "power-set carrier differs")
        require(set(p.a0_elements()) == a0
                and set(p.tangible_elements()) == tang, "power-set layers differ")

        def verified(report):
            require(report.valid == ok, "admissibility verdict differs")
        return [Job(key + "/verify", "coset",
                    lambda: pairs.verify_admissible(p), verified)]
    return Job(key, "coset", lambda: hyper.powerset_pair(k, choice), check)


def construction_jobs(rng, files, spec):
    jobs = []
    cl = spec["closure"]
    # (2, b) closes onto the class {2, ..., top} whatever b is, so the seed
    # picks b without changing the work
    for n in cl["nmax_trunc"]["n"]:
        p = nmax_pair(n)
        t = Tables.of_pair(p)
        b, c = rng.randint(3, n), rng.randint(0, n)
        jobs.append(closure_job("nmax%d/closure-2-%d" % (n, b), p, t,
                                [(index_of(t, "2"), index_of(t, str(b)))]))
        jobs.append(closure_job("nmax%d/closure-escape-%d" % (n, c), p, t,
                                [(index_of(t, "-inf"), index_of(t, str(c)))]))
    for n in cl["radical_generators"]["n"]:
        p = nmax_pair(n)
        path = files.write("nmax%d.pair" % n, {"semiring": p.carrier, "pair": p})
        t = Tables.of_pair(p)
        b = rng.randint(3, n)
        jobs.append(cli_job("nmax%d/radical-2-%d" % (n, b), "closure",
                            ["radical", path, "--generators=2,%d" % b],
                            check_radical(t, [(index_of(t, "2"),
                                               index_of(t, str(b)))])))
    chains = cl["supertropical_chain"]
    for k in chains["values"]:
        for o in chains["offsets"]:
            name = "chain%d-%d" % (k, o)
            try:
                p = chain_pair(k, o)
            except StructureError:
                jobs.append(constructor_job(name + "/closure", "closure",
                                            lambda k=k, o=o: chain_pair(k, o)))
                continue
            t = Tables.of_pair(p)
            seeds = [tuple(rng.sample(sorted(t.tang), 2))]
            jobs.append(closure_job("%s/closure-%d-%d" % ((name,) + seeds[0]),
                                    p, t, seeds))
    for k in cl["double_nmax"]["k"]:
        p = double_nmax(k)
        t = Tables.of_pair(p)
        b = rng.randint(1, k)
        diag = [(index_of(t, "(0,0)"), index_of(t, "(%d,%d)" % (b, b)))]
        escape = [(p.carrier.zero, rng.choice(sorted(t.tang)))]
        for seeds in (diag, escape):
            jobs.append(closure_job("double%d/closure-%d-%d" % ((k,) + seeds[0]),
                                    p, t, seeds))

    loc = spec["localize"]
    for q, orders in loc["fq"]["subgroup_orders"].items():
        q = int(q)
        p = permuted(fq_pair(q), rng)
        path = files.write("F%d.pair" % q, {"semiring": p.carrier, "pair": p})
        for g in subgroups(q):
            if len(g) in orders:
                jobs.append(cli_job("F%d/localize-%d" % (q, len(g)), "localize",
                                    ["localize", path, "--s-subset",
                                     " ".join(map(str, g))],
                                    check_localize_fq(q)))
    for n in loc["nmax_trunc"]["n"]:
        p = permuted(nmax_pair(n), rng)
        path = files.write("nmax%d.pair" % n, {"semiring": p.carrier, "pair": p})
        t = Tables.of_pair(p)
        jobs.append(cli_job("nmax%d/localize-unit" % n, "localize",
                            ["localize", path, "--s-subset", "0"],
                            check_localize_unit(t)))
        jobs.append(cli_job("nmax%d/localize-top" % n, "localize",
                            ["localize", path, "--s-subset", "0 %d" % n],
                            check_refused_ore))

    cos = spec["coset"]
    for q in cos["fq"]["q"]:
        s = permuted(fq_pair(q), rng).carrier
        path = files.write("F%d.semiring" % q, {"semiring": s})
        for g in subgroups(q):
            key = "F%d/krasner-%d" % (q, len(g))
            jobs.append(cli_job(key, "coset",
                                ["krasner", path, "--subgroup",
                                 " ".join(map(str, g))],
                                check_krasner(q, g, files, key)))
            k = hyper.krasner_quotient(s, [s.index(str(x)) for x in g])
            for choice, most in cos["powerset_max_classes"].items():
                if k.n <= most:
                    jobs.append(powerset_job("%s/powerset-%s" % (key, choice),
                                             k, choice))
    rng.shuffle(jobs)
    return jobs


def construction_ladder(files):
    def attempt(n):
        p = nmax_pair(n)
        t = Tables.of_pair(p)
        seeds = [(index_of(t, "2"), index_of(t, str(n)))]

        def check(value):
            require(value.relation
                    == oracle.relation(oracle.closure(t, seeds)),
                    "closure differs")
        return lambda: cong.generate_congruence(p, seeds), check
    return attempt


# ---------------------------------------------------------------------------
# symbolic: windowed checks on infinite carriers, growth models

STN, STZ, NAT = ("supertropical-naturals", "supertropical-integers",
                 "nat-plus-times")


def literal(terms, names=("x", "y")):
    """Polynomial literal for (coefficient token or None, exponents)."""
    out = []
    for coeff, exps in terms:
        mono = "*".join(v if e == 1 else "%s^%d" % (v, e)
                        for v, e in zip(names, exps) if e)
        out.append("*".join(x for x in (coeff, mono) if x) or "1")
    return " + ".join(out)


# Exponents of the polynomial jobs by (variables, numeric coefficients);
# the seed picks the coefficients, which leave the work unchanged. Without
# numeric coefficients there is no constant term: its coefficient is a
# numeral.
SHAPES = {
    (1, True): [(3,), (1,), (0,)],
    (2, True): [(1, 1), (1, 0), (0, 0)],
    (1, False): [(3,), (2,), (1,)],
    (2, False): [(1, 1), (1, 0), (0, 1)],
}


def seeded_terms(rng, nvars, numeric, ghosts):
    terms = []
    for e in SHAPES[nvars, numeric]:
        tok = None
        if numeric:
            tok = str(rng.randint(0, 5))
            if ghosts and rng.random() < 0.3:
                tok += "v"
        terms.append((tok, e))
    return terms


def st_coeff(tok):
    if tok is None:
        return ("t", 0)
    return ("g", int(tok[:-1])) if tok.endswith("v") else ("t", int(tok))


def check_polyroots(builtin, terms, nvars, window):
    def check(res):
        if builtin == NAT:
            dom = list(range(window + 1))
            coeffs = [(1 if tok is None else int(tok), e) for tok, e in terms]
            roots = [str(pt[0]) for pt in itertools.product(dom, repeat=nvars)
                     if oracle.nat_eval(coeffs, pt) == 0]
        else:
            dom = oracle.st_sample(builtin, window)
            coeffs = [(st_coeff(tok), e) for tok, e in terms]
            roots = [oracle.st_label(pt[0])
                     for pt in itertools.product(dom, repeat=nvars)
                     if oracle.st_in_a0(oracle.st_eval(coeffs, pt))]
        doc = answer(res, 0 if roots else 1)
        require(doc["roots"] == roots, "roots differ")
    return check


def check_fixed(code, field, value):
    def check(res):
        doc = answer(res, code)
        got = doc
        for part in field:
            got = got[part]
        require(got == value, "%s is %r, want %r" % ("/".join(field), got, value))
    return check


def check_ore(builtin, a1, a2):
    def check(res):
        doc = answer(res, 0, 1, 3)
        v = doc["result"]
        if v["status"] != "yes":
            require(builtin == NAT, "supertropical ore witness exists at degree 1")
            return
        w = ast.literal_eval(v["witness"])
        if builtin == NAT:
            require(w["b1"] != 0 and w["b2"] != 0
                    and w["b1"] * a1 + w["b2"] * a2 == 0, "ore witness is wrong")
            return
        b1, b2 = w["b1"], w["b2"]
        s = oracle.st_add(oracle.st_mul(b1, ("t", a1)),
                          oracle.st_mul(b2, ("t", a2)))
        require(not oracle.st_in_a0(b1) and not oracle.st_in_a0(b2)
                and oracle.st_in_a0(s), "ore witness is wrong")
    return check


def check_classify(builtin, terms):
    """Classification follows the first definite verdict, and integral and
    algebraic witnesses are checked on supertropical polynomials."""
    y = {e[0]: st_coeff(tok) for tok, e in terms}

    def check(res):
        doc = answer(res, 0, 1, 3)
        kinds = (("integral", "integral"), ("algebraic", "algebraic"),
                 ("congruence_algebraic", "congruence-algebraic"))
        want = next((name for key, name in kinds
                     if doc[key]["status"] == "yes"), "transcendental at bound")
        require(doc["classification"] == want, "classification inconsistent")
        statuses = [doc[key]["status"] for key, _ in kinds]
        code = 0 if want != "transcendental at bound" else (
            3 if "unknown" in statuses else 1)
        require(res.code == code, "exit code inconsistent")
        if builtin == NAT:
            return
        for key in ("integral", "algebraic"):
            if doc[key]["status"] != "yes":
                continue
            w = ast.literal_eval(doc[key]["witness"])
            combo = oracle.st_poly_combination(list(w["coeffs"]), y)
            if key == "integral":
                require(oracle.st_poly_surpass(
                    combo, oracle.st_poly_power(y, w["degree"])),
                    "integral witness is wrong")
            else:
                require(w["coeffs"][-1] != ST_ZERO
                        and all(oracle.st_in_a0(c) for c in combo.values()),
                        "algebraic witness is wrong")
    return check


def check_surpassing(size):
    def check(report):
        require(report.valid and report.checked == min(size, 12) ** 3,
                "surpassing report differs")
    return check


def check_negation(p, window, swap):
    def check(neg):
        sample = p.elements(window)
        want = [(x[1], x[0]) if swap else x for x in sample]
        require([neg(x) for x in sample] == want, "negation map differs")
    return check


def check_growth(kind, size, kmax, command):
    d = oracle.growth_layers(kind, size, kmax)
    cum = list(itertools.accumulate(d))

    def check(res):
        doc = answer(res, 0)
        if command == "growth":
            prof = doc["profile"]
            require(prof["d"] == d and prof["cumulative"] == cum
                    and not prof["truncated"], "growth layers differ")
        elif command == "hilbert":
            require(doc["coefficients"] == d[1:], "Hilbert coefficients differ")
        else:
            est = doc["result"]
            tail = cum[-4:]
            divergent = min(b / a for a, b in zip(tail, tail[1:])) >= 1.5
            require(est["divergent"] == divergent, "GK divergence differs")
            if not divergent:
                ks = range(max(1, kmax // 2), kmax + 1)
                slope, _ = statistics.linear_regression(
                    [math.log(k) for k in ks], [math.log(cum[k]) for k in ks])
                require(abs(est["estimate"] - slope) < 1e-9,
                        "GK estimate differs")
    return check


def ore_arguments(rng, builtin, window):
    """a2 seeded in the window and a1 = a2 + 1: the witness search depends
    on the difference only."""
    low = 1 if builtin == NAT else (0 if builtin == STN else -window)
    a2 = rng.randint(low, window - 1)
    return a2 + 1, a2


def symbolic_jobs(rng, spec):
    jobs = []
    windows = spec["windows"]
    for b in spec["builtins"]:
        shallow_ok = check_fixed(0, ("shallow",), True)
        pn = ((1, "none") if b == NAT else (0, "tangibly_separating"))
        for w in windows:
            ws = ["--window", str(w)]
            tag = "%s/w%d" % (b, w)
            jobs.append(cli_job(tag + "/verify", "windowed", ["verify", b] + ws,
                                check_fixed(0, ("valid",), True)))
            jobs.append(cli_job(tag + "/shallow", "windowed",
                                ["shallow", b] + ws, shallow_ok))
            jobs.append(cli_job(tag + "/property-n", "windowed",
                                ["property-n", b] + ws,
                                check_fixed(pn[0], ("result", "status"), pn[1])))
        # numeric literals on nat-plus-times hit the coefficient-parser defect
        # in half of the polynomial jobs, on the same windows every seed
        for i, w in enumerate(windows):
            for nvars in (1, 2):
                numeric = b != NAT or i % 2 == 0
                terms = seeded_terms(rng, nvars, numeric, ghosts=b != NAT)
                lit = literal(terms)
                jobs.append(cli_job(
                    "%s/w%d/polyroots-%s" % (b, w, lit), "windowed",
                    ["polyroots", b, "--window", str(w), "--poly", lit],
                    check_polyroots(b, terms, nvars, w),
                    SYMBOLIC_COEFFS if b == NAT and numeric else ""))
            a1, a2 = ore_arguments(rng, b, w)
            jobs.append(cli_job(
                "%s/w%d/ore-%d-%d" % (b, w, a1, a2), "windowed",
                ["ore-witness", b, "--window", str(w), "--a1=%d" % a1,
                 "--a2=%d" % a2, "--degree", "1"],
                check_ore(b, a1, a2), SYMBOLIC_COEFFS if b == NAT else ""))
        for w in spec["classify_windows"]:
            d = rng.randint(1, 3)
            for terms in ([(None, (1,))], [(None, (1,)), (str(d), (0,))]):
                lit = literal(terms)
                jobs.append(cli_job(
                    "%s/w%d/classify-%s" % (b, w, lit), "classify",
                    ["classify-element", b, "--window", str(w), "--element",
                     lit, "--degree", "1"],
                    check_classify(b, terms),
                    SYMBOLIC_COEFFS if b == NAT and len(terms) > 1 else ""))

    for name, make, ws, swap in (
            (STN, semirings.supertropical_naturals, windows, False),
            (STZ, semirings.supertropical_integers, windows, False),
            ("double-nat", lambda: semirings.double(semirings.nat_plus_times()),
             spec["double_nat_windows"], True)):
        p = make()
        for w in ws:
            size = len(p.elements(w))
            jobs.append(Job("%s/w%d/verify_surpassing" % (name, w), "library",
                            lambda p=p, w=w: pairs.verify_surpassing(p, window=w),
                            check_surpassing(size)))
            jobs.append(Job("%s/w%d/derive_negation" % (name, w), "library",
                            lambda p=p, w=w: pairs.derive_negation(p, window=w),
                            check_negation(p, w, swap)))

    g = spec["growth"]
    flags = {"free": "--free-letters", "commutative": "--poly-letters",
             "matrix_units": "--matrix-units"}
    for kind in ("free", "commutative", "matrix_units"):
        for size in g[kind]:
            kmaxes = list(g["kmax"])
            rng.shuffle(kmaxes)
            for command, kmax in zip(("growth", "hilbert", "gk"), kmaxes):
                jobs.append(cli_job(
                    "%s%d/%s-%d" % (kind, size, command, kmax), "growth",
                    [command, flags[kind], str(size), "--kmax", str(kmax)],
                    check_growth(kind, size, kmax, command)))
    rng.shuffle(jobs)
    return jobs


def symbolic_ladder(files):
    """One pass of the windowed subcommands on supertropical-integers."""
    def attempt(w):
        ws = ["--window", str(w)]
        poly1 = [("1", (2,)), ("1", (1,)), ("4", (0,))]
        poly2 = [(None, (1, 1)), ("2", (1, 0)), ("3", (0, 0))]
        steps = [
            (["verify", STZ] + ws, check_fixed(0, ("valid",), True)),
            (["shallow", STZ] + ws, check_fixed(0, ("shallow",), True)),
            (["property-n", STZ] + ws,
             check_fixed(0, ("result", "status"), "tangibly_separating")),
            (["polyroots", STZ, "--poly", literal(poly1)] + ws,
             check_polyroots(STZ, poly1, 1, w)),
            (["polyroots", STZ, "--poly", literal(poly2)] + ws,
             check_polyroots(STZ, poly2, 2, w)),
            (["ore-witness", STZ, "--a1=1", "--a2=2", "--degree", "1"] + ws,
             check_ore(STZ, 1, 2)),
        ]

        def check(results):
            for (_, step_check), res in zip(steps, results):
                step_check(res)
        return [lambda argv=argv: run_cli(argv) for argv, _ in steps], check
    return attempt


BUILDERS = {
    "lattice": (lattice_jobs, lattice_ladder),
    "constructions": (construction_jobs, construction_ladder),
    "symbolic": (lambda rng, files, spec: symbolic_jobs(rng, spec),
                 symbolic_ladder),
}
