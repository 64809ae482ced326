"""pairalg benchmark: one closed-loop client in one process, no threads.

    python3 perfbench/run.py --workload lattice|constructions|symbolic \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pairalg is imported from ./src and
nowhere else. Workloads, families, sizes, ladders and budgets are in
perfbench/sizes.json; the jobs and their answer checks are in
perfbench/workloads.py.

--trace 0 prints the end-to-end metrics:
  jobs_per_s   completed jobs per second of job time in the timed phase,
               which runs whole cycles of the seeded job list (at least
               three) until --seconds of job CPU time have passed; each
               job's time is the median over the cycles of its scaled time
  job_p50_ms, job_p90_ms   median and 90th percentile of those times over
               the completed jobs of one cycle (more than 100 per workload)
  setup_s      median over nine fresh interpreters of importing pairalg,
               generating, writing and parsing the inputs, up to the first
               job
  peak_rss_mb  ru_maxrss of this process after the timed phase (the
               ladder's largest size depends on speed, so it comes later)
  fail_ratio   failed / attempted jobs (exceptions, unexpected exit codes,
               answers that fail their check)
  capacity     largest ladder size answered within the per-size budget,
               log-log interpolated; run after the timed phase
Times are CPU times scaled to a fixed host speed: each is divided by the
CPU time of the reference kernel of hostspeed.py run right before and after
it, and multiplied by the kernel's time on an idle host (hostspeed.REF_MS).
The shared host's speed drifts by more than the bounds within minutes; the
scaled times do not.
--trace 1 runs the job list untraced, then again with the tracer
installed, and prints the per-layer metrics, the tracing overhead, and a
self-time report on stderr. Spans go to .perfbench/trace-<workload>-<seed>.jsonl.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. correct is false when an answer fails its check or a job fails in
a way that is not one of the known defects listed in workloads.py."""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 9
MIN_CYCLES = 3
LADDER_REPEATS = 5
LADDER_REFS = 5  # kernel runs before and after each ladder timing
WALL_LIMIT_S = 120  # stop the timed phase early rather than miss 180 s
# Jobs, ladder sizes and set-up are timed in CPU time of this process (the
# client is one thread that never waits on I/O, so on an idle machine this
# equals wall time) and scaled by the host-speed reference of hostspeed.py.
CLOCK = hostspeed.CLOCK


def import_pairalg():
    sys.path.insert(0, SRC)
    try:
        import pairalg
    except ImportError as exc:
        sys.exit("perfbench: cannot import pairalg from %s: %s" % (SRC, exc))
    if not os.path.abspath(pairalg.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: pairalg resolved outside %s" % SRC)


def load_spec(workload):
    with open(os.path.join(HERE, "sizes.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def setup(workload, seed, workdir):
    """Import pairalg, then generate, write and parse the inputs."""
    import_pairalg()
    import workloads
    spec = load_spec(workload)
    files = workloads.Files(workdir)
    build, ladder = workloads.BUILDERS[workload]
    return build(random.Random(seed), files, spec), ladder(files), spec


def setup_seconds(args):
    """Median set-up time over fresh interpreters, each scaled by the
    reference kernel timed in that interpreter before and after set-up."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            sys.exit("perfbench: set-up failed:\n" + done.stderr)
        took, before, after = map(float, done.stdout.split()[-3:])
        times.append(took * hostspeed.scale(before, after))
    return statistics.median(times)


class Runner:
    """Runs jobs one after another, checks answers, keeps the tallies."""

    def __init__(self, workloads, tracer=None):
        self.w = workloads
        self.tracer = tracer
        self.times = {}
        self.broken = set()
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.group_busy = Counter()
        self.unexpected = []
        self.verified = {}

    def run(self, job):
        if self.tracer is not None:
            self.tracer.job = job.key
        before = hostspeed.sample()
        start = CLOCK()
        try:
            value, error = job.call(), None
        except Exception as exc:  # a crash is a failed operation, not the end
            value, error = None, exc
        took = CLOCK() - start
        after = hostspeed.sample()
        if self.tracer is not None:
            self.tracer.job = None
            if isinstance(value, self.w.CliResult):
                self.tracer.count("cli.bytes_out", len(value.out) + len(value.err))
        self.attempted += 1
        self.busy += took
        self.group_busy[job.group] += took
        follow = []
        if error is None:
            try:
                follow = self.check(job, value)
            except self.w.Mismatch as exc:
                error = exc
        self.times.setdefault(job.key, []).append(
            took * hostspeed.scale(before, after))
        if error is not None:
            self.broken.add(job.key)
            self.failed += 1
            text = (str(error) if isinstance(error, self.w.Mismatch)
                    else "%s: %s" % (type(error).__name__, error))
            if not (job.known and job.known in text):
                self.unexpected.append((job.key, text))
        for f in follow:
            self.run(f)

    def latencies(self):
        """Time of each job that never failed, and the job rate: those jobs
        per second of the summed times of all jobs. A job's time is the
        median over its repetitions of its scaled time."""
        med = {k: statistics.median(v) for k, v in self.times.items()}
        done = [t for k, t in med.items() if k not in self.broken]
        return done, len(done) / sum(med.values())

    def check(self, job, value):
        """Check an answer; a CLI answer seen and verified before is
        compared with that one instead."""
        if isinstance(value, self.w.CliResult):
            seen = self.verified.get(job.key)
            if seen is not None and seen[0] == (value.code, value.out):
                return seen[1]
            follow = job.check(value) or []
            self.verified[job.key] = ((value.code, value.out), follow)
            return follow
        return job.check(value) or []


def run_cycles(runner, jobs, seconds, least=MIN_CYCLES, after_cycle=None):
    """Whole cycles of the job list until `seconds` of job time, and at
    least `least` cycles so that every job is repeated."""
    cycles = 0
    while cycles < least or (runner.busy < seconds
                             and time.perf_counter() - T0 < WALL_LIMIT_S):
        # keep the benchmark's own retained state (inputs, check caches)
        # out of the collector's scans during the jobs
        gc.collect()
        gc.freeze()
        for job in jobs:
            runner.run(job)
        cycles += 1
        if after_cycle is not None:
            after_cycle()
    return cycles


def capacity(runner, attempt, sizes, budget):
    """Largest ladder size answered within the budget, log-log interpolated
    between the last size within it and the first one over it. Each size
    takes the median of a few scaled timings; a size whose work is a list of
    calls has each call scaled on its own. A refusal (exception or exit code
    other than 0/1) ends the ladder at the last answered size."""
    last = None
    for size in sizes:
        call, check = attempt(size)
        steps = call if isinstance(call, list) else [call]
        times = []
        for _ in range(LADDER_REPEATS):
            results = []
            took = 0.0
            for step in steps:
                before = hostspeed.mean(LADDER_REFS)
                start = CLOCK()
                try:
                    results.append(step())
                except Exception:  # refused, e.g. a search cap
                    return last[0] if last else 0
                raw = CLOCK() - start
                took += raw * hostspeed.scale(before, hostspeed.mean(LADDER_REFS))
            times.append(took)
            if took > 2 * budget:
                break
        took = statistics.median(times)
        value = results if isinstance(call, list) else results[0]
        if any(isinstance(r, runner.w.CliResult) and r.code not in (0, 1)
               for r in results):
            return last[0] if last else 0
        try:
            check(value)
        except runner.w.Mismatch as exc:
            runner.unexpected.append(("ladder %d" % size, str(exc)))
            return last[0] if last else 0
        if took > budget:
            if last is None:
                return size * budget / took
            (s0, t0), (s1, t1) = last, (size, took)
            if t1 <= t0:
                return s0
            frac = (math.log(budget) - math.log(t0)) / (math.log(t1) - math.log(t0))
            return math.exp(math.log(s0) + frac * (math.log(s1) - math.log(s0)))
        last = (size, took)
    return last[0]


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, jobs, ladder, spec, runner):
    cycles = run_cycles(runner, jobs, args.seconds)
    lat, rate = runner.latencies()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("%d cycles, %d completed jobs per cycle" % (cycles, len(lat)),
          file=sys.stderr)
    ladder_spec = spec["ladder"]
    cap = capacity(runner, ladder, ladder_spec["sizes"], ladder_spec["budget_s"])
    return {
        "jobs_per_s": metric(rate, "1/s"),
        "job_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "job_p90_ms": metric(statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "setup_s": metric(setup_seconds(args), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "fail_ratio": metric(runner.failed / runner.attempted, "ratio"),
        "capacity": metric(cap, "size"),
    }


def traced(args, jobs, runner):
    """Untraced cycles for half of --seconds; one counting cycle with every
    wrapper; then cycles with spans and timed counters only, for the other
    half and at least two. Counts come from the counting cycle, times per
    layer are the least over the span cycles."""
    import tracing
    import workloads
    run_cycles(runner, jobs, args.seconds / 2)
    plain = runner.latencies()[1]
    tracer = tracing.Tracer()

    def traced_cycles(hot, least, seconds, after_cycle=None):
        r = Runner(workloads, tracer)
        r.verified = runner.verified
        tracer.install(hot)
        try:
            run_cycles(r, jobs, seconds, least, after_cycle)
        finally:
            tracer.uninstall()
        runner.attempted += r.attempted
        runner.failed += r.failed
        runner.unexpected += r.unexpected
        return r.latencies()[1]

    counting = traced_cycles(True, 1, 0)
    counts = tracer.metrics()
    tracer.reset()
    tracer.spans.clear()
    cycles = []
    report = io.StringIO()

    def snapshot():
        cycles.append(tracer.metrics())
        report.seek(0)
        report.truncate()
        tracer.report(report)
        tracer.reset()

    with_trace = traced_cycles(False, 2, args.seconds / 2, snapshot)
    metrics = {name: (metric(min(c[name]["value"] for c in cycles), "s")
                      if m["unit"] == "s" else m)
               for name, m in counts.items()}
    metrics["trace.jobs_per_s"] = metric(with_trace, "1/s")
    metrics["trace.untraced_jobs_per_s"] = metric(plain, "1/s")
    metrics["trace.overhead_ratio"] = metric(plain / with_trace - 1, "ratio")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-%d.jsonl" % (args.workload, args.seed))
    tracer.dump(path)
    print("spans of the last traced cycle by self time (%d spans of %d "
          "cycles in %s):" % (len(tracer.spans), len(cycles),
                              os.path.relpath(path, ROOT)), file=sys.stderr)
    sys.stderr.write(report.getvalue())
    print("tracing overhead: %.1f%% with spans (%.2f vs %.2f jobs/s), %.1f%% "
          "in the counting cycle" % (100 * (plain / with_trace - 1), with_trace,
                                     plain, 100 * (plain / counting - 1)),
          file=sys.stderr)
    if args.workload == "constructions":
        reanchor_rows()
    return metrics


def reanchor_rows():
    """Baseline rows of the roadmap, untraced, for orientation."""
    import workloads
    from pairalg import congruences, fractions
    for n in (20, 30, 40):
        p = workloads.nmax_pair(n)
        seeds = [(p.carrier.index("2"), p.carrier.index(str(n)))]
        start = time.perf_counter()
        congruences.generate_congruence(p, seeds)
        print("generate_congruence nmax_trunc(%d) seed (2, top): %.3f s"
              % (n, time.perf_counter() - start), file=sys.stderr)
    for q in (5, 7, 11):
        p = workloads.fq_pair(q)
        start = time.perf_counter()
        fractions.build_fraction_pair(p, list(range(1, q)))
        print("build_fraction_pair F_%d at F_%d^*: %.4f s"
              % (q, q, time.perf_counter() - start), file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["lattice", "constructions", "symbolic"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up in this fresh interpreter and print the time")
    args = ap.parse_args()

    workdir = os.path.join(
        OUT, "work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        if args.setup_only:
            start = CLOCK()
            for _ in range(8):  # let the interpreter specialise the kernel
                hostspeed.kernel()
            before = statistics.median(hostspeed.sample() for _ in range(3))
            skip = CLOCK() - start
        jobs, ladder, spec = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            # CPU time since the interpreter started, less the reference
            # runs, and the reference before and after set-up
            took = CLOCK() - skip
            after = statistics.median(hostspeed.sample() for _ in range(3))
            print("%.6f %.9f %.9f" % (took, before, after))
            return
        import workloads
        runner = Runner(workloads)
        if args.trace:
            metrics = traced(args, jobs, runner)
        else:
            metrics = measure(args, jobs, ladder, spec, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, text in runner.unexpected[:20]:
        print("UNEXPECTED %s: %s" % (key, text), file=sys.stderr)
    print("busy by job group: " + ", ".join(
        "%s %.2fs" % kv for kv in sorted(runner.group_busy.items())),
        file=sys.stderr)
    print(json.dumps({"correct": not runner.unexpected,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
