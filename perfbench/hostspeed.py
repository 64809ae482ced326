"""Host-speed reference: a fixed pure-Python kernel timed next to each job.

The benchmark runs on a shared virtual machine whose speed drifts: a fixed
loop's CPU time changes by up to 1.8x from one second to the next, and for
tens of seconds at a time, while the machine's steal counter stays at zero
(other tenants share the physical cores and caches). No amount of repetition
inside one run averages that out, so every timing is taken relative to this
kernel: the job's CPU time divided by the mean CPU time of a kernel run
right before and one right after it, times ``REF_MS``. Reported times are
therefore milliseconds at the host speed at which the kernel takes
``REF_MS`` -- about its time on an idle 2-vCPU KVM guest of an Intel Xeon
(Emerald Rapids) host under CPython 3.11.

The kernel calls nothing of pairalg, so a change to the library moves the
job times and not the reference. It does the kind of work pairalg's finite
carriers do -- operation-table lookups in nested lists, pairs of elements
hashed into a set and a dict, as in a congruence closure -- so that it slows
down with the host as the jobs do. Of the kernels tried, this one tracked
the jobs best: with the host's raw job times spreading by 17-30% (quartile
distance over median) between 15-20 s windows, the scaled ones spread by
1-5%."""

import time

CLOCK = time.process_time
REF_MS = 0.26

_N = 48
_TABLE = [[(i * j + 3 * i + j) % _N for j in range(_N)] for i in range(_N)]


def kernel():
    t = _TABLE
    seen = set()
    count = {}
    for a in range(_N):
        row = t[a]
        for b in range(0, _N, 2):
            p = (row[b], t[b][a] ^ a)
            if p not in seen:
                seen.add(p)
            count[p] = count.get(p, 0) + 1
    return len(seen)


def sample():
    """CPU seconds of one kernel run."""
    start = CLOCK()
    kernel()
    return CLOCK() - start


def mean(k):
    """Mean CPU seconds of k kernel runs."""
    return sum(sample() for _ in range(k)) / k


def scale(before, after):
    """Factor that turns CPU seconds into reference seconds, from the
    kernel's time just before and just after the timed work."""
    return REF_MS * 1e-3 * 2 / (before + after)
