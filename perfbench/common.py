"""Shared pieces of the benchmark: paths, child environment, seeded inputs.

Everything a run feeds to the program is derived from the workload seed by
the functions here, never from the program's own enumeration order, so the
same seed gives the same inputs on every commit.
"""

import hashlib
import os
import random
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

WARM_BOX = (7, 16)
COLD_GRID = ((5, 12), (6, 14), (7, 16))
EXPORT_BOX = (5, 12)
FUNDAMENTAL_SEED = 0
EXTREME_EVERY = 10          # one pair in ten has a Domino extreme as an endpoint
HASH_SEED = "0"             # frozenset iteration in the poset code follows it


def child_env():
    """Environment for every child: the checked-out source and a fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def use_source_tree():
    """Import the package from the checkout, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "dominolattice", "__init__.py")):
        raise SystemExit(f"benchmark: no package source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def shapes(k, n):
    """Every k x (n-k) partition as a tuple, in the benchmark's own fixed order."""
    out = []

    def fill(prefix, bound):
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        for p in range(bound, -1, -1):
            fill(prefix + [p], p)

    fill([], n - k)
    return out


def make_pairs(rng, box_shapes, bottom, top, count):
    """Seeded (via, a, b) solve requests.

    Routes alternate join/meet; every EXTREME_EVERY-th request has the
    Domino minimum or maximum as one endpoint.
    """
    pairs = []
    for i in range(count):
        via = "join" if i % 2 == 0 else "meet"
        a, b = rng.choice(box_shapes), rng.choice(box_shapes)
        if i % EXTREME_EVERY == EXTREME_EVERY - 1:
            a = rng.choice((bottom, top))
            if rng.random() < 0.5:
                a, b = b, a
        pairs.append((via, a, b))
    return pairs


def pairs_for(checker, seed, stream, count):
    """Requests for the checker's box; its lattice supplies the two extremes."""
    return make_pairs(seeded(seed, stream), shapes(checker.k, checker.n),
                      checker.bottom, checker.top, count)


def verify_commands(rng):
    """One pass of the verify workload; the solver suite's seed comes from rng.

    The fundamental suite's cost depends on its seed far more than on the
    program: the random posets it draws made one run take 1.0 s and
    another 2.9 s.  Its seed is therefore fixed, so that the workload seed
    does not set that command's time.
    """
    k, n = EXPORT_BOX
    return [
        ("structure", ("verify", "--suite", "structure", "-k", 4, "-N", 10)),
        ("iso", ("verify", "--suite", "iso", "-k", 6, "-N", 14)),
        ("solver", ("verify", "--suite", "solver", "-k", 3, "-N", 8,
                    "--seed", rng.randrange(1 << 31))),
        ("fundamental", ("verify", "--suite", "fundamental",
                         "--seed", FUNDAMENTAL_SEED)),
        ("export", ("lattice", "--family", "A", "-k", k, "-N", n)),
    ]


def fmt_shape(parts):
    return ",".join(str(p) for p in parts)


def parse_shape(text, k):
    parts = [int(p) for p in text.split(",") if p != ""]
    return tuple(parts + [0] * (k - len(parts)))


class Child:
    """One child process, timed from spawn to exit, with its own peak RSS.

    The child is reaped with os.wait4, so the peak RSS is the child's own
    and not the running maximum over every child that getrusage reports.
    A child still running at its deadline is killed and reported as failed.
    """

    def __init__(self, argv, deadline, stdin_data=None):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stdin=subprocess.PIPE if stdin_data is not None else subprocess.DEVNULL)
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                     self.proc.kill)
        self.timer.start()
        self.stdin_data = stdin_data

    def readline(self):
        return self.proc.stdout.readline()

    def finish(self):
        """Feed stdin, drain stdout, reap; returns (stdout, exit code, seconds, rss MB)."""
        try:
            if self.stdin_data is not None:
                writer = threading.Thread(target=self._feed)
                writer.start()
            out = self.proc.stdout.read()
            if self.stdin_data is not None:
                writer.join()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            self.timer.cancel()
        seconds = time.perf_counter() - self.start
        code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = code
        self.proc.stdout.close()
        return out, code, seconds, usage.ru_maxrss / 1024.0

    def _feed(self):
        try:
            self.proc.stdin.write(self.stdin_data)
            self.proc.stdin.close()
        except BrokenPipeError:
            pass


def run_child(argv, deadline):
    return Child(argv, deadline).finish()


def cli_argv(*args):
    return [sys.executable, "-m", "dominolattice.cli", *[str(a) for a in args]]


def import_seconds(deadline, repeats):
    """Median wall time of fresh processes that only import the package."""
    times = []
    for _ in range(repeats):
        _, code, seconds, _ = run_child(
            [sys.executable, "-c", "import dominolattice.cli"], deadline)
        if code != 0:
            raise RuntimeError("importing the package failed")
        times.append(seconds)
    return statistics.median(times), times


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list, q in [0, 100]."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def run_context(workload, seed, trace, load_at_start):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "commit": _commit(),
        "source_digest": source_digest(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "dominolattice")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def seeded(seed, stream):
    """Independent generator per input stream, all derived from the workload seed."""
    return random.Random(f"{seed}:{stream}")
