"""Benchmark of the dominolattice solve and verify paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Workloads (closed loops, one client, never two children at once):

  warm_solve  one long-lived worker process answers seeded solve_domino
              requests at box (7,16); set-up (import plus the first solve,
              which builds the Domino lattice) is timed separately.
  cold_solve  fresh `dominolattice solve --format json` processes cycling
              over the boxes (5,12), (6,14), (7,16).
  verify      fresh `verify` processes for the structure, iso, solver and
              fundamental suites plus the `lattice --family A` JSON export.

Every answer is checked off the clock against lattices the benchmark builds
before the timed loop; a wrong answer, a raise or a non-zero exit is a
failed op.  Times are reported at reference speed: scaled by a
machine-speed probe that runs between ops (see probe.py); raw times are in
the result file.  With --trace 0 the last stdout line is the JSON result
with the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of the traced census (see census.py).  A result file with the run
context goes to perfbench/out/.  The exit code is 0 only when every answer
checked out.
"""

import argparse
import json
import math
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import Checker, ExportChecker, all_passed  # noqa: E402
from common import (COLD_GRID, HASH_SEED, OUT, ROOT, WARM_BOX, Child,  # noqa: E402
                    cli_argv, fmt_shape, import_seconds, pairs_for,
                    parse_shape, percentile, run_child, run_context, seeded,
                    use_source_tree, verify_commands)
from probe import NOMINAL_S, probe_seconds  # noqa: E402

WORKLOADS = ("warm_solve", "cold_solve", "verify")
BUDGET_S = 165              # whole run, set-up and checks included
SETUP_REPEATS = 3           # warm_solve set-ups (each builds D(7,16))
IMPORT_REPEATS = 7          # process-start set-ups of the CLI workloads
WARM_PAIRS = 4000           # the warm loop cycles through this many requests
BFS_SOURCES = 8             # warm requests also checked against BFS
TAIL_Q = 99                 # needs at least 1000 samples for 10 beyond it


class Run:
    """Op log of one timed run: per-class latencies, child RSS, failures.

    Each op's latency is kept raw and scaled to reference speed with the
    machine-speed probe (see probe.py): in the warm loop by the probes
    either side of its batch, elsewhere by the median probe of the run.
    """

    def __init__(self):
        self.raw = {}            # class -> [seconds]
        self.latency = {}        # class -> [seconds at reference speed]
        self.probes = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.rss_mb = 0.0
        self.setup = []
        self.loop_seconds = 0.0

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def op(self, cls, seconds, speed):
        self.attempted += 1
        self.raw.setdefault(cls, []).append(seconds)
        self.latency.setdefault(cls, []).append(seconds * speed)

    def probe(self):
        self.probes.append(probe_seconds())

    @property
    def speed(self):
        """Scale factor from this run's raw seconds to reference-speed seconds."""
        return NOMINAL_S / statistics.median(self.probes)


# -- warm_solve ---------------------------------------------------------------


def warm_solve(seed, seconds, deadline):
    run = Run()
    checker = Checker(*WARM_BOX)
    pairs = pairs_for(checker, seed, "warm", WARM_PAIRS)
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "warm_worker.py")
    warmup = json.dumps(pairs[0])
    job = json.dumps({"seconds": seconds, "pairs": pairs}).encode()
    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        argv = [sys.executable, worker, *map(str, WARM_BOX), warmup]
        child = Child(argv if last else argv + ["--setup-only"],
                             deadline, stdin_data=job if last else None)
        ready = child.readline()
        run.setup.append(time.perf_counter() - child.start)
        out, code, _, rss = child.finish()
        run.rss_mb = max(run.rss_mb, rss)
        if ready.strip() != b"ready" or code != 0:
            raise RuntimeError(f"warm worker failed (exit {code})")
    doc = json.loads(out)
    run.loop_seconds = doc["loop_seconds"]
    run.probes, every = doc["probes"], doc["probe_every"]
    wrong = set()
    for i, answer in enumerate(doc["answers"]):
        via, a, b = pairs[i]
        a, b = tuple(a), tuple(b)
        problem = "solve raised" if answer is None else checker.check(via, a, b, *answer)
        if problem is None and i < BFS_SOURCES:
            problem = checker.bfs_check(a, b, answer[0])
        if problem:
            wrong.add(i)
            run.fail(problem)
    for i, dt in enumerate(doc["times"]):
        j = i // every
        run.op("solve", dt, 2 * NOMINAL_S / (run.probes[j] + run.probes[j + 1]))
        if i % len(pairs) in wrong and i >= len(pairs):
            run.failed += 1
    for _ in range(doc["repeat_mismatches"]):
        run.fail("a repeated request got a different answer")
    return run


# -- cold_solve ---------------------------------------------------------------


def cold_solve(seed, seconds, deadline):
    run = Run()
    checkers = {box: Checker(*box) for box in COLD_GRID}
    pairs = {box: pairs_for(c, seed, f"cold{box}", 1000) for box, c in checkers.items()}
    run.setup = import_seconds(deadline, IMPORT_REPEATS)[1]
    ops = []
    start = time.perf_counter()
    cycle = 0
    while time.perf_counter() - start < seconds:
        for box in COLD_GRID:
            via, a, b = pairs[box][cycle % len(pairs[box])]
            run.probe()
            out, code, dt, rss = run_child(
                cli_argv("solve", "-k", box[0], "-N", box[1], "--from", fmt_shape(a),
                         "--to", fmt_shape(b), "--via", via, "--format", "json"),
                deadline)
            run.rss_mb = max(run.rss_mb, rss)
            ops.append((box, via, a, b, out, code, dt))
        cycle += 1
    run.probe()
    run.loop_seconds = time.perf_counter() - start
    for box, via, a, b, out, code, dt in ops:
        run.op(f"k{box[0]}n{box[1]}", dt, run.speed)
        problem = f"solve exited {code}" if code != 0 else None
        if problem is None:
            try:
                doc = json.loads(out)
                k = box[0]
                answer = (doc["distance"], [(int(c), n) for c, n in doc["per_color"].items()],
                          parse_shape(doc["waypoint"], k),
                          [parse_shape(p, k) for p in doc["path"]],
                          [(s["color"], s["direction"]) for s in doc["steps"]])
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable solve output: {exc}"
        if problem is None:
            checker = checkers[box]
            problem = (checker.check(via, a, b, *answer)
                       or checker.bfs_check(a, b, answer[0]))
        if problem:
            run.fail(f"{box}: {problem}")
    return run


# -- verify -------------------------------------------------------------------


def verify(seed, seconds, deadline):
    run = Run()
    export = ExportChecker()
    rng = seeded(seed, "verify")
    run.setup = import_seconds(deadline, IMPORT_REPEATS)[1]
    ops = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for name, args in verify_commands(rng):
            run.probe()
            out, code, dt, rss = run_child(cli_argv(*args), deadline)
            run.rss_mb = max(run.rss_mb, rss)
            ops.append((name, args, out, code, dt))
    run.probe()
    run.loop_seconds = time.perf_counter() - start
    for name, args, out, code, dt in ops:
        run.op(name, dt, run.speed)
        if code != 0:
            run.fail(f"{' '.join(map(str, args))} exited {code}")
            continue
        try:
            doc = json.loads(out)
            problem = export.check(doc) if name == "export" else (
                None if all_passed(doc) else "a check did not pass")
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc}"
        if problem:
            run.fail(f"{' '.join(map(str, args))}: {problem}")
    return run


# -- metrics --------------------------------------------------------------------


CLASS_NAMES = {
    "warm_solve": {"solve": "solve"},
    "cold_solve": {f"k{k}n{n}": f"cold_solve_s.k{k}n{n}" for k, n in COLD_GRID},
    "verify": {"structure": "verify_s.structure", "iso": "verify_s.iso",
               "solver": "verify_s.solver", "fundamental": "verify_s.fundamental",
               "export": "lattice_export_s"},
}


def end_to_end(workload, run):
    """The BENCHMARK.json end-to-end metrics plus a per-class breakdown.

    Every time is in reference-speed seconds (see Run).  latency_p50_ms is
    the median op latency; in the process workloads, whose ops fall in
    classes of very different size, it is the geometric mean of the
    per-class medians, so that each class weighs the same.  latency_tail_ms
    is the p99 solve in warm_solve (fixed, so that runs with different
    sample counts compare) and the slowest class's median in the process
    workloads, which have a handful of ops per class.  ops_per_s counts
    completed correct ops per second of op time.
    """
    medians = {c: statistics.median(v) for c, v in run.latency.items()}
    done = run.attempted - run.failed
    if workload == "warm_solve":
        times = sorted(run.latency["solve"])
        p50, tail = statistics.median(times), percentile(times, TAIL_Q)
        beyond = sum(1 for t in times if t > tail)
    else:
        p50 = math.exp(statistics.fmean(math.log(m) for m in medians.values()))
        tail = max(medians.values())
        beyond = None
    metrics = {
        "setup_s": (statistics.median(run.setup) * run.speed, "s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "ops_per_s": (done / sum(map(sum, run.latency.values())), "1/s"),
        "peak_rss_mb": (run.rss_mb, "MB"),
    }
    detail = {
        "classes": {CLASS_NAMES[workload].get(c, c):
                    {"median_s": medians[c], "samples": len(run.latency[c]),
                     "raw_median_s": statistics.median(run.raw[c])}
                    for c in sorted(medians)},
        "samples": run.attempted,
        "op_times_s": run.latency,
        "raw_op_times_s": run.raw,
        "probes_s": run.probes,
        "raw_setup_samples_s": run.setup,
        "speed": run.speed,
        "failed_frac": run.failed / run.attempted,
        "loop_seconds": run.loop_seconds,
    }
    if workload == "warm_solve":
        detail["tail_percentile"] = TAIL_Q
        detail["samples_beyond_tail"] = beyond
    return metrics, detail


def report_lines(workload, metrics, detail):
    """Per-command names (solve_p50_ms, cold_solve_s.k7n16, ...) for people."""
    lines = [f"# {workload}: {detail['samples']} ops, "
             f"failed_frac {detail['failed_frac']:.6g} (ratio); times at reference "
             f"speed, this run's scale factor {detail['speed']:.4f}"]
    if workload == "warm_solve":
        lines.append(f"#   solve_p50_ms {metrics['latency_p50_ms'][0]:.4f} ms")
        lines.append(f"#   solve_tail_ms {metrics['latency_tail_ms'][0]:.4f} ms "
                     f"(p{detail['tail_percentile']}, {detail['samples_beyond_tail']} beyond)")
        lines.append(f"#   solves_per_s {metrics['ops_per_s'][0]:.2f} 1/s")
    else:
        for name, cls in detail["classes"].items():
            lines.append(f"#   {name} {cls['median_s']:.4f} s (median of {cls['samples']}; "
                         f"raw {cls['raw_median_s']:.4f} s)")
    for name in ("setup_s", "peak_rss_mb"):
        value, unit = metrics[name]
        lines.append(f"#   {name} {value:.4f} {unit}")
    return lines


def write_result(workload, seed, trace, context, result, detail):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"BENCH_{workload}_seed{seed}_trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"context": context, "result": result, "detail": detail},
                  fh, indent=1, sort_keys=True, default=str)
    return path


def pin_to_one_cpu():
    """Run this process, its probes and every child on one CPU.

    The probe then measures the CPU the ops run on; on a shared host the
    other CPU can be far busier.  Only one child runs at a time, and the
    package is single-threaded, so no op waits for the CPU it is given.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    use_source_tree()
    pin_to_one_cpu()
    load = os.getloadavg()
    deadline = time.monotonic() + BUDGET_S
    context = run_context(args.workload, args.seed, args.trace, load)
    if args.trace:
        import census
        metrics, attempted, failed, detail = census.run(args.workload, args.seed, deadline)
        lines = [f"# traced census for {args.workload}: {attempted} ops, {failed} failed"]
    else:
        run = {"warm_solve": warm_solve, "cold_solve": cold_solve,
               "verify": verify}[args.workload](args.seed, args.seconds, deadline)
        metrics, detail = end_to_end(args.workload, run)
        attempted, failed = run.attempted, run.failed
        detail["errors"] = run.errors
        lines = report_lines(args.workload, metrics, detail)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    path = write_result(args.workload, args.seed, args.trace, context, result, detail)
    for error in detail.get("errors", []):
        print(f"# FAILED: {error}")
    print("\n".join(lines))
    print(f"# result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
