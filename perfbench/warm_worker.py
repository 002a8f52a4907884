"""Warm-solve server for the warm_solve workload.

Usage: warm_worker.py K N WARMUP_JSON [--setup-only]

Imports the package and runs one untimed warm-up solve (the set-up), then
prints "ready".  Unless --setup-only is given it then reads
{"seconds": s, "pairs": [[via, a, b], ...]} from stdin and solves the pairs
in order, one at a time and cycling through the list, until s seconds have
passed.  Each solve_domino call is timed alone, and the machine-speed
probe (probe.py) runs before the loop, after every PROBE_EVERY solves and
after the loop, off the solves' clocks.  A solve that raises counts in
"errors" and has the answer null.  The answers of the first pass go to
stdout with the times; the benchmark checks them afterwards, off the
clock.  A later pass must repeat the first pass's answer exactly; each
that does not is counted in "repeat_mismatches".
"""

import json
import sys
import time

from probe import probe_seconds

PROBE_EVERY = 100           # solves between two machine-speed probes


def main():
    k, n, warmup = int(sys.argv[1]), int(sys.argv[2]), json.loads(sys.argv[3])
    from dominolattice import BoxSpec, solve_domino

    spec = BoxSpec(k, n)
    via, a, b = warmup
    solve_domino(spec, tuple(a), tuple(b), via=via)
    print("ready", flush=True)
    if "--setup-only" in sys.argv[4:]:
        return
    job = json.load(sys.stdin)
    pairs = [(via, tuple(a), tuple(b)) for via, a, b in job["pairs"]]
    clock = time.perf_counter
    times, first, mismatches, errors = [], [], 0, 0
    probes = [probe_seconds()]
    start = clock()
    stop = start + job["seconds"]
    i = 0
    while True:
        via, a, b = pairs[i % len(pairs)]
        t0 = clock()
        try:
            sol = solve_domino(spec, a, b, via=via)
        except Exception:       # a raising solve is a failed op, not a crash
            sol = None
            errors += 1
        t1 = clock()
        times.append(t1 - t0)
        if i < len(pairs):
            first.append(sol)
        elif sol != first[i % len(pairs)]:
            mismatches += 1
        i += 1
        if t1 >= stop:
            break
        if i % PROBE_EVERY == 0:
            probes.append(probe_seconds())
    loop_seconds = clock() - start
    probes.append(probe_seconds())
    json.dump({
        "loop_seconds": loop_seconds,
        "times": times,
        "probe_every": PROBE_EVERY,
        "probes": probes,
        "repeat_mismatches": mismatches,
        "errors": errors,
        "answers": [None if s is None else
                    [s.distance, sorted(s.per_color.items()), s.waypoint,
                     s.path.vertices, s.path.steps] for s in first],
    }, sys.stdout)


if __name__ == "__main__":
    main()
