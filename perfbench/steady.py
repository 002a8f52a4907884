"""Steadiness self-check: repeat a workload over seeds, compare spreads to bounds.

    python3 perfbench/steady.py --workload NAME [--seeds 1-10] [--seconds S]
                                [--record FILE]

Runs `run.py` once per seed, one run at a time, and prints for every
end-to-end metric of BENCHMARK.json the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound.  A spread above a third of its bound is flagged; the exit
code is 1 when a run fails or a spread other than setup_s exceeds its bound.
--record writes the values and their summary to FILE as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--record", metavar="FILE")
    args = parser.parse_args()
    values = {m["name"]: [] for m in bench["end_to_end"]}
    ok = True
    for seed in args.seeds:
        argv = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            ok = False
            continue
        result = json.loads(last)
        ok &= result["correct"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()),
              flush=True)
    print(f"{'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    summary = {}
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        if len(vals) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        summary[metric["name"]] = {"unit": metric["unit"], "values": vals, "median": med,
                                   "q1": q1, "q3": q3, "spread": spread,
                                   "bound": metric["bound"]}
        flag = ""
        if spread > metric["bound"]:
            flag = "OVER BOUND" if metric["name"] != "setup_s" else "over bound (exempt)"
            ok &= metric["name"] == "setup_s"
        elif spread > metric["bound"] / 3:
            flag = "above a third of the bound"
        print(f"{metric['name']:18} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.4f} {metric['bound']:6.2f} {flag}")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "seconds": args.seconds, "passed": ok,
                       "metrics": summary}, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
