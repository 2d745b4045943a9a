#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

For each workload this runs the command in BENCHMARK.json with its
run_seconds and --trace 0, once per seed. For every end-to-end metric it
prints the median of the runs and the spread: the distance between the first
and third quartile (Python's ``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound. It also reports whether the
exact counts of repeated runs of one seed were identical.

Run from the repository root, for example:

    python3 perfbench/spread.py --workloads owner_upload --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --repeat-seed 3 --save .perfbench/set1.json
    python3 perfbench/spread.py --seeds 1-10 --against .perfbench/set1.json

``--save`` writes every metric's median; ``--against`` compares this set's
medians with a saved set's and flags a metric whose median got worse by more
than its bound. The exit code is 1 when a run failed a check or a gated
metric is outside its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2]), wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def worse_by(new, old, better):
    """How much worse `new` is than `old`, as a share of `old`."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="",
                    help="comma-separated (default: every workload)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--repeat-seed", type=int, default=0,
                    help="also run this seed twice more, to check exact counts")
    ap.add_argument("--save", default="", help="write this set's medians here")
    ap.add_argument("--against", default="", help="compare medians with a saved set")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    gated = {m["name"]: m for m in bench["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    before = {}
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
    saved = {}

    ok = True
    for workload in workloads:
        results = []
        counts = {}
        for seed in seeds + [args.repeat_seed] * (2 if args.repeat_seed else 0):
            result, detail, wall = run_once(command, workload, seed, seconds)
            calib = detail["host"]
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"failed={result['failed']}/{result['attempted']}, calibration "
                  f"{calib['calibration_start_ns_per_call']:.0f}->"
                  f"{calib['calibration_end_ns_per_call']:.0f} ns/call", flush=True)
            ok &= result["correct"] and result["failed"] == 0
            counts.setdefault(seed, []).append(detail["run"].get("counts"))
            if seed in seeds and len(counts[seed]) == 1:
                results.append((result, detail))
        print(f"\n{workload}: {len(results)} runs of {seconds} s")
        print(f"  {'metric':<36} {'median':>12} {'spread':>8} {'bound':>6}")
        medians = saved.setdefault(workload, {})
        for name, metric in gated.items():
            values = [r["metrics"][name]["value"] for r, _ in results]
            bound = metric["bound"]
            med, sp = spread(values)
            medians[name] = med
            flag = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "TOO NOISY")
            ok &= sp <= bound
            old = before.get(workload, {}).get(name)
            if old:
                worse = worse_by(med, old, metric["better"])
                flag += f", {worse:+.3f} vs saved" + (" WORSE" if worse > bound else "")
                ok &= worse <= bound
            print(f"  {name:<36} {med:>12.5g} {sp:>8.3f} {bound!s:>6} {flag}")
        for seed, seen in counts.items():
            if len(seen) > 1:
                same = all(c == seen[0] for c in seen)
                print(f"  exact counts for seed {seed} over {len(seen)} runs: "
                      f"{'identical' if same else 'DIFFER'}")
                if not same:
                    for key in seen[0]:
                        vals = [c.get(key) for c in seen]
                        if len(set(map(json.dumps, vals))) > 1:
                            print(f"    {key}: {vals}")
        print()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
