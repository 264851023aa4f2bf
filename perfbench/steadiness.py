#!/usr/bin/env python3
"""Measures the benchmark's own run-to-run spread, to set its bounds.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2]
        [--workloads run16_snug,fig9_cold] [--seconds S] [--seed-base 1]

Runs `--sets` interleaved sets of `--runs` runs of each workload (run i
of every set uses seed seed-base + i, so the sets repeat each other), the
way the acceptance check does.  For every end-to-end metric of every
workload it prints, per set, the median and the quartiles
(statistics.quantiles(values, n=4)) with the spread (Q3 - Q1) / median,
and the median-to-median change from set A to set B in the metric's
worse direction, each against the metric's bound in BENCHMARK.json.
Every spread, setup_s's too, must stay within its bound and should stay
under a third of it; the median change must stay within the bound.
Raw results are saved under .bench_build/steadiness/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:"
                           f"\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed its gate:\n"
                           + "\n".join(lines[-8:]))
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in names:
            ap.error(f"unknown workload {w}")
    if args.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two values)")

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {}  # (set, workload, metric) -> [value, ...]
    started = time.time()
    for i in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                r = run_once(w, args.seed_base + i, args.seconds)
                for name, m in r["metrics"].items():
                    values.setdefault((s, w, name), []).append(m["value"])
                print(f"[{time.time() - started:7.1f}s] set {'AB'[s]} run "
                      f"{i + 1}/{args.runs} {w}", file=sys.stderr)

    os.makedirs(os.path.join(ROOT, ".bench_build", "steadiness"),
                exist_ok=True)
    raw = os.path.join(ROOT, ".bench_build", "steadiness",
                       time.strftime("%Y%m%d-%H%M%S") + ".json")
    with open(raw, "w") as f:
        json.dump({"|".join(map(str, k)): v for k, v in values.items()}, f,
                  indent=1)

    ok = True
    print(f"{'workload/metric':34s} {'set':3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
    for w in workloads:
        for name in sorted({k[2] for k in values if k[1] == w}):
            meta = bounds.get(name)
            if meta is None:
                continue
            bound = meta["bound"]
            meds = []
            for s in range(args.sets):
                med, q1, q3, sp = spread(values[(s, w, name)])
                meds.append(med)
                verdict = ("ok" if sp <= bound / 3 else
                           "within bound" if sp <= bound else "TOO NOISY")
                ok = ok and sp <= bound
                print(f"{w + '/' + name:34s} {'AB'[s]:3s} {med:12.5g} "
                      f"{q1:12.5g} {q3:12.5g} {sp:7.3f} {bound:6.3f}  "
                      f"{verdict}")
            if len(meds) == 2:
                sign = 1.0 if meta["better"] == "lower" else -1.0
                worse = sign * (meds[1] - meds[0]) / meds[0]
                fine = worse <= bound
                ok = ok and fine
                print(f"{'':34s} {'A>B':3s} median change {worse:+.3f} "
                      f"(worse is +) vs bound {bound:.3f}  "
                      f"{'ok' if fine else 'TOO NOISY'}")
    print(f"raw values: {raw}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
