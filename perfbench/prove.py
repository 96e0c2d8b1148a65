#!/usr/bin/env python3
"""Run the benchmark twice over ten seeds and report every metric's spread.

    python3 perfbench/prove.py             # two sets, all workloads
    python3 perfbench/prove.py --record    # + traced runs, write
                                           #   perfbench/recorded.json

For each set, workload and end-to-end metric it prints the median of the
runs and the spread (third minus first quartile, as a share of the median)
next to the metric's bound from BENCHMARK.json, and the same for the raw
(unnormalised) wall and setup times.  Then it prints how far the second
set's medians moved from the first's.  It exits 1 if a spread or a move is
above its bound or a run is not correct.  Runs go seed by seed across the
workloads, so slow phases of a shared machine hit every workload alike.
With --record it also makes one traced run per workload, prints every
per-layer metric, and writes the context and both sets to
perfbench/recorded.json, which run.py reads to check the kernel backend.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import RECORDED, git_rev  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = tuple(range(1, 11))
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = took
    details = os.path.join(HERE, ".work", "results",
                           f"{workload}-seed{seed}-trace{trace}.json")
    with open(details) as fh:
        result["details"] = json.load(fh)
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def raw_values(res: dict) -> dict[str, float]:
    """Median raw wall and setup seconds of one run, before the speed
    meter's normalisation."""
    det = res["details"]
    return {"raw_wall_s": statistics.median(det["worker"]["raw_s"]),
            "raw_setup_s": statistics.median(det["setup_raw_s"])}


def one_set(spec: dict, number: int) -> tuple[dict, bool]:
    seconds = spec["run_seconds"]
    runs = {w: [] for w in WORKLOADS}
    for seed in SEEDS:
        for w in WORKLOADS:
            res = run_once(w, seed, seconds, 0)
            runs[w].append(res)
            vals = " ".join(f"{k}={v['value']:.4g}"
                            for k, v in res["metrics"].items())
            print(f"set {number} {w} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  f"run={res['run_s']:.1f}s {vals}", flush=True)

    summary = {}
    ok = True
    for w in WORKLOADS:
        summary[w] = {"correct": all(r["correct"] for r in runs[w]),
                      "failed": sum(r["failed"] for r in runs[w]),
                      "attempted": sum(r["attempted"] for r in runs[w]),
                      "run_s_max": max(r["run_s"] for r in runs[w]),
                      "metrics": {}, "raw": {}}
        ok &= summary[w]["correct"]
        print(f"\nset {number} {w}: correct={summary[w]['correct']} "
              f"failed_frac={summary[w]['failed']}/{summary[w]['attempted']}"
              f" slowest run {summary[w]['run_s_max']:.1f} s")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            med, sp = spread(values)
            ok &= sp <= m["bound"]
            summary[w]["metrics"][m["name"]] = {
                "unit": m["unit"], "median": med, "spread": sp,
                "bound": m["bound"], "values": values}
            steady = sp < m["bound"] / 3
            print(f"  {m['name']:<14} {med:12.5g} {m['unit']:<5} spread "
                  f"{sp:7.2%}  bound {m['bound']:.0%}"
                  f"{'' if steady else '  (above a third of the bound)'}")
        for name in ("raw_wall_s", "raw_setup_s"):
            values = [raw_values(r)[name] for r in runs[w]]
            med, sp = spread(values)
            summary[w]["raw"][name] = {"median": med, "spread": sp,
                                       "values": values}
            print(f"  {name:<14} {med:12.5g} s     spread {sp:7.2%}"
                  "  (not normalised)")
    return summary, ok


def compare_sets(spec: dict, first: dict, second: dict) -> tuple[dict, bool]:
    """How far each end-to-end median of the second set moved from the
    first, in the metric's worse direction counted against its bound."""
    moves = {}
    ok = True
    print("\nsecond set against the first:")
    for w in WORKLOADS:
        moves[w] = {}
        for m in spec["end_to_end"]:
            a = first[w]["metrics"][m["name"]]["median"]
            b = second[w]["metrics"][m["name"]]["median"]
            move = b / a - 1.0
            worse = move if m["better"] == "lower" else -move
            ok &= worse <= m["bound"]
            moves[w][m["name"]] = move
            print(f"  {w:<12} {m['name']:<14} {move:+7.2%}  "
                  f"bound {m['bound']:.0%}")
    return moves, ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    sets = []
    all_ok = True
    for number in range(1, SETS + 1):
        summary, ok = one_set(spec, number)
        sets.append(summary)
        all_ok &= ok
    moves, ok = compare_sets(spec, sets[0], sets[1])
    all_ok &= ok

    if args.record:
        traced = {}
        ctx = {}
        for w in WORKLOADS:
            res = run_once(w, SEEDS[0], spec["run_seconds"], 1)
            ctx = res["details"]["context"]
            traced[w] = {k: v["value"] for k, v in res["metrics"].items()}
            all_ok &= res["correct"]
            print(f"\n{w} traced (seed {SEEDS[0]}), correct={res['correct']}")
            for m in spec["per_layer"]:
                if m["name"] in res["metrics"]:
                    print(f"  {m['name']:<46} "
                          f"{res['metrics'][m['name']]['value']:12.6g} "
                          f"{m['unit']}")
        record = {
            "python": ctx["python"], "nproc": ctx["nproc"],
            "git_rev": git_rev(), "backend": ctx["backend"],
            "run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
            "size": {w: cls.size for w, cls in WORKLOADS.items()},
            "sets": sets, "second_set_moves": moves,
            "trace": {w: {"overhead_frac": t.get("trace.overhead_frac"),
                          "unattributed_frac": t.get("trace.unattributed_frac")}
                      for w, t in traced.items()},
            "per_layer": traced,
        }
        with open(RECORDED, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"\nrecorded to {os.path.relpath(RECORDED)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
