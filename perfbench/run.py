#!/usr/bin/env python3
"""matchdiff benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mc_grid --seed 1 --seconds 16 --trace 0

Run from the repository root.  Each workload runs in fresh processes
(perfbench/worker.py): SETUP_PROBES processes that only set up, then one
that sets up, times units for --seconds and checks the outputs.  With
--trace 1 the timed process alternates untraced and traced units, and a
further process compares compiled and pure counting kernels.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json (trace 0) or its
per-layer metrics (trace 1).  Details, including the recorded context, go
to perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import kernels
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
RECORDED = os.path.join(HERE, "recorded.json")
REQUIRED = ("BENCHMARK.json", os.path.join("src", "matchdiff", "__init__.py"),
            os.path.join("cache", "atable_r345_seed20250809.txt"),
            os.path.join("cache", "counts.jsonl"))
SETUP_PROBES = 6
CHILD_TIMEOUT = 170


def fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def tree_digest(*roots: str) -> str:
    """Content hash of every file under `roots`, bytecode caches excluded."""
    h = hashlib.sha256()
    for root in roots:
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_rev() -> str:
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def child(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one worker process to completion and parse its JSON line."""
    timeout = max(1.0, min(CHILD_TIMEOUT, deadline - time.monotonic()))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv,
           "--spawn-t", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"worker {argv} timed out after {timeout:.0f} s", 3)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"worker {argv} exited with {proc.returncode}", 3)
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail(f"run from the matchdiff repository root; missing {missing}")
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    recorded = {}
    if os.path.exists(RECORDED):
        with open(RECORDED) as fh:
            recorded = json.load(fh)

    deadline = time.monotonic() + 175
    os.makedirs(WORK, exist_ok=True)
    before = tree_digest("src", "cache")
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.abspath("src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""),
        "PYTHONPYCACHEPREFIX": os.path.join(WORK, "pycache"),
        "PYTHONHASHSEED": "0",
        "MATCHDIFF_CACHE": os.path.join(tmp, "cache"),
        "TMPDIR": tmp,
    })
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--workdir", tmp]
    try:
        setups = [child(base + ["--setup-only"], env, deadline)
                  for _ in range(SETUP_PROBES)]
        res = child(base + ["--budget", str(args.seconds),
                            "--trace", str(args.trace)], env, deadline)
        kernel = {"layers": {}, "attempted": 0, "failed": 0, "notes": []}
        kernel_status = "not run (trace 0)"
        if args.trace:
            so, kernel_status = kernels.build(WORK)
            if so is not None:
                kernel = child(["--kernels", so], env, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if not res["norm_s"]:
        fail("no timed unit completed; see the traceback above", 5)
    expected = recorded.get("backend")
    if expected and res["backend"] != expected:
        fail(f"kernel backend is {res['backend']!r} but the recorded numbers "
             f"are for {expected!r}; not comparable", 4)

    attempted = res["attempted"] + kernel["attempted"] + 1
    failed = res["failed"] + kernel["failed"]
    if tree_digest("src", "cache") != before:
        failed += 1
        res["notes"].append("FAIL src/ or cache/ changed during the run")

    setups.append(res)
    setup_s = [s["setup_norm_s"] for s in setups]
    if args.trace:
        values = dict(res.get("layers", {}), **kernel["layers"])
    else:
        values = {
            "wall_s": statistics.median(res["norm_s"]),
            "items_per_s": statistics.median(
                i / t for i, t in zip(res["items"], res["norm_s"])),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            print(f"perfbench: no value for {m['name']} ({kernel_status})",
                  file=sys.stderr)

    context = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_rev": git_rev(), "backend": res["backend"],
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "size": WORKLOADS[args.workload].size,
        "units": len(res["norm_s"]), "kernel_build": kernel_status,
    }
    details = {"context": context, "setup_s": setup_s,
               "setup_raw_s": [s["setup_s"] for s in setups], "worker": res,
               "kernels": kernel, "failed_frac": failed / attempted}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}"
                       f"-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(details, fh, indent=1)
    for note in res["notes"] + kernel["notes"]:
        print(f"perfbench: {note}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} units="
          f"{len(res['norm_s'])} failed_frac={failed}/{attempted} "
          f"details={os.path.relpath(out)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
