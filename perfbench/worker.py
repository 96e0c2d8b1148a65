"""One workload in a fresh process; started by run.py, prints one JSON line.

Modes:
  --setup-only        set up, report setup_s and exit
  (default)           set up, run timed units for --budget seconds (at
                      least one), then the correctness checks
  --trace 1           alternate untraced and traced units; report the
                      per-layer numbers and the tracing overhead
  --kernels PATH      compare a compiled kernel build against the pure
                      kernels instead of running a workload
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import Tally  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run_unit(wl, meter: SpeedMeter) -> tuple[list, float, float]:
    """One unit: its output, raw wall seconds, normalised seconds."""
    meter.start()
    t0 = time.perf_counter()
    try:
        out = wl.unit()
    finally:
        wall = time.perf_counter() - t0
        norm = meter.stop(wall)
    return out, wall, norm


def _nearest_rank(xs: list[float], q: float) -> float:
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def _trace_summary(layers: list[dict], graph_ms: list, untraced: list,
                   traced: list, tally: Tally) -> dict[str, float]:
    """Times: median over traced units.  Counts: equal on every traced
    unit (same inputs), checked, and reported once."""
    out = {}
    for key in layers[0]:
        vals = [layer[key] for layer in layers]
        if isinstance(vals[0], int):
            tally.check(f"trace count {key} repeats on every traced unit",
                        all(v == vals[0] for v in vals))
            out[key] = vals[0]
        else:
            out[key] = statistics.median(vals)
    for n in (6, 8, 10, 12):
        ms = [t for gn, t in graph_ms if gn == n]
        out[f"positivity.graph_ms.n{n}.p50"] = _nearest_rank(ms, 0.5) if ms else 0.0
        out[f"positivity.graph_ms.n{n}.p99"] = _nearest_rank(ms, 0.99) if ms else 0.0
    out["trace.overhead_frac"] = (statistics.median(traced)
                                  / statistics.median(untraced) - 1.0)
    return out


def run_workload(args) -> dict:
    meter = SpeedMeter()
    meter.start()
    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawn_t
    setup = {"setup_s": setup_s, "setup_norm_s": meter.stop(setup_s)}
    if args.setup_only:
        return setup

    import matchdiff
    tally = Tally()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    raw_s, norm_s, traced_s, items = [], [], [], []
    outputs, layers, graph_ms = [], [], []
    start = time.perf_counter()
    try:
        while True:
            out, wall, norm = _run_unit(wl, meter)
            raw_s.append(wall)
            norm_s.append(norm)
            items.append(wl.items(out))
            outputs.append(out)
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    out, wall, norm = _run_unit(wl, meter)
                finally:
                    tracer.uninstall()
                traced_s.append(norm)
                outputs.append(out)
                layers.append(tracer.layer_metrics(wall))
                graph_ms.extend(tracer.graph_ms())
            if time.perf_counter() - start >= args.budget:
                break
    except Exception as exc:  # noqa: BLE001 - a crash is a failed check
        traceback.print_exc(file=sys.stderr)
        tally.error("timed unit", exc)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if outputs:
        try:
            wl.check(outputs, tally)
        except Exception as exc:  # noqa: BLE001
            traceback.print_exc(file=sys.stderr)
            tally.error("checks", exc)
    result = {**setup, "norm_s": norm_s, "raw_s": raw_s,
              "items": items, "peak_rss_mb": peak_rss_mb,
              "backend": matchdiff.KERNEL_BACKEND}
    if layers:
        result["layers"] = _trace_summary(layers, graph_ms, norm_s, traced_s,
                                          tally)
        result["traced_s"] = traced_s
        result["graphs_timed"] = len(graph_ms)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  notes=tally.notes)
    return result


def run_kernels(args) -> dict:
    import kernels
    tally = Tally()
    try:
        layers = kernels.compare(args.kernels, tally)
    except Exception as exc:  # noqa: BLE001
        traceback.print_exc(file=sys.stderr)
        tally.error("kernel comparison", exc)
        layers = {}
    return {"layers": layers, "attempted": tally.attempted,
            "failed": tally.failed, "notes": tally.notes}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawn-t", type=float, required=True)
    ap.add_argument("--kernels", default=None)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--workdir")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--budget", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args()
    result = run_kernels(args) if args.kernels else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
