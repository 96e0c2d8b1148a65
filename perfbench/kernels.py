"""Compiled-versus-pure kernel comparison for the traced run.

The shipped `src/matchdiff/_kernels.c` is compiled out of tree into the
benchmark's work directory (never under `src/`), loaded by path, and timed
against `matchdiff._kernels_py` on the inputs of `benchmarks/bench_kernels.py`
(minus its n=26 fixed-size input, which takes 13 s on the pure backend).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import time

KERNELS_C = os.path.join("src", "matchdiff", "_kernels.c")
REPEAT = 3


def build(workdir: str) -> tuple[str | None, str]:
    """Compile the shipped C source once per content hash.  Returns the
    extension path, or None and the reason it was skipped."""
    if not os.path.exists(KERNELS_C):
        return None, f"skipped: {KERNELS_C} not present"
    gcc = shutil.which("gcc")
    if gcc is None:
        return None, "skipped: no gcc on PATH"
    include = sysconfig.get_paths().get("include")
    if not include or not os.path.exists(os.path.join(include, "Python.h")):
        return None, "skipped: Python headers not found"
    with open(KERNELS_C, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    outdir = os.path.join(workdir, f"kernels-{digest}")
    target = os.path.join(outdir, "_kernels" + suffix)
    if os.path.exists(target):
        return target, "cached build"
    os.makedirs(outdir, exist_ok=True)
    partial = target + f".{os.getpid()}.tmp"
    proc = subprocess.run(
        [gcc, "-O3", "-shared", "-fPIC", f"-I{include}", KERNELS_C,
         "-o", partial], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, TMPDIR=os.path.abspath(outdir)))
    if proc.returncode != 0:
        if os.path.exists(partial):
            os.remove(partial)
        return None, f"skipped: gcc failed: {proc.stderr.strip()[-300:]}"
    os.replace(partial, target)
    return target, "built"


def _load(path: str):
    spec = importlib.util.spec_from_file_location("_kernels", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _inputs():
    from matchdiff.graphs import (builtin_graph, gen_regular_bipartite,
                                  random_lift)
    g12 = gen_regular_bipartite(12, 3, seed=1)
    g16 = gen_regular_bipartite(16, 4, seed=1)
    hw3 = random_lift(builtin_graph("heawood"), 3, seed=2)
    cage = builtin_graph("tutte_12cage")
    return [
        ("poly_n12_r3", "match_poly_counts", ([list(r) for r in g12.adj],)),
        ("poly_n16_r4", "match_poly_counts", ([list(r) for r in g16.adj],)),
        ("upto_n21_r3_j5", "match_upto_counts",
         ([(u, hw3.n + v) for u, v in hw3.edges()], 2 * hw3.n, 5)),
        ("census_12cage_s12", "cycle_census_counts", (cage.global_adj(), 12)),
    ]


def compare(so_path: str, tally) -> dict[str, float]:
    """Best-of-REPEAT milliseconds per backend and input; both backends
    must return equal counts."""
    from matchdiff import _kernels_py
    compiled = _load(so_path)
    out = {}
    for name, fn, args in _inputs():
        results = {}
        for mod in (_kernels_py, compiled):
            best = float("inf")
            for _ in range(REPEAT):
                t0 = time.perf_counter()
                res = getattr(mod, fn)(*args)
                best = min(best, time.perf_counter() - t0)
            out[f"matchcount.kernel_ms.{mod.BACKEND}.{name}"] = best * 1e3
            results[mod.BACKEND] = (
                {int(k): int(v) for k, v in res.items()}
                if isinstance(res, dict) else [int(x) for x in res])
        first, *rest = results.values()
        tally.check(f"kernel backends agree on {name}",
                    all(r == first for r in rest))
    return out
