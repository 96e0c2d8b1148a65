"""Span tracer that wraps matchdiff's public functions from outside.

`Tracer.install()` replaces every public module-level function of the
traced modules (and a few methods) with a wrapper that records a span:
inclusive time, self time (inclusive minus wrapped children) and a call
count.  Because `from .x import f` copies the function into other module
namespaces, each wrapper is installed wherever the original object is
bound.  `uninstall()` restores the originals, so traced and untraced units
can alternate inside one process.

Spans are aggregated in memory per function and per metric group; nothing
is written until the benchmark asks for the numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("graphs", "matchcount", "positivity", "series", "atable",
           "kseries", "identities", "derive")

# Tiny helpers called per coefficient or per sign; a span around them would
# cost more than their body.  Their time stays in the caller's self time.
SKIP = {"series.rat", "series.rat_str", "series.parse_rat",
        "identities.lsplit"}

METHODS = {
    "series.NSeries": ("__mul__", "__rmul__", "mul_capped", "pow_int",
                       "ln1p", "exp"),
    "derive._CountCache": ("get", "put"),
}

# Metric groups: a group's inclusive time counts only its outermost spans,
# so nested or recursive members are not counted twice.
GROUPS = {
    "graphs.sample": ("graphs.gen_regular_bipartite",),
    "graphs.construct": ("graphs.circulant_bipartite", "graphs.find_circulant",
                         "graphs.incidence_pg", "graphs.random_lift",
                         "graphs.girth_search", "graphs.builtin_graph"),
    "graphs.girth": ("graphs.girth",),
    "matchcount.full": ("matchcount.match_poly_full",),
    "matchcount.upto": ("matchcount.match_count_upto",),
    "positivity.rho": ("positivity.rho_vector",),
    "positivity.alpha0": ("positivity.alpha0_exact",),
    "positivity.sign_table": ("positivity.delta_table",
                              "positivity.delta_sign"),
    "positivity.sign_decisions": ("positivity.delta_sign",),
    "positivity.aggregate": ("positivity.trend_report",
                             "positivity.ensemble_grid",
                             "positivity.ensemble_run"),
    "series.nseries_mul": ("series.NSeries.__mul__", "series.NSeries.__rmul__",
                           "series.NSeries.mul_capped"),
    "series.ln1p": ("series.NSeries.ln1p",),
    "series.exp": ("series.NSeries.exp",),
    "atable.build": ("atable.build_H", "atable.build_F_conjecture"),
    "atable.fit": ("atable.derive_M_pointwise", "atable.fit_atable"),
    "kseries.build": ("kseries.build_G", "kseries.build_K"),
    # "identities.check" is every identities.check_* function (see install)
    "derive.family": ("derive.qualified_family",),
    "derive.count": ("derive.count_mj",),
    "derive.cache_put": ("derive._CountCache.put",),
}


class _Stat:
    __slots__ = ("calls", "outer", "incl", "self_")

    def __init__(self):
        self.calls = 0
        self.outer = 0    # outermost spans only
        self.incl = 0.0   # outermost spans only
        self.self_ = 0.0


class Tracer:
    """Collects spans while installed.  One tracer per process."""

    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []
        self._groups_of: dict[str, tuple[str, ...]] = {}
        self.reset()

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.counters: dict[str, int] = {"graphs.sample_attempts": 0,
                                         "derive.cache_hits": 0}
        self.top_time = 0.0
        # (kind, perf_counter, n) marks for per-graph timing in mc_grid
        self.marks: list[tuple[str, float, int]] = []
        self._stack: list[list] = []      # [name, start, child_time]
        self._active: dict[str, int] = {}  # group or name -> open depth

    def _keys(self, name: str) -> tuple[str, ...]:
        return (name, "module:" + name.split(".", 1)[0]) + \
            self._groups_of.get(name, ())

    def _wrap(self, name: str, fn):
        tracer = self
        keys = self._keys(name)
        mark = {"graphs.gen_regular_bipartite": "start",
                "positivity.delta_table": "end"}.get(name)
        is_get = name == "derive._CountCache.get"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            active = tracer._active
            for k in keys:
                active[k] = active.get(k, 0) + 1
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            frame[1] = t0
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][2] += dur
                else:
                    tracer.top_time += dur
                own = dur - frame[2]
                stats = tracer.stats
                for k in keys:
                    depth = active[k] - 1
                    active[k] = depth
                    st = stats.get(k)
                    if st is None:
                        st = stats[k] = _Stat()
                    st.calls += 1
                    st.self_ += own
                    if depth == 0:
                        st.outer += 1
                        st.incl += dur
                if mark == "start":
                    tracer.marks.append(("start", t0, args[0]))
                elif mark == "end":
                    tracer.marks.append(("end", t1, 0))
            if is_get and out is not None:
                tracer.counters["derive.cache_hits"] += 1
            return out

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions in every loaded matchdiff module."""
        if self._originals:
            return
        mods = {m: importlib.import_module(f"matchdiff.{m}") for m in MODULES}
        loaded = [mod for key, mod in sys.modules.items()
                  if key.startswith("matchdiff.") and mod is not None]
        targets = [(f"{short}.{attr}", obj)
                   for short, mod in mods.items()
                   for attr, obj in list(vars(mod).items())
                   if not attr.startswith("_") and inspect.isfunction(obj)
                   and obj.__module__ == mod.__name__
                   and f"{short}.{attr}" not in SKIP]
        groups = dict(GROUPS)
        groups["identities.check"] = tuple(
            name for name, _ in targets if name.startswith("identities.check_"))
        self._groups_of = {}
        for group, members in groups.items():
            for member in members:
                self._groups_of[member] = \
                    self._groups_of.get(member, ()) + (group,)
        for name, obj in targets:
            self._install_everywhere(loaded, obj, name)
        for qual, methods in METHODS.items():
            short, cls_name = qual.split(".")
            cls = getattr(mods[short], cls_name)
            wrapped = {}
            for meth in methods:
                orig = cls.__dict__[meth]
                if id(orig) not in wrapped:
                    wrapped[id(orig)] = self._wrap(f"{qual}.{meth}", orig)
                self._originals.append((cls, meth, orig))
                setattr(cls, meth, wrapped[id(orig)])
        self._install_rng_counter(mods["graphs"])

    def _install_everywhere(self, loaded, obj, name) -> None:
        wrapper = self._wrap(name, obj)
        for mod in loaded:
            for attr, val in list(vars(mod).items()):
                if val is obj:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _install_rng_counter(self, graphs_mod) -> None:
        """Count permutation-model draws: gen_regular_bipartite builds one
        Rng per attempt, so Rng constructions while it is the innermost
        span are its attempts."""
        tracer = self
        base = graphs_mod.Rng

        class CountingRng(base):
            __slots__ = ()

            def __init__(self, seed):
                stack = tracer._stack
                if stack and stack[-1][0] == "graphs.gen_regular_bipartite":
                    tracer.counters["graphs.sample_attempts"] += 1
                super().__init__(seed)

        self._originals.append((graphs_mod, "Rng", base))
        graphs_mod.Rng = CountingRng

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals = []

    # -- readout -------------------------------------------------------------

    def stat(self, key: str) -> _Stat:
        return self.stats.get(key, _Stat())

    def graph_ms(self) -> list[tuple[int, float]]:
        """Per-graph time in the Monte Carlo path: from a sample's draw to
        the end of its sign table (the last table before the next draw)."""
        out = []
        start = None
        n = 0
        last_end = None
        for kind, t, arg in self.marks:
            if kind == "start":
                if start is not None and last_end is not None:
                    out.append((n, (last_end - start) * 1e3))
                start, n, last_end = t, arg, None
            else:
                last_end = t
        if start is not None and last_end is not None:
            out.append((n, (last_end - start) * 1e3))
        return out

    def layer_metrics(self, unit_wall: float) -> dict[str, float]:
        """Per-layer numbers of one traced unit.  `_s` is inclusive time of
        a group's outermost spans, `_self_s` excludes wrapped children."""
        st = self.stat
        attempts = self.counters["graphs.sample_attempts"]
        sample = st("graphs.sample")
        out = {
            "graphs.sample_s": sample.incl,
            "graphs.sample_calls": sample.calls,
            "graphs.sample_attempts": attempts,
            "graphs.sample_accept_ratio":
                sample.calls / attempts if attempts else 0.0,
            "graphs.construct_s": st("graphs.construct").incl,
            "graphs.girth_s": st("graphs.girth").incl,
            "graphs.girth_calls": st("graphs.girth").calls,
            "matchcount.full_s": st("matchcount.full").incl,
            "matchcount.full_calls": st("matchcount.full").calls,
            "matchcount.upto_s": st("matchcount.upto").incl,
            "matchcount.upto_calls": st("matchcount.upto").calls,
            # rho without the counting it triggers (that is matchcount.full_s)
            "positivity.rho_s": st("positivity.rho").self_,
            "positivity.alpha0_s": st("positivity.alpha0").incl,
            "positivity.sign_table_self_s": st("positivity.sign_table").self_,
            "positivity.sign_decisions": st("positivity.sign_decisions").calls,
            "positivity.aggregate_self_s": st("positivity.aggregate").self_,
            "series.nseries_mul_s": st("series.nseries_mul").incl,
            "series.nseries_mul_calls": st("series.nseries_mul").calls,
            "series.ln1p_s": st("series.ln1p").incl,
            "series.exp_s": st("series.exp").incl,
            "atable.build_s": st("atable.build").incl,
            "atable.fit_s": st("atable.fit").incl,
            "kseries.build_s": st("kseries.build").incl,
            "identities.check_self_s": st("identities.check").self_,
            "identities.checks": st("identities.check").outer,
            "derive.family_s": st("derive.family").incl,
            "derive.count_s": st("derive.count").incl,
            "derive.cache_appends": st("derive.cache_put").calls,
            "derive.cache_hits": self.counters["derive.cache_hits"],
            "trace.unattributed_frac":
                max(0.0, 1.0 - self.top_time / unit_wall),
        }
        for mod in MODULES:
            m = st("module:" + mod)
            out[f"{mod}.span_s"] = m.incl
            out[f"{mod}.self_s"] = m.self_
            out[f"{mod}.calls"] = m.calls
        return out
