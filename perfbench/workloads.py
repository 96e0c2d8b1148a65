"""The benchmark's three workloads.

A workload's `unit()` is what the worker times.  Every unit of a run
repeats the same inputs (made from --seed), so the run's median unit time
is steady and every repeat can be checked to give identical output.  Each
workload imports matchdiff inside `setup`, so the import counts towards
setup_s.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile

from checks import (Tally, check_against_table, check_counts_against_shipped,
                    check_graph, check_identical, check_kernels_agree,
                    check_report_counts, check_report_output, report_lines)

SHIPPED_TABLE = os.path.join("cache", "atable_r345_seed20250809.txt")
SHIPPED_COUNTS = os.path.join("cache", "counts.jsonl")


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


class MCGrid:
    """`simulate`'s path: trend_report over the default (n, i, k) grid at a
    reduced sample count."""

    R = 3
    NS = (6, 8, 10, 12)
    PAIRS = tuple((i, k) for i in range(4) for k in range(4))
    SAMPLES = 12
    UPTO_J = 5

    size = {"r": R, "n": list(NS), "pairs": len(PAIRS),
            "samples_per_n": SAMPLES, "jobs": 1}

    def setup(self, seed: int, workdir: str) -> None:
        from matchdiff import positivity
        self.positivity = positivity
        self.seed = seed

    def unit(self) -> str:
        report = self.positivity.trend_report(
            self.R, self.NS, self.SAMPLES, self.PAIRS, self.seed, jobs=1)
        return report.csv(f"perfbench mc_grid seed={self.seed}")

    def items(self, out) -> int:
        return self.SAMPLES * len(self.NS)

    def check(self, outputs: list, tally: Tally) -> None:
        from matchdiff import graphs, matchcount, positivity, rng
        check_identical(tally, "mc_grid CSV", outputs)
        signs_by_n = {}
        for n in self.NS:
            tables = []
            for idx in range(self.SAMPLES):
                # the per-sample seed scheme documented in rng.derive_seed
                g = graphs.gen_regular_bipartite(
                    n, self.R, rng.derive_seed(self.seed, idx))
                mvec = matchcount.match_poly_full(g)
                prof = positivity.delta_table(g, mvec)
                alpha0 = {ik: positivity.alpha0_exact(prof.rho, *ik)
                          for ik in prof.signs}
                check_graph(tally, f"n={n} sample={idx}", n, self.R,
                            mvec.counts, prof.signs, alpha0)
                tables.append(prof.signs)
                if idx == 0:
                    try:
                        mvec.validate_regular(n, self.R)
                        tally.check(f"n={n} validate_regular", True)
                    except AssertionError as exc:
                        tally.error(f"n={n} validate_regular", exc)
                    upto = matchcount.match_count_upto(g, self.UPTO_J)
                    check_kernels_agree(tally, f"n={n}", mvec.counts,
                                        upto.counts)
            signs_by_n[n] = tables
        check_report_counts(tally, outputs[0], self.SAMPLES, signs_by_n)


class Identities:
    """`matchdiff verify --suite core` then `matchdiff conjecture --trials T
    --seed S`, called through the command line entry point with stdout
    captured.

    Both commands load the table derived at --seed from the cache
    directory.  The table's values are exact and do not depend on the
    derivation seed, so setup copies the shipped table (opened read-only)
    into a temporary cache under the name for --seed."""

    TRIALS = 20
    R = "3,4,5"

    size = {"suite": "core", "conjecture_trials": TRIALS, "zmax": 2,
            "hmax": 3, "table": SHIPPED_TABLE}

    def setup(self, seed: int, workdir: str) -> None:
        from matchdiff import cli, derive
        self.cli = cli
        self.root = tempfile.mkdtemp(prefix="identities-", dir=workdir)
        self.table_path = derive.default_table_path(
            self.root, (3, 4, 5), seed, False)
        shutil.copyfile(SHIPPED_TABLE, self.table_path)
        common = ["--cache", self.root, "--seed", str(seed), "--r", self.R]
        self.commands = (["verify", "--suite", "core", *common],
                         ["conjecture", "--trials", str(self.TRIALS),
                          *common])

    def unit(self) -> list[tuple[int, str]]:
        """Each command's exit code and stdout."""
        out = []
        for argv in self.commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
            out.append((code, buf.getvalue()))
        return out

    def items(self, out) -> int:
        return sum(len(report_lines(text)) for _, text in out)

    def check(self, outputs: list, tally: Tally) -> None:
        for argv, (code, text) in zip(self.commands, outputs[0]):
            check_report_output(tally, argv[0], code, text)
        tally.check("conjecture: k=h+1 values bit-identical across constants",
                    "bit-identical across constants" in outputs[0][1][1])
        check_identical(tally, "verify and conjecture output", outputs)


class DeriveCold:
    """derive_with_invariance for a fixed set of (r, j) entries into an
    empty count cache.

    The r=5 entry is bound by rejection sampling, whose cost is a geometric
    random variable of the derivation seed (2 s to 30 s per entry over six
    seeds), so it uses the package's default derivation seed, as `matchdiff
    derive-atable` does.  The counting-bound (4, 4) entry takes its
    derivation seed from --seed.  (5, 3) exercises the same layers as
    (5, 2) and would leave room for only two units in a run."""

    PINNED = ((5, 2),)
    SEEDED = ((4, 4),)

    size = {"pinned_entries": [list(e) for e in PINNED],
            "seeded_entries": [list(e) for e in SEEDED]}

    def setup(self, seed: int, workdir: str) -> None:
        from matchdiff import derive, rng
        self.derive, self.rng = derive, rng
        self.seed = seed
        self.root = tempfile.mkdtemp(prefix="derive-", dir=workdir)
        os.environ["MATCHDIFF_CACHE"] = self.root
        self.runs = 0

    def unit(self):
        """Every entry into one fresh count cache; returns the derived
        values and the cache file."""
        derive, derive_seed = self.derive, self.rng.derive_seed
        self.runs += 1
        cache = derive._CountCache(os.path.join(self.root, f"c{self.runs}"))
        seeds = {e: derive_seed(derive.DEFAULT_SEED, 1000 * e[0] + e[1])
                 for e in self.PINNED}
        seeds.update({e: derive_seed(self.seed, 1000 * e[0] + e[1])
                      for e in self.SEEDED})
        values = {(r, j): derive.derive_with_invariance(r, j, s, cache)
                  for (r, j), s in seeds.items()}
        return values, cache.path

    def items(self, out) -> int:
        return len(out[0])

    def check(self, outputs: list, tally: Tally) -> None:
        from matchdiff import atable
        shipped = atable.import_atable(SHIPPED_TABLE)

        def table_value(h, r, j):
            try:
                return shipped.value(h, r, j)
            except atable.ATableError:
                return None

        values = [out[0] for out in outputs]
        counts = [_read(out[1]) for out in outputs]
        tally.check("derived values cover every entry",
                    len(values[0]) == len(self.PINNED) + len(self.SEEDED))
        compared = check_against_table(tally, values[0], table_value)
        tally.check("some derived values are covered by the shipped table",
                    compared > 0)
        check_counts_against_shipped(tally, counts[0], _read(SHIPPED_COUNTS))
        check_identical(tally, "derived values", values)
        check_identical(tally, "appended count cache", counts)


WORKLOADS = {"mc_grid": MCGrid, "identities": Identities,
             "derive_cold": DeriveCold}
