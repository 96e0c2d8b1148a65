"""Correctness checks run after the timed section.

Each check adds one attempt to a `Tally`; a mismatch or an exception adds
one failure.  failed_frac = failed / attempted.  The functions here take
plain data so `test_checks.py` can feed them corrupted inputs.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import comb


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"FAIL {what}")
        return ok

    def error(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.notes.append(f"ERROR {what}: {type(exc).__name__}: {exc}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def check_identical(tally: Tally, what: str, outputs: list) -> None:
    """Every repeat of a unit on the same seed gives the same output."""
    for k, out in enumerate(outputs[1:], 1):
        tally.check(f"{what} repeat {k} identical to repeat 0",
                    out == outputs[0])


# -- mc_grid ------------------------------------------------------------------


def csv_fractions(text: str) -> dict[tuple[int, int, int], dict[str, Fraction]]:
    """(n, i, k) -> exact p_violation and p_graph_positive of a trend CSV."""
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    out = {}
    for row in csv.DictReader(io.StringIO("\n".join(rows))):
        key = (int(row["n"]), int(row["i"]), int(row["k"]))
        out[key] = {"p_violation": Fraction(row["p_violation"]),
                    "p_graph_positive": Fraction(row["p_graph_positive"])}
    return out


def check_graph(tally: Tally, tag: str, n: int, r: int, counts, signs,
                alpha0) -> None:
    """One sampled graph: regular-graph count invariants, and the sign of
    the exact alpha_0 against the exact sign table on every (i, k)."""
    tally.check(f"{tag} m_0 = 1, m_1 = nr, m_2 closed form",
                counts[0] == 1 and counts[1] == n * r
                and counts[2] == comb(n * r, 2) - 2 * n * comb(r, 2)
                and len(counts) == n + 1 and min(counts) >= 1)
    for (i, k), s in sorted(signs.items()):
        a0 = alpha0[(i, k)]
        tally.check(f"{tag} sign(alpha0) = delta_sign at i={i} k={k}",
                    (a0 > 0) - (a0 < 0) == s)


def check_report_counts(tally: Tally, csv_text: str, samples: int,
                        signs_by_n: dict[int, list[dict]]) -> None:
    """The timed CSV's violation and positivity fractions, recounted from
    the exact sign tables of the same graphs."""
    rows = csv_fractions(csv_text)
    for n, tables in signs_by_n.items():
        pos = sum(all(s >= 0 for s in t.values()) for t in tables)
        for (rn, i, k), fr in sorted(rows.items()):
            if rn != n:
                continue
            viol = sum(t[(i, k)] < 0 for t in tables)
            tally.check(f"n={n} i={i} k={k} p_violation recount",
                        fr["p_violation"] == Fraction(viol, samples))
            tally.check(f"n={n} i={i} k={k} p_graph_positive recount",
                        fr["p_graph_positive"] == Fraction(pos, samples))


def check_kernels_agree(tally: Tally, tag: str, full_counts, upto_counts) -> None:
    j = len(upto_counts) - 1
    tally.check(f"{tag} match_count_upto = match_poly_full on m_0..m_{j}",
                tuple(upto_counts) == tuple(full_counts[:j + 1]))


# -- identities -------------------------------------------------------------


def report_lines(text: str) -> list[str]:
    """The per-check report lines of `verify` or `conjecture` output."""
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def check_report_output(tally: Tally, command: str, code: int,
                        text: str) -> None:
    """Every report line of a command reads PASS, their number matches the
    command's summary line, and the command exits 0."""
    lines = report_lines(text)
    for line in lines:
        verdict = next((w for w in line.split() if w in ("PASS", "FAIL")),
                       None)
        tally.check(f"{command}: {line}", verdict == "PASS")
    summary = f"# {len(lines)} checks, 0 failures"
    tally.check(f"{command}: summary reads {summary!r}",
                any(ln.startswith(summary) for ln in text.splitlines()))
    tally.check(f"{command}: exit code {code} is 0", code == 0)


# -- derive_cold --------------------------------------------------------------


def check_against_table(tally: Tally, derived: dict, table_value) -> int:
    """Each derived a_h(r, j) equals the shipped table wherever the table
    covers it (`table_value` returns None where it does not).  Returns the
    number of values compared."""
    compared = 0
    for (r, j), vals in sorted(derived.items()):
        for h, v in sorted(vals.items()):
            ref = table_value(h, r, j)
            if ref is None:
                continue
            compared += 1
            tally.check(f"a_{h}({r}, {j}) = shipped table", v == ref)
    return compared


def parse_counts(text: str) -> dict[tuple[str, int], int]:
    out = {}
    for line in text.splitlines():
        if line.strip():
            rec = json.loads(line)
            out[(rec["g"], rec["j"])] = int(rec["m"])
    return out


def check_counts_against_shipped(tally: Tally, appended: str,
                                 shipped: str) -> None:
    """Appended count-cache records equal the shipped cache's records for
    the same (graph id, j)."""
    ref = parse_counts(shipped)
    for key, m in sorted(parse_counts(appended).items()):
        if key in ref:
            tally.check(f"count {key} = shipped cache", m == ref[key])
