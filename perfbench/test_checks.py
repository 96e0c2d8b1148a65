"""The benchmark's correctness checks catch corrupted outputs.

    python3 -m pytest perfbench/test_checks.py

Each test runs a check on correct data (no failure) and on the same data
with one count or value corrupted (failed_frac > 0).
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("MATCHDIFF_CACHE", str(tmp_path / "cache"))


def _run(wl, units=2):
    return [wl.unit() for _ in range(units)]


class SmallGrid(workloads.MCGrid):
    NS = (6, 8)
    SAMPLES = 3


class SmallDerive(workloads.DeriveCold):
    PINNED = ((4, 3),)
    SEEDED = ((3, 4),)


class FewTrials(workloads.Identities):
    TRIALS = 3


def _tally(wl, outputs):
    tally = checks.Tally()
    wl.check(outputs, tally)
    return tally


def test_mc_grid_clean_and_corrupted_csv():
    wl = SmallGrid()
    wl.setup(seed=5, workdir=".")
    outputs = _run(wl)
    clean = _tally(wl, outputs)
    assert clean.attempted > 0 and clean.failed == 0, clean.notes
    lines = outputs[0].splitlines(keepends=True)
    row = lines[-1].split(",")
    # p_violation is column 12: one more violating graph than counted
    row[12] = str(Fraction(row[12]) + Fraction(1, wl.SAMPLES))
    bad_csv = "".join(lines[:-1]) + ",".join(row)
    bad = _tally(wl, [bad_csv, outputs[1]])
    assert bad.failed > 0 and bad.failed_frac > 0


def test_corrupted_counts_fail():
    n, r = 6, 3
    counts = (1, 18, 117, 282, 243, 72, 9)
    tally = checks.Tally()
    checks.check_graph(tally, "clean", n, r, counts, {}, {})
    checks.check_kernels_agree(tally, "clean", counts, counts[:6])
    assert tally.failed == 0
    checks.check_graph(tally, "bad m_2", n, r, (1, 18, 118) + counts[3:],
                       {}, {})
    checks.check_kernels_agree(tally, "bad m_4", counts,
                               counts[:4] + (244, 72))
    assert tally.failed == 2 and tally.failed_frac > 0


def test_sign_mismatch_fails():
    tally = checks.Tally()
    checks.check_graph(tally, "g", 6, 3, (1, 18, 117, 282, 243, 72, 9),
                       {(0, 2): 1, (1, 2): -1},
                       {(0, 2): Fraction(1, 3), (1, 2): Fraction(1, 7)})
    assert tally.failed == 1


def test_derive_clean_and_corrupted(tmp_path):
    wl = SmallDerive()
    wl.setup(seed=3, workdir=str(tmp_path))
    outputs = _run(wl)
    clean = _tally(wl, outputs)
    assert clean.failed == 0, clean.notes
    values, path = outputs[0]
    entry = min(values)
    h = min(values[entry])
    bad_values = {**values, entry: {**values[entry],
                                    h: values[entry][h] + 1}}
    assert _tally(wl, [(bad_values, path), outputs[1]]).failed > 0
    with open(path) as fh:
        lines = fh.read().splitlines()
    bad_path = str(tmp_path / "bad_counts.jsonl")
    with open(bad_path, "w") as fh:
        first = lines[0].replace('"m": ', '"m": 1')
        fh.write("\n".join([first] + lines[1:]) + "\n")
    assert _tally(wl, [(values, bad_path), outputs[1]]).failed > 0


def test_identities_corrupted_table_value(tmp_path):
    wl = FewTrials()
    wl.setup(seed=7, workdir=str(tmp_path))
    clean = _tally(wl, _run(wl))
    assert clean.attempted > 60 and clean.failed == 0, clean.notes
    with open(wl.table_path) as fh:
        text = fh.read()
    line = "a h=3 point r=3 j=4 -362/9"
    assert line in text
    with open(wl.table_path, "w") as fh:
        fh.write(text.replace(line, "a h=3 point r=3 j=4 -361/9"))
    bad = _tally(wl, _run(wl))
    assert bad.failed > 0 and bad.failed_frac > 0
