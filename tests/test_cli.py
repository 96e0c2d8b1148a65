"""End-to-end command line runs (small configurations)."""

import hashlib
import os
import re
import shutil
import subprocess
import sys

import pytest

import matchdiff
from matchdiff.cli import EXIT_INTERNAL, main


@pytest.fixture
def env_cache(repo_cache_dir, monkeypatch, table):
    # `table` guarantees the cached table exists before CLI runs
    monkeypatch.setenv("MATCHDIFF_CACHE", repo_cache_dir)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_derive_atable_cache_hit(env_cache, capsys):
    code, out, _ = run(capsys, "derive-atable")
    assert code == 0
    assert "cache hit" in out
    assert "symbolic through h=2" in out


def test_verify_core_suite(env_cache, capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "verify", "--suite", "core",
                       "--out", str(out_path))
    assert code == 0
    assert " FAIL" not in out
    assert "0 failures" in out
    text = out_path.read_text()
    assert text.splitlines()[1].startswith("id,r,i,k,h,spec,pass")


def test_verify_single_id(env_cache, capsys):
    code, out, _ = run(capsys, "verify", "--id", "first-identity",
                       "--k", "3", "--i", "0..2")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("first-identity")]
    assert len(lines) == 3 and all("PASS" in ln for ln in lines)


@pytest.mark.parametrize("check", ["top-coeff", "alpha0"])
def test_verify_single_id_past_symbolic_levels(check, env_cache, capsys):
    """k=4 needs a_3, which the shipped table has only at r=3, so that
    check runs at r=3 instead of failing on the missing symbolic entry."""
    code, out, _ = run(capsys, "verify", "--id", check, "--k", "2,3,4")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(check)]
    assert [ln.split()[1] for ln in lines] == ["r=sym", "r=sym", "r=3"]
    assert all(ln.split()[-1] == "PASS" for ln in lines)


def test_verify_unknown_id(env_cache, capsys):
    code, out, err = run(capsys, "verify", "--id", "nonsense")
    assert code == 2
    assert out == "" and err == (
        "error: unknown check id 'nonsense'; known ids: first-identity, "
        "log-coeff, top-coeff, alpha0, second-identity, t-cancellation, "
        "fd-monomial\n")


def test_verify_unknown_suite(env_cache, capsys):
    code, out, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert out == "" and "invalid choice" in err


def test_verify_missing_table_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MATCHDIFF_CACHE", str(tmp_path))
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "derive-atable" in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "--hmax", "5"), "the core suite does not read --hmax"),
    (("verify", "--k", "9"), "the core suite does not read --k"),
    (("verify", "--i", "7"), "the core suite does not read --i"),
    (("verify", "--hmax", "5", "--k", "9", "--i", "7"),
     "the core suite does not read --hmax, --k, --i"),
    # fd-monomial once echoed hmax=7 in its config line and ignored it
    (("verify", "--id", "fd-monomial", "--hmax", "7"),
     "--id fd-monomial does not read --hmax"),
    (("verify", "--id", "log-coeff", "--k", "2"),
     "--id log-coeff does not read --k"),
    (("verify", "--id", "top-coeff", "--i", "1"),
     "--id top-coeff does not read --i"),
], ids=["core-hmax", "core-k", "core-i", "core-all", "fd-monomial-hmax",
        "log-coeff-k", "top-coeff-i"])
def test_verify_refuses_flags_its_check_does_not_read(argv, message,
                                                      env_cache, capsys):
    """A flag the selected check would drop without a word is a
    configuration error that names it, raised before any stdout."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and f"error: {message}\n" in err


@pytest.mark.parametrize("argv", [
    # --out was accepted here, but no file was ever written
    ("derive-atable", "--out", "table.csv"),
    # the strict table ran under a config line that did not record it
    ("conjecture", "--strict-girth", "--trials", "1"),
], ids=["derive-atable-out", "conjecture-strict-girth"])
def test_removed_flags_exit_config(argv, env_cache, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and f"unrecognized arguments: {argv[1]}" in err


def test_verify_strict_girth_runs_on_the_strict_table(repo_cache_dir,
                                                      tmp_path, capsys):
    """verify --strict-girth loads the strict-policy table, where only
    h = 1 is symbolic, and records the policy in its config line."""
    shutil.copyfile(os.path.join(repo_cache_dir,
                                 "atable_r345s_seed20250809.txt"),
                    tmp_path / "atable_r345s_seed20250809.txt")
    code, out, _ = run(capsys, "verify", "--strict-girth",
                       "--cache", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert "strict-girth=True" in lines[0].split()
    assert [ln for ln in lines if ln.startswith("log-coeff")] \
        == ["log-coeff r=sym h=1 PASS"]
    assert lines[-1] == "# 38 checks, 0 failures"
    # the default-policy table is not there
    code, out, err = run(capsys, "verify", "--cache", str(tmp_path))
    assert code == 2 and out == "" and "no derived table" in err


def test_conjecture_small(env_cache, capsys):
    code, out, _ = run(capsys, "conjecture", "--trials", "3")
    assert code == 0
    assert "bit-identical" in out


def test_conjecture_zero_trials(env_cache, capsys):
    code, out, _ = run(capsys, "conjecture", "--trials", "0")
    assert code == 0
    assert "extended-expansion-empty" in out


@pytest.mark.parametrize("trials", [0, 1, 2])
def test_conjecture_claims_agreement_only_when_compared(trials, env_cache,
                                                        capsys):
    """Trial 0's k=h+1 values are the reference, so below two trials no
    value is compared across constants and the summary says so."""
    code, out, _ = run(capsys, "conjecture", "--trials", str(trials))
    assert code == 0
    summary = out.splitlines()[-1]
    assert summary.startswith(f"# {1 + 2 * trials} checks, 0 failures; ")
    if trials < 2:
        assert summary.endswith("no k=h+1 values compared across constants "
                                "(fewer than two trials)")
    else:
        assert summary.endswith("k=h+1 values bit-identical across constants")


@pytest.mark.parametrize("level, witness", [(0, "('*', 0)"),
                                            (1, "('lead', 1)")])
def test_verify_alpha0_k0_checks_its_levels(level, witness, env_cache,
                                            capsys, monkeypatch):
    """At k = 0, alpha_0 = F_i - 1: its 1/n^0 level must vanish and its
    [1/n] level equal j(j-1)/(2r).  An F wrong at either level fails the
    check, so the passing line is no vacuous pass."""
    from matchdiff import identities
    from matchdiff.series import JPoly, NSeries

    build_F = identities.build_F

    def wrong_F(table, h_max, at_r=None):
        return (build_F(table, h_max, at_r)
                + NSeries.term(level, JPoly.monomial(1), h_max))

    monkeypatch.setattr(identities, "build_F", wrong_F)
    code, out, _ = run(capsys, "verify", "--id", "alpha0", "--k", "0")
    assert code == 1
    line = out.splitlines()[1]
    assert line.startswith(f"alpha0 r=sym i=sym k=0 FAIL witness {witness}: ")
    assert out.splitlines()[-1] == "# 1 checks, 1 failures"


def test_simulate_deterministic_csv(env_cache, capsys, tmp_path):
    args = ("simulate", "--n", "6,8", "--samples", "40", "--i", "0,1",
            "--k", "0,1", "--seed", "11")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    code, _, _ = run(capsys, *args, "--out", str(a))
    assert code == 0
    code, _, _ = run(capsys, *args, "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()
    assert header[0].startswith("# matchdiff")
    assert "alpha_hat" in header[2]


def test_simulate_k0_violations_zero(env_cache, capsys, tmp_path):
    out_path = tmp_path / "sim.csv"
    code, _, _ = run(capsys, "simulate", "--n", "6", "--samples", "30",
                     "--i", "0,1", "--k", "0", "--out", str(out_path))
    assert code == 0
    for line in out_path.read_text().splitlines():
        if line.startswith("3,6"):
            cells = line.split(",")
            assert cells[12] == "0"  # p_violation


def test_simulate_skips_n_without_domain_pairs(env_cache, capsys):
    """i = k = 3 has no i + k <= n at n = 4: that n gets no CSV rows and the
    trend rules skip it."""
    code, out, _ = run(capsys, "simulate", "--n", "4,6", "--i", "3",
                       "--k", "3", "--samples", "5")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines() if ln[:1].isdigit()]
    assert rows and all(cells[1] == "6" for cells in rows)


CENSUS_CSV = """\
# matchdiff 0.1.0 command=census jobs=1 n=6,8 r=3 samples=30 seed=20250809 smax=6
# model=permutation-union-conditioned-on-simple
r,n,samples,seed,p_graph_positive,p_graph_positive_dec,mean_c4,mean_c6
3,6,30,20250809,1,1,5.1000,13.0000
3,8,30,20250809,1,1,4.9667,12.6667
"""


def test_census_runs(env_cache, capsys, tmp_path):
    out_path = tmp_path / "census.csv"
    code, out, _ = run(capsys, "census", "--n", "6,8", "--samples", "30",
                       "--out", str(out_path))
    assert code == 0
    # both outputs as captured before the trend rule moved to TrendReport
    assert out_path.read_text() == CENSUS_CSV
    assert out == CENSUS_CSV + \
        "# positivity fraction trend: non-decreasing (2 SE)\n"


def test_census_and_simulate_agree_on_positive_fraction(env_cache, capsys):
    """census and simulate on the same --r/--n/--samples/--seed draw the
    same graphs, so they print the same p_graph_positive cells per n."""
    grid = ("--r", "3", "--n", "5,7,9", "--samples", "40", "--seed", "11")
    rows = {}
    for command in ("census", "simulate"):
        code, out, _ = run(capsys, command, *grid)
        assert code == 0
        rows[command] = [ln.split(",") for ln in out.splitlines()
                         if ln[:1].isdigit()]
    census = {(row[1], *row[4:6]) for row in rows["census"]}
    assert len(census) == 3
    assert census == {(row[1], *row[-2:]) for row in rows["simulate"]}


def test_census_draws_each_sample_once(env_cache, capsys, monkeypatch):
    """The cycle census runs on the samples the grid already draws."""
    import matchdiff.positivity

    drawn = []
    draw = matchdiff.positivity._sample_graphs

    def counted(r, n, seed, lo, hi):
        for index, g in zip(range(lo, hi), draw(r, n, seed, lo, hi)):
            drawn.append((n, index))
            yield g

    monkeypatch.setattr(matchdiff.positivity, "_sample_graphs", counted)
    code, out, _ = run(capsys, "census", "--n", "6,8", "--samples", "30")
    assert code == 0 and out.startswith(CENSUS_CSV)
    assert sorted(drawn) == [(n, i) for n in (6, 8) for i in range(30)]


def test_census_computes_no_alpha0(env_cache, capsys, monkeypatch):
    """census asks for no (i, k) cell, so no sample computes a D alpha_0:
    it reads only the sign table and the cycle census."""
    import matchdiff.positivity

    def refuse(*args):
        raise AssertionError("census computed a D alpha_0")

    monkeypatch.setattr(matchdiff.positivity, "_scaled_alpha0", refuse)
    code, out, _ = run(capsys, "census", "--n", "6,8", "--samples", "30")
    assert code == 0 and out.startswith(CENSUS_CSV)


def test_census_jobs_agree(env_cache, capsys):
    """140 samples make three worker chunks at --jobs 2, and the census
    spans all three; the stdout is the --jobs 1 stdout."""
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "census", "--n", "5,7", "--smax", "8",
                           "--samples", "140", "--jobs", jobs)
        assert code == 0
        outs.append(out.replace(f"jobs={jobs}", "jobs=J", 1))
    assert outs[0] == outs[1]


def test_census_smax_cap_fails_before_sampling(env_cache, capsys,
                                               monkeypatch):
    import matchdiff.positivity

    def refuse(*args, **kwargs):
        raise AssertionError("ensemble sampled before the cycle census")

    monkeypatch.setattr(matchdiff.positivity, "ensemble_grid", refuse)
    code, _, err = run(capsys, "census", "--smax", "14", "--samples", "5")
    assert code == 2
    assert "capped at s_max = 12" in err


@pytest.mark.parametrize("command", ["simulate", "census"])
def test_several_r_exit_config(command, env_cache, capsys):
    code, out, err = run(capsys, command, "--r", "3,4", "--n", "6",
                         "--samples", "5")
    assert code == 2
    assert out == "" and err == f"error: {command} takes a single --r\n"


def test_census_positivity_drop_fails(env_cache, capsys):
    """At r = 2 the positive fraction falls from 1 at n = 7 to 7/10 at
    n = 8 over 40 samples, a drop beyond the Wilson intervals."""
    code, out, _ = run(capsys, "census", "--r", "2", "--n", "7,8",
                       "--samples", "40")
    assert code == 1
    assert out.splitlines()[-2:] == [
        "positivity fraction drops from n=7 to n=8",
        "# positivity fraction trend: DECREASING"]


def test_derive_atable_strict_policy_mismatch(env_cache, capsys,
                                              monkeypatch):
    """derive-atable --strict-girth compares the strict table with the
    default one wherever both hold a value; a default a_2(3, 3) that
    differs is a failed check."""
    from matchdiff.atable import ATable

    value = ATable.value

    def off_at_a2_33(self, h, r, j):
        return value(self, h, r, j) + ((h, r, j) == (2, 3, 3))

    monkeypatch.setattr(ATable, "value", off_at_a2_33)
    code, out, _ = run(capsys, "derive-atable", "--strict-girth")
    assert code == 1
    assert out.splitlines()[-1] == "POLICY MISMATCH at a_2(3, 3)"


def test_conjecture_c_dependence_fails(env_cache, capsys, monkeypatch):
    """Trial 0's k=h+1 values are the reference: a trial whose values
    differ gets a c-dependence witness, and the run fails."""
    from matchdiff import identities

    check = identities.check_extended_expansion
    pointwise = []

    def shifted_at_trial_1(table, spec, h_max, at_r=None):
        rep, values = check(table, spec, h_max, at_r=at_r)
        if spec.terms and at_r is not None:
            pointwise.append(spec)
            if len(pointwise) == 2:
                values = {**values, 1: values[1] + 1}
        return rep, values

    monkeypatch.setattr(identities, "check_extended_expansion",
                        shifted_at_trial_1)
    code, out, _ = run(capsys, "conjecture", "--trials", "3")
    assert code == 1
    lines = out.splitlines()
    failed = [ln for ln in lines if " FAIL " in ln]
    assert len(failed) == 1
    assert "witness ('c-dependence', 1): " in failed[0]
    assert lines[-1] == "# 1 failures"


def test_crash_exits_internal_not_check_failed(env_cache, capsys,
                                               monkeypatch):
    import matchdiff.positivity

    def crash(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(matchdiff.positivity, "trend_report", crash)
    code, _, err = run(capsys, "simulate", "--n", "6", "--samples", "2")
    assert code == EXIT_INTERNAL == 4
    assert "internal error: KeyError: 'boom'" in err


def test_corrupt_count_exits_internal(env_cache, capsys, monkeypatch):
    """A count vector that fails `MatchVector.validate_regular` stops the
    Monte Carlo as an internal error before any CSV is written."""
    from matchdiff import matchcount

    exact = matchcount.frontier_counts

    def one_field_shifted(neigh, j_max):
        counts = exact(neigh, j_max)
        counts[4] <<= 1
        return counts

    monkeypatch.setattr(matchcount, "frontier_counts", one_field_shifted)
    code, out, err = run(capsys, "simulate", "--n", "6", "--samples", "2")
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert "internal error: AssertionError: Newton's inequality" in err


def test_counting_budget_exits_budget(env_cache, capsys, monkeypatch):
    """A count past the frontier budget is a resource failure (exit 3),
    not a configuration error."""
    from matchdiff import matchcount
    from matchdiff.cli import EXIT_BUDGET

    monkeypatch.setattr(matchcount, "FRONTIER_STATE_BUDGET", 0)
    code, _, err = run(capsys, "simulate", "--n", "8", "--samples", "1")
    assert code == EXIT_BUDGET == 3
    assert "budget error: frontier DP exceeds its budget" in err


def test_simulate_past_n22(env_cache, capsys):
    """No side-size cap: n = 24 is counted and reported."""
    code, out, _ = run(capsys, "simulate", "--r", "3", "--n", "24",
                       "--samples", "2")
    assert code in (0, 1)
    rows = [ln.split(",") for ln in out.splitlines() if ln[:1].isdigit()]
    assert rows and all(cells[:3] == ["3", "24", "2"] for cells in rows)


def test_bad_flags_exit_config(capsys):
    code, _, _ = run(capsys, "simulate", "--n", "notanumber")
    assert code == 2


def test_failed_derivation_check_exits_check_failed(tmp_path, monkeypatch,
                                                   capsys):
    """m_2 + n in place of m_2 on every graph of the random (r=3, j=2)
    family moves its a_1 by 2/r^2 at every n, so each reconstruction is
    consistent and the two disagree: `derive-atable` exits 1 (check
    failed), not 2, says why on stderr and writes no table file.  A bad
    --r still exits 2."""
    from matchdiff import derive
    from matchdiff.rng import DEFAULT_SEED, derive_seed

    seed = derive_seed(DEFAULT_SEED, 1000 * 3 + 2)
    shifted = {g.graph_id() for g in derive.qualified_family(
        3, 2, 2 + derive._EXTRA_ROWS, derive_seed(seed, 0xFA), "random")}
    count_mj = derive.count_mj

    def miscount(g, j, cache=None):
        m = count_mj(g, j, cache)
        return m + g.n if g.graph_id() in shifted else m

    monkeypatch.setattr(derive, "count_mj", miscount)
    root = str(tmp_path / "cache")
    code, out, err = run(capsys, "derive-atable", "--cache", root)
    assert code == 1
    assert "check failed: reconstruction invariance failed at (r=3, j=2)" \
        in err
    assert not [name for name in os.listdir(root)
                if name.startswith("atable_")]
    code, _, err = run(capsys, "derive-atable", "--cache", root, "--r", "3,x")
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", "6", "--samples", "2", "--out",
     "{tmp}/missing/x.csv"),
    ("derive-atable", "--cache", "{tmp}/file"),
    ("census", "--n", "6", "--samples", "2", "--out", "{tmp}/missing/x.csv"),
    ("verify", "--out", "{tmp}/missing/x.csv"),
    ("simulate", "--n", "6", "--samples", "2", "--out", "{tmp}"),
    ("derive-atable", "--cache", "{tmp}/file/sub"),
], ids=["out-into-missing-dir", "cache-is-a-file", "census-out-into-missing-dir",
        "verify-out-into-missing-dir", "out-is-a-directory",
        "cache-under-a-file"])
def test_unwritable_path_exits_config(argv, env_cache, monkeypatch, capsys,
                                      tmp_path):
    """A path that cannot be written is a configuration error (exit 2),
    said in one line on stderr with no traceback, before any work: no graph
    is drawn, no check runs, no family is derived and nothing is written."""
    from matchdiff import identities, positivity

    def refuse(*args, **kwargs):
        raise AssertionError("ran before the path was checked")

    monkeypatch.setattr(positivity, "trend_report", refuse)
    monkeypatch.setattr(identities, "core_suite", refuse)
    (tmp_path / "file").write_text("")
    code, out, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "derive (r=" not in out
    assert sorted(os.listdir(tmp_path)) == ["file"]
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("command", ["simulate", "census"])
def test_reversed_range_exits_config(command, env_cache, capsys):
    """'12..8' once parsed as an empty range, so `--n 6,12..8` ran n = 6
    alone under a config line that echoed the whole list."""
    code, out, err = run(capsys, command, "--r", "3", "--n", "6,12..8",
                         "--samples", "5")
    assert code == 2
    assert out == "" and "reversed range '12..8'" in err


@pytest.mark.parametrize("argv", [("verify", "--id", "log-coeff", "--hmax", "0"),
                                  ("verify", "--id", "log-coeff", "--hmax", "-2"),
                                  ("conjecture", "--hmax", "0")])
def test_hmax_below_one_exits_config(argv, env_cache, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "--hmax: must be >= 1" in err


@pytest.mark.parametrize("argv, message", [
    (("conjecture", "--trials", "-1"), "--trials: must be >= 0, got -1"),
    (("conjecture", "--zmax", "0"), "--zmax: must be >= 1, got 0"),
    (("simulate", "--jobs", "0"), "--jobs: must be >= 1, got 0"),
    (("simulate", "--jobs", "-2"), "--jobs: must be >= 1, got -2"),
    (("census", "--jobs", "0"), "--jobs: must be >= 1, got 0"),
    (("census", "--jobs", "-2"), "--jobs: must be >= 1, got -2"),
    (("simulate", "--samples", "0"), "--samples: must be >= 1, got 0"),
    (("census", "--samples", "0"), "--samples: must be >= 1, got 0"),
    # below 4 the header named more cycle columns than the rows held
    (("census", "--smax", "2"), "--smax: must be >= 4, got 2"),
])
def test_out_of_range_counts_exit_config(argv, message, env_cache, capsys):
    """A count below its least meaningful value is rejected at parse time,
    before any config line is printed, with a message naming the flag."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and message in err


GRID = ("--n", "6", "--samples", "2")


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--r", "0", *GRID), "error: need r >= 1, got r=0"),
    (("simulate", "--r", "-1", *GRID), "error: need r >= 1, got r=-1"),
    (("census", "--r", "0", *GRID), "error: need r >= 1, got r=0"),
    # i = -1 once read m_n as m_{-1}
    (("simulate", "--i", "-1", "--k", "2", *GRID),
     "error: need i >= 0 in every (i, k) pair"),
    # a z above the pointwise order once failed only in the trials that
    # drew it, after the config line was printed
    (("conjecture", "--zmax", "4", "--trials", "5"),
     "error: --zmax 4 exceeds the pointwise order 3"),
    (("conjecture", "--zmax", "4", "--trials", "100"),
     "error: --zmax 4 exceeds the pointwise order 3"),
    (("conjecture", "--hmax", "1", "--trials", "5"),
     "error: --zmax 2 exceeds the pointwise order 1"),
    # each of these once printed PASS for F at an index that does not exist
    (("verify", "--id", "first-identity", "--i", "-1", "--k", "2"),
     "error: need i >= 0, got i=-1"),
    (("verify", "--id", "second-identity", "--i", "-1", "--k", "2"),
     "error: need i >= 0, got i=-1"),
    (("verify", "--id", "t-cancellation", "--i", "-2", "--k", "3"),
     "error: need i >= 0, got i=-2"),
    # below k = 3 t-cancellation once passed with no level compared, and a
    # negative k once ran no fd-monomial check and exited 0
    (("verify", "--id", "t-cancellation", "--k", "0,1,2"),
     "error: k must be >= 3"),
    (("verify", "--id", "fd-monomial", "--k", "-1"),
     "error: k must be >= 0"),
    # a pair outside i + k <= n at every n once printed a trend with no
    # data behind it and exited 0
    (("simulate", "--n", "4", "--i", "9", "--k", "9"),
     "error: (i, k) = (9, 9) has i + k > n at every n in [4]"),
    (("simulate", "--n", "3", "--i", "0", "--k", "5"),
     "error: (i, k) = (0, 5) has i + k > n at every n in [3]"),
    # n < r once exited 2 only by accident, with an unrelated message
    (("census", "--n", "-2", "--samples", "2"),
     "error: need r <= n, got r=3, n=-2"),
    (("simulate", "--n=-2,6", "--samples", "2"),
     "error: need r <= n, got r=3, n=-2"),
    # --cache was accepted here, but the Monte Carlo commands read no cache
    (("simulate", "--cache", "x", "--samples", "2"),
     "unrecognized arguments: --cache x"),
    (("census", "--cache", "x", "--samples", "2"),
     "unrecognized arguments: --cache x"),
])
def test_out_of_domain_grid_exits_config(argv, message, env_cache, capsys):
    """r < 1, n < r, a negative i, a simulate pair outside i + k <= n at
    every n, a k outside a check's domain, a conjecture --zmax above the
    run's pointwise order or a flag the command does not read is a
    configuration error, raised before any sampling and any stdout, not a
    crash or a silent wrong value."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and message in err


@pytest.mark.parametrize("old, new, message", [
    ("\n1 -2 7/12\n", "\n1 1 7/12\n", "a_2 has r-exponent 1 outside [-2, 0]"),
    ("\n1 -2 7/12\n", "\n1 -5 7/12\n", "a_2 has r-exponent -5 outside [-2, 0]"),
    # -4 once indexed the list of j-coefficients from its end, as j^1
    ("\n1 -2 7/12\n", "\n-4 -2 7/12\n", "negative j-power in a_2"),
    ("a h=2 sym", "a x=2 sym", "entry line without h="),
    ("a h=3 point r=3 j=4", "a h=3 point j=4", "point line without r= or j="),
    # a repeated (j-power, r-exponent) line once kept the last value read
    ("\n1 -2 7/12\n", "\n1 -2 5/12\n1 -2 7/12\n",
     "a_2 gives (j-power 1, r-exponent -2) two values: 5/12 and 7/12"),
], ids=["r-exponent-above", "r-exponent-below", "j-power-negative", "no-h",
        "point-no-r", "pair-repeated"])
def test_malformed_table_exits_config(old, new, message, repo_cache_dir,
                                      tmp_path, capsys):
    """A table file edited out of shape is a configuration error (exit 2)
    that names the fault, not an internal error."""
    name = "atable_r345_seed20250809.txt"
    with open(os.path.join(repo_cache_dir, name)) as fh:
        text = fh.read()
    assert text.count(old) == 1
    (tmp_path / name).write_text(text.replace(old, new))
    code, out, err = run(capsys, "verify", "--cache", str(tmp_path))
    assert code == 2
    assert out == "" and err.startswith(f"error: {message}")


# sha256 of the stdout, captured before the series memo and the unchecked
# r-Laurent paths went in; both outputs must stay byte-identical.
GOLDEN_STDOUT = {
    ("verify", "--suite", "core"):
        "f9d9e9fd6ab336e7c66422bd8867c1054acc1e0398f0f60fe6fdfea0bb0bfaec",
    ("conjecture", "--trials", "20", "--seed", "1"):
        "c8e3f6425ff4c2a9ed221ccd77074c817e58ab94e37d15914d02764843449682",
    # the extended-expansion route at h = 3, captured from the power-sum
    # ln1p and exp before they became graded recurrences
    ("conjecture",):
        "b3586986b5181248abae3295fe2392cd271a7127b1666e4ce668559ee9c0b251",
    ("conjecture", "--hmax", "3", "--zmax", "3", "--trials", "30"):
        "52ac097e19d130c67e647b7e5bc0ca88ca4153d5b84da7429362c07a2566f4d1",
    # single checks through k = 4 and h = 3, where each runs pointwise at
    # r = 3: captured while the expected values were still written twice,
    # once symbolic in r and once as rationals at r = 3
    ("verify", "--id", "first-identity", "--k", "2,3,4"):
        "cfc6ecced4b4eb26c2c1d8215f4f689954f1943073b444679edf14c06d118906",
    ("verify", "--id", "top-coeff", "--k", "2,3,4"):
        "90ff18a578751584f7ed65cbbade5a00f00ba11d0fa298cc46f3b2bc6a03f328",
    ("verify", "--id", "alpha0", "--k", "2,3,4"):
        "6455c0afc9232ec1480c44ba9461a369d310fdb6ed93045aa6ca375c840df1d0",
    ("verify", "--id", "second-identity", "--k", "2,3,4"):
        "194e3752075db5c974079490fffc4b03a650bedd0f79008b52898ea321633253",
    # k = 3 and 4: below k = 3 the check compares nothing and is refused
    ("verify", "--id", "t-cancellation", "--k", "3,4"):
        "f06246ab204f4e5fbde6751122f0e6a0938bea91162f9ec7f38a31344181970c",
    ("verify", "--id", "fd-monomial", "--k", "2,3,4"):
        "8cc3ab9b9cd4a6bf4464809f77861f45ebe54cc7bdbec559963b0fb8bfec38d0",
    ("verify", "--id", "log-coeff", "--hmax", "3"):
        "86d7479884ec1b09a5d3e6a433ca1ab1d12e3df37f7eedbcee35ac006dcb0c41",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT))
def test_identity_commands_golden_stdout(argv, repo_cache_dir, tmp_path,
                                         capsys):
    shipped = os.path.join(repo_cache_dir, "atable_r345_seed20250809.txt")
    for name in ("atable_r345_seed20250809.txt", "atable_r345_seed1.txt"):
        shutil.copyfile(shipped, tmp_path / name)
    code, out, _ = run(capsys, *argv, "--cache", str(tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


def test_every_verify_id_is_pinned():
    """Each check `verify --id` can run has a golden stdout above."""
    from matchdiff.identities import VERIFY_CHECKS

    pinned = {argv[2] for argv in GOLDEN_STDOUT if argv[:2] == ("verify", "--id")}
    assert pinned == set(VERIFY_CHECKS)


def test_conjecture_seed_falls_back_to_default_table(repo_cache_dir,
                                                     tmp_path, capsys):
    """--seed picks the table file when one is derived with it; otherwise
    the default-seed table serves, and --seed only seeds the trials."""
    shipped = os.path.join(repo_cache_dir, "atable_r345_seed20250809.txt")
    shutil.copyfile(shipped, tmp_path / "atable_r345_seed20250809.txt")
    argv = ("conjecture", "--trials", "20", "--seed", "1")
    code, out, _ = run(capsys, *argv, "--cache", str(tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]
    os.remove(tmp_path / "atable_r345_seed20250809.txt")
    code, _, err = run(capsys, *argv, "--cache", str(tmp_path))
    assert code == 2
    assert "no derived table at" in err and "atable_r345_seed1.txt" in err


def test_cold_derivation_reproduces_shipped_cache(repo_cache_dir, tmp_path,
                                                  capsys):
    """A cold default derivation, then a cold strict one into the same
    cache, writes the shipped table files and counts.jsonl byte for byte,
    and logs the derivations in their fixed order."""
    root = str(tmp_path)
    assert main(["derive-atable", "--cache", root]) == 0
    assert main(["derive-atable", "--cache", root, "--strict-girth"]) == 0
    out = capsys.readouterr().out.replace(root, "<root>")
    assert len(out.splitlines()) == 26
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f7f4631a8d79cc9c3e2a2b0338350b85b2dae12c2970ce6273ec273502289006")
    for name in ("counts.jsonl", "atable_r345_seed20250809.txt",
                 "atable_r345s_seed20250809.txt"):
        with open(os.path.join(root, name), "rb") as fh:
            made = fh.read()
        with open(os.path.join(repo_cache_dir, name), "rb") as fh:
            assert made == fh.read(), name


STDLIB_ONLY = """\
import contextlib, io, pkgutil, sys
sys.modules["mpmath"] = None
before = set(sys.modules)
import matchdiff
from matchdiff import cli
for info in pkgutil.iter_modules(matchdiff.__path__):
    __import__("matchdiff." + info.name)
runs = [["verify", "--suite", "core", "--cache", sys.argv[1]],
        ["simulate", "--n", "6", "--samples", "3"],
        ["census", "--n", "6", "--samples", "3"]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"matchdiff"}))
"""


def test_no_check_is_an_assert_statement():
    """`python -O` strips assert statements, so no check in the package may
    live in one: every module of `src/matchdiff` parses with none."""
    import ast

    root = os.path.dirname(matchdiff.__file__)
    names = sorted(name for name in os.listdir(root) if name.endswith(".py"))
    assert "cli.py" in names and "series.py" in names
    found = []
    for name in names:
        with open(os.path.join(root, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_core_suite_under_python_O_matches_golden(repo_cache_dir, tmp_path):
    """With assert statements stripped (`python -O`), `verify --suite core`
    prints the golden stdout byte for byte: no check lives only in an
    assert."""
    shipped = os.path.join(repo_cache_dir, "atable_r345_seed20250809.txt")
    shutil.copyfile(shipped, tmp_path / "atable_r345_seed20250809.txt")
    src = os.path.dirname(os.path.dirname(matchdiff.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    argv = ("verify", "--suite", "core")
    code = ("import sys\n"
            "from matchdiff.cli import main\n"
            "assert False, 'asserts are not stripped'\n"
            "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code, *argv,
                           "--cache", str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() \
        == GOLDEN_STDOUT[argv]


def _names_referenced(node) -> set[str]:
    """Every name `node` reads: plain names, attributes, imported names and
    the last part of a dotted-name string ("module.function")."""
    import ast

    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", sub.value):
            out.add(sub.value.rsplit(".", 1)[-1])
    return out


def _names_defined(stmt) -> list[str]:
    import ast

    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def test_every_public_name_has_a_caller():
    """No API that nothing calls: each public module-level def, class and
    constant of `src/matchdiff` is read by another top-level statement of
    the package or of `perfbench`.  Names that only the tests call live
    in `tests/oracles.py`."""
    import ast

    src = os.path.dirname(matchdiff.__file__)
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    paths = [os.path.join(root, name) for root in (src, bench)
             for name in sorted(os.listdir(root)) if name.endswith(".py")]
    assert os.path.join(bench, "tracer.py") in paths
    stmts = []
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        stmts += [(path, stmt, _names_referenced(stmt)) for stmt in tree.body]
    unread = [f"{os.path.basename(path)}:{name}"
              for path, stmt, _ in stmts if path.startswith(src)
              for name in _names_defined(stmt) if not name.startswith("_")
              and not any(name in names for _, other, names in stmts
                          if other is not stmt)]
    assert unread == []


def test_runs_on_the_standard_library_alone(repo_cache_dir):
    """Every module imports, and verify, simulate and census run, with
    mpmath blocked; nothing outside the standard library gets loaded."""
    src = os.path.dirname(os.path.dirname(matchdiff.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", STDLIB_ONLY, repo_cache_dir],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out == "[]\n"


# What the Monte Carlo path and the command line's own import leave out:
# the standard library's record generator with the inspect chain it loads,
# and the identity checks
NOT_ON_THE_MC_PATH = ("dataclasses", "inspect", "matchdiff.atable",
                      "matchdiff.identities", "matchdiff.kseries")


def _loaded_after(code: str, names=NOT_ON_THE_MC_PATH) -> list[str]:
    """Which of `names` a fresh interpreter holds after running `code`."""
    src = os.path.dirname(os.path.dirname(matchdiff.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = (code + "\nimport sys\n"
             f"print(*sorted(set({tuple(names)!r}) & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_monte_carlo_path_imports_no_identity_checks(repo_cache_dir):
    """A trend report, the command line module, and simulate and census
    runs load neither the identity checks nor the inspect chain, and a
    cache hit of derive-atable loads the table but no identity check; with
    every package module imported the record generator is still absent
    (pkgutil itself loads inspect)."""
    assert _loaded_after(
        "from matchdiff.positivity import trend_report\n"
        "trend_report(3, [6, 8], 5, [(1, 1), (2, 2)], seed=1).csv()") == []
    assert _loaded_after("import matchdiff.cli") == []
    assert _loaded_after(
        "import contextlib, io\n"
        "from matchdiff import cli\n"
        "for argv in (['simulate', '--n', '6', '--samples', '3'],\n"
        "             ['census', '--n', '6', '--samples', '3']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv") == []
    assert _loaded_after(
        "import contextlib, io\n"
        "from matchdiff import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['derive-atable', '--cache',\n"
        f"                     {repo_cache_dir!r}]) == 0") == \
        ["matchdiff.atable"]
    everything = _loaded_after(
        "import pkgutil, matchdiff\n"
        "for info in pkgutil.iter_modules(matchdiff.__path__):\n"
        "    __import__('matchdiff.' + info.name)")
    assert "matchdiff.identities" in everything
    assert "dataclasses" not in everything


_QUIET_MAIN = ("import contextlib, io\n"
               "from matchdiff import cli\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    assert cli.main({argv!r}) == 0\n")


@pytest.mark.parametrize("code", [
    "from matchdiff.positivity import trend_report\n"
    "trend_report(3, [6, 8], 5, [(1, 1), (2, 2)], seed=1).csv()",
    "import os, tempfile\n"
    "from matchdiff import derive\n"
    "with tempfile.TemporaryDirectory() as root:\n"
    "    derive.derive_with_invariance(3, 2, 1, derive._CountCache(root))\n"
    "    assert os.path.getsize(os.path.join(root, 'counts.jsonl'))",
    _QUIET_MAIN.format(argv=["simulate", "--n", "6", "--samples", "3"]),
    _QUIET_MAIN.format(argv=["census", "--n", "6", "--samples", "3"]),
    _QUIET_MAIN.format(argv=["verify", "--suite", "core"]),
    _QUIET_MAIN.format(argv=["conjecture", "--trials", "2"]),
], ids=["trend-report", "derive-cold", "simulate", "census", "verify-core",
        "conjecture"])
def test_no_command_loads_openssl(code, env_cache):
    """hashlib loads OpenSSL, megabytes of resident memory that no command
    needs: graph ids hash with the interpreter's built-in SHA-256.  A cold
    derivation computes ids and writes them to its count cache."""
    assert _loaded_after(code, ("hashlib", "_hashlib")) == []
