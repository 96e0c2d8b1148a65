"""End-to-end command line runs (small configurations)."""

import hashlib
import os
import shutil

import pytest

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
    code, _, err = run(capsys, "verify", "--id", "nonsense")
    assert code == 2


def test_verify_unknown_suite(env_cache, capsys):
    code, out, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert out == "" and "invalid choice" in err


def test_verify_missing_table_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MATCHDIFF_CACHE", str(tmp_path))
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "derive-atable" in err


def test_conjecture_small(env_cache, capsys):
    code, out, _ = run(capsys, "conjecture", "--trials", "3")
    assert code == 0
    assert "bit-identical" in out


def test_conjecture_zero_trials(env_cache, capsys):
    code, out, _ = run(capsys, "conjecture", "--trials", "0")
    assert code == 0
    assert "extended-expansion-empty" in out


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


def test_crash_exits_internal_not_check_failed(env_cache, capsys,
                                               monkeypatch):
    import matchdiff.positivity

    def crash(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(matchdiff.positivity, "trend_report", crash)
    code, _, err = run(capsys, "simulate", "--n", "6", "--samples", "2")
    assert code == EXIT_INTERNAL == 4
    assert "internal error: KeyError: 'boom'" in err


def test_bad_flags_exit_config(capsys):
    code, _, _ = run(capsys, "simulate", "--n", "notanumber")
    assert code == 2


# sha256 of the stdout, captured before the series memo and the unchecked
# RLaurent paths went in; both outputs must stay byte-identical.
GOLDEN_STDOUT = {
    ("verify", "--suite", "core"):
        "f9d9e9fd6ab336e7c66422bd8867c1054acc1e0398f0f60fe6fdfea0bb0bfaec",
    ("conjecture", "--trials", "20", "--seed", "1"):
        "c8e3f6425ff4c2a9ed221ccd77074c817e58ab94e37d15914d02764843449682",
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
