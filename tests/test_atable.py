"""Coefficient table: the closed-form level-1 entry, reconstruction from
counting data, symbolic fits with held-out validation, series builders,
and file round-trips."""

import copy
import os
from fractions import Fraction as F

import pytest

from matchdiff import derive
from matchdiff.atable import (ATable, ATableError, ConjectureSpec, FitError,
                              QualificationError, a1_builtin,
                              build_F_conjecture, build_H, derive_M_pointwise,
                              export_atable, fit_atable, import_atable,
                              root_product)
from matchdiff.derive import (_CountCache, candidate_sizes, count_mj,
                              derive_with_invariance, qualified_family)
from matchdiff.graphs import incidence_pg, random_lift
from matchdiff.identities import build_F
from matchdiff.matchcount import MatchVector, match_count_upto
from matchdiff.rng import DEFAULT_SEED
from matchdiff.series import InconsistentSystemError, JPoly, NSeries


def test_a1_builtin_values():
    a1 = a1_builtin()
    assert a1.at(2, 3) == F(-5, 3)
    assert a1.subst_j(1).is_zero()
    assert a1.coeff(2) == JPoly.laurent({-1: F(1, 2), 0: F(-1)})


def test_root_product():
    pi = root_product(2)
    assert pi.subst_j(0).is_zero() and pi.subst_j(2).is_zero()
    assert pi.subst_j(4).as_rat() == 4 * 3 * 2


def test_derive_pointwise_heawood_family():
    """The pipeline's self-test: a_1(3, 2) from real counting data."""
    hw = incidence_pg(2)
    fam = [hw, random_lift(hw, 2, seed=1), random_lift(hw, 3, seed=2)]
    samples = [(g.n, match_count_upto(g, 2).counts[2]) for g in fam]
    got = derive_M_pointwise(3, 2, samples)
    assert got == {1: F(-5, 3)}


def test_derive_pointwise_r4():
    pg = incidence_pg(3)
    fam = [pg, random_lift(pg, 2, seed=3), random_lift(pg, 3, seed=4)]
    samples = [(g.n, match_count_upto(g, 2).counts[2]) for g in fam]
    assert derive_M_pointwise(4, 2, samples) == {1: F(-7, 4)}


def test_derive_pointwise_j1_consistency():
    hw = incidence_pg(2)
    assert derive_M_pointwise(3, 1, [(7, 21), (14, 42)]) == {}
    with pytest.raises(QualificationError):
        derive_M_pointwise(3, 1, [(7, 20), (14, 42)])


def test_derive_pointwise_needs_distinct_n():
    with pytest.raises(ATableError):
        derive_M_pointwise(3, 2, [(7, 168), (7, 168)])
    with pytest.raises(ATableError):
        derive_M_pointwise(3, 3, [(7, 644), (14, 5908)])


def test_derive_pointwise_flags_unqualified_family():
    """Feeding a 4-cycle-rich graph where girth 6 is required breaks the
    consistency row."""
    hw = incidence_pg(2)
    fams = [hw, random_lift(hw, 2, seed=1), random_lift(hw, 3, seed=2),
            random_lift(hw, 4, seed=3), random_lift(hw, 5, seed=4)]
    samples = [(g.n, match_count_upto(g, 4).counts[4]) for g in fams]
    good = derive_M_pointwise(3, 4, samples)
    assert 3 in good
    from matchdiff.graphs import gen_regular_bipartite
    bad_graph = gen_regular_bipartite(18, 3, seed=0)  # girth 4, not qualified
    bad = samples[:4] + [(18, match_count_upto(bad_graph, 4).counts[4])]
    with pytest.raises(QualificationError):
        derive_M_pointwise(3, 4, bad)


def test_fit_reproduces_synthetic_polynomial():
    # a synthetic level-2 entry with the forced roots and r^-2..r^0
    quotient = JPoly([JPoly.laurent({0: F(1, 3), -2: F(-2, 7)}),
                      JPoly.laurent({-1: F(5, 2)})])
    truth = root_product(2) * quotient
    points = {(r, j): truth.at(j, r)
              for r in (3, 4, 5) for j in (3, 4, 5)}
    fitted = fit_atable(points, 2)
    assert fitted == truth


def test_fit_rejects_corrupt_sample():
    truth = root_product(1) * JPoly.laurent({0: F(1), -1: F(-1, 2)})
    points = {(r, j): truth.at(j, r)
              for r in (3, 4, 5) for j in (2, 3)}
    points[(5, 3)] += 1
    with pytest.raises(FitError):
        fit_atable(points, 1)


def test_fit_requires_held_out_row():
    with pytest.raises(FitError):
        fit_atable({(3, 2): F(-5, 3), (4, 2): F(-7, 4)}, 1)
    with pytest.raises(FitError):
        fit_atable({}, 1)


def test_reconstruction_invariance_smoke():
    vals = derive_with_invariance(3, 2, seed=123)
    assert vals == {1: F(-5, 3)}


def test_strict_policy_agrees_on_overlap(table, repo_cache_dir):
    """girth > 2j derivation must reproduce the default-policy entries."""
    from matchdiff.derive import build_default_table

    strict = build_default_table(root=repo_cache_dir, strict=True)
    assert strict.entries[1].sym == table.entries[1].sym == a1_builtin()
    (r, j), = ((3, 3),)
    assert strict.value(2, r, j) == table.value(2, r, j)


def test_count_cache_survives_torn_tail(tmp_path):
    cache = _CountCache(str(tmp_path))
    cache.put("bg-a", 2, 10)
    cache.put("bg-b", 3, 20)
    path = tmp_path / "counts.jsonl"
    with open(path, "a") as fh:
        fh.write('{"g": "bg-c", "j": 4, "m": 3')  # killed mid-append
    cache = _CountCache(str(tmp_path))
    assert cache.data == {("bg-a", 2): 10, ("bg-b", 3): 20}
    cache.put("bg-d", 5, 40)
    reloaded = _CountCache(str(tmp_path)).data
    assert reloaded == {("bg-a", 2): 10, ("bg-b", 3): 20, ("bg-d", 5): 40}
    assert path.read_text().count("\n") == 3


def test_count_cache_keeps_unterminated_record(tmp_path):
    path = tmp_path / "counts.jsonl"
    path.write_text('{"g": "bg-a", "j": 2, "m": 10}')
    cache = _CountCache(str(tmp_path))
    assert cache.get("bg-a", 2) == 10
    cache.put("bg-b", 3, 20)
    assert _CountCache(str(tmp_path)).data == {("bg-a", 2): 10,
                                               ("bg-b", 3): 20}


def test_count_cache_rejects_corrupt_line(tmp_path):
    path = tmp_path / "counts.jsonl"
    path.write_text('{"g": "bg-a", "j": 2, "m\n'
                    '{"g": "bg-b", "j": 3, "m": 20}\n')
    with pytest.raises(ValueError):
        _CountCache(str(tmp_path))
    path.write_text('{"g": "bg-a", "j": 2, "m": 1\n')
    with pytest.raises(ValueError):
        _CountCache(str(tmp_path))


def test_count_mj_validates_fresh_counts(tmp_path, monkeypatch):
    """A freshly counted vector that breaks the m_2 closed form raises, and
    its m_j never reaches the cache."""
    hw = incidence_pg(2)
    cache = _CountCache(str(tmp_path))
    assert count_mj(hw, 2, cache) == 21 * 20 // 2 - 2 * 7 * 3
    path = tmp_path / "counts.jsonl"
    before = path.read_text()
    assert before.count("\n") == 1
    counter = derive.match_count_upto

    def bad_m2(g, j):
        counts = list(counter(g, j).counts)
        counts[2] += 1
        return MatchVector(tuple(counts))

    monkeypatch.setattr(derive, "match_count_upto", bad_m2)
    with pytest.raises(AssertionError, match="m_2"):
        count_mj(hw, 3, cache)
    assert path.read_text() == before
    assert cache.get(hw.graph_id(), 3) is None


def test_table_predicts_held_out_cage_counts(table):
    """The 12-cage (girth 12, never used in any fit) must have its exact
    matching counts reproduced by the M_j formula with the derived table;
    this exercises the pointwise a_3, a_4 entries on independent data."""
    from math import factorial

    from matchdiff.graphs import builtin_graph

    cage = builtin_graph("tutte_12cage")
    n, r = cage.n, cage.r
    j_max = 5
    counts = match_count_upto(cage, j_max).counts
    for j in range(2, j_max + 1):
        pred = F(n ** j * r ** j, factorial(j)) * (
            1 + sum(table.value(h, r, j) * F(1, n ** h)
                    for h in range(1, j)))
        assert pred == counts[j], j


def test_qualified_family_enforces_girth():
    from matchdiff.graphs import girth

    fam = qualified_family(3, 4, 4, seed=5, style="structured")
    assert len(fam) == 4
    assert all(girth(g) >= 6 for g in fam)
    assert len({g.n for g in fam}) == 4


def test_girth6_sizes_skip_the_impossible_one():
    """At n = r^2 - r + 2 a girth-6 graph needs r^(n/2+2) (r-2)^(n/2-1) to
    be a square (Bose-Connor).  The size stays at r = 3 (the
    Moebius-Kantor graph) and r = 4, where circulants reach girth 6, and
    is dropped at r = 5 and 7."""
    from matchdiff.graphs import find_circulant, girth

    for r, kept in ((3, True), (4, True), (5, False), (7, False)):
        n = r * r - r + 2
        sizes = candidate_sizes(r, 4)  # j = 4 needs girth 6
        assert (n in sizes) == kept, r
        assert sizes[0] == n - 1 and len(sizes) == 39 + kept
        if kept:
            assert girth(find_circulant(n, r, 6)) == 6


def test_table_store_and_conflicts():
    t = ATable()
    t.set_sym(1, a1_builtin(), "builtin")
    assert t.value(1, 3, 2) == F(-5, 3)
    assert t.value(1, 3, 0) == 0 and t.value(1, 3, 1) == 0
    t.add_point(2, 3, 3, F(-37, 6), "test")  # arbitrary but self-consistent
    with pytest.raises(ATableError):
        t.add_point(2, 3, 3, F(1), "conflict")
    with pytest.raises(ATableError):
        t.add_point(1, 3, 2, F(0), "conflicts with symbolic")
    with pytest.raises(ATableError, match="must vanish at j=1"):
        t.set_sym(1, JPoly.monomial(1), "no roots")
    # an a_1 point meets the closed-form rule first, so the conflict with a
    # symbolic entry is checked at h = 2
    t = ATable()
    t.set_sym(2, root_product(2), "arbitrary but well-formed")
    with pytest.raises(ATableError, match="conflicts with symbolic entry"):
        t.add_point(2, 3, 3, F(0), "conflicts with symbolic")


def test_a1_closed_form_enforced_on_every_entry():
    """j(j-1) keeps the degree, r-exponent and root rules of a_1 but is
    not its closed form; neither it nor a wrong point may enter a table."""
    t = ATable()
    with pytest.raises(ATableError, match="closed form"):
        t.set_sym(1, root_product(1), "roots only")
    with pytest.raises(ATableError, match="closed form"):
        t.add_point(1, 3, 2, F(-1), "wrong point")
    t.add_point(1, 3, 2, F(-5, 3), "closed form")
    assert 1 in t.entries and t.entries[1].sym is None


def test_jpoly_at_r_interpolates_points(table):
    jp = table.jpoly_at_r(3, 3)
    assert jp.deg <= 6
    for j in range(0, 4):
        assert jp.subst_j(j).is_zero()
    assert jp.subst_j(4).as_rat() == table.value(3, 3, 4)


def test_jpoly_at_r_square_case_unchanged(table):
    """a_3 at r=3 has exactly 3 points beyond the roots (a square solve);
    the coefficients of j^1..j^6 as they were under the dedicated square
    solver."""
    jp = table.jpoly_at_r(3, 3)
    assert jp.deg == 6
    assert [jp.coeff(i).as_rat() for i in range(jp.deg + 1)] == [
        0, F(4, 27), F(-71, 648), F(557, 1296), F(-133, 144), F(715, 1296),
        F(-125, 1296)]


def test_jpoly_at_r_needs_h_points_and_holds_out_the_rest(table):
    """Pointwise a_3 at r = 3 needs 3 values past the roots; a fourth is a
    held-out row of the same root-divided solve that `fit_atable` runs."""
    jp = table.jpoly_at_r(3, 3)
    t = ATable()
    for j in (4, 5):
        t.add_point(3, 3, j, table.value(3, 3, j), "test")
    with pytest.raises(ATableError, match=r"need pointwise a_3\(3, j\) at 3 "
                       r"points beyond the roots to interpolate, have "
                       r"j=\[4, 5\]"):
        t.jpoly_at_r(3, 3)
    for j in (6, 7):
        t.add_point(3, 3, j, jp.at(j, 3), "test")
    assert t.jpoly_at_r(3, 3) == jp
    t.entries[3].points[(3, 7)] += 1
    with pytest.raises(InconsistentSystemError):
        t.jpoly_at_r(3, 3)


def test_export_failing_part_way_leaves_no_table(table, repo_cache_dir,
                                                 tmp_path, monkeypatch):
    """A table write that fails part way leaves no file at the target, so
    the next `build_default_table` derives the table rather than loading
    a torn one as a cache hit."""
    from matchdiff import atable

    root = str(tmp_path)
    with open(os.path.join(repo_cache_dir, "counts.jsonl"), "rb") as fh:
        (tmp_path / "counts.jsonl").write_bytes(fh.read())
    path = derive.default_table_path(root, (3, 4, 5), DEFAULT_SEED, False)

    class Torn:
        """A file whose write stops half way with a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            raise OSError("No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(atable, "open", lambda *a: Torn(open(*a)),
                      raising=False)
        with pytest.raises(OSError, match="No space left"):
            export_atable(table, path)
    assert os.listdir(root) == ["counts.jsonl"]
    derive.build_default_table(root)
    with open(path, "rb") as made, \
            open(os.path.join(repo_cache_dir, os.path.basename(path)),
                 "rb") as shipped:
        assert made.read() == shipped.read()


def _fresh_copy(table: ATable) -> ATable:
    """Same entries, empty series memo."""
    fresh = ATable()
    fresh.entries = copy.deepcopy(table.entries)
    return fresh


def _builds(table: ATable):
    spec = ConjectureSpec(((1, F(2, 3)), (2, F(-1, 5))))
    return [build_F(table, 2), build_F(table, 3, at_r=3),
            build_F_conjecture(table, spec, 2),
            build_F_conjecture(table, spec, 3, at_r=3)]


def test_series_memo_tracks_entry_changes(table):
    t = copy.deepcopy(table)
    before = _builds(t)
    assert build_F(t, 2) is before[0]  # memo hit

    # direct assignment: a corrupted a_2 must not be served from the memo
    t.entries[2].sym = t.entries[2].sym + JPoly.monomial(4, F(1, 9))
    after = _builds(t)
    assert after == _builds(_fresh_copy(t))
    assert after[0] != before[0] and after[2] != before[2]

    # set_sym: a_3 becomes symbolic (constant in r), so h_max=3 builds
    # symbolic in r now work and equal a fresh build
    t = copy.deepcopy(table)
    _builds(t)
    t.set_sym(3, table.jpoly_at_r(3, 3), "test")
    assert _builds(t) == _builds(_fresh_copy(t))
    assert build_F(t, 3) == build_F(_fresh_copy(t), 3)

    # add_point: a held-out value inconsistent with the interpolant must
    # fail the rebuild instead of returning the memoized series
    t = copy.deepcopy(table)
    _builds(t)
    t.add_point(3, 3, 7, F(1), "test")
    with pytest.raises(InconsistentSystemError):
        build_F(t, 3, at_r=3)
    with pytest.raises(InconsistentSystemError):
        build_F_conjecture(t, ConjectureSpec(((1, F(1)),)), 3, at_r=3)


def test_series_memo_is_per_table(repo_cache_dir):
    path = os.path.join(repo_cache_dir, "atable_r345_seed20250809.txt")
    t1, t2 = import_atable(path), import_atable(path)
    f1 = build_F(t1, 2)
    assert build_F(t1, 2) is f1
    assert not t2._series
    f2 = build_F(t2, 2)
    assert f2 is not f1 and f2 == f1


def test_build_H_level1(table):
    h = build_H(table, 1)
    assert h.jpoly(1) == a1_builtin()


def test_build_H_log_coefficients(table):
    lnh = (build_H(table, 2)).ln1p()
    assert lnh.coeff(3, 2) == JPoly.laurent({-2: F(1, 6), 0: F(-1, 3)})
    assert lnh.coeff(4, 2).is_zero()


def test_conjecture_series_empty_spec(table):
    f = build_F_conjecture(table, ConjectureSpec(()), 2)
    assert f == NSeries.one(2) + build_H(table, 2)


def test_conjecture_series_single_term(table):
    # z=1 term adds c j/(n r) (1 + a_1(r, j-1)/n + ...)
    c = F(5, 7)
    f = build_F_conjecture(table, ConjectureSpec(((1, c),)), 2)
    base = NSeries.one(2) + build_H(table, 2)
    delta = f - base
    assert delta.coeff(1, 1) == JPoly.laurent({-1: c})
    # level 2, j-part: c/r * j * a_1(r, j-1)
    expect = (JPoly.monomial(1) * a1_builtin().shift_j(1)) * \
        JPoly.laurent({-1: c})
    assert delta.jpoly(2) == expect


def test_conjecture_series_vanishes_at_zero(table):
    f = build_F_conjecture(table, ConjectureSpec(((1, F(2, 3)), (2, F(-1, 5)))), 2)
    assert f.subst_j(0) == NSeries.one(2)
    with pytest.raises(ATableError):
        build_F_conjecture(table, ConjectureSpec(((3, F(1)),)), 2)
    with pytest.raises(ValueError):
        ConjectureSpec(((0, F(1)),))


def test_export_import_roundtrip(table, tmp_path):
    path = tmp_path / "t.txt"
    export_atable(table, path)
    again = import_atable(path)
    assert again.entries[1].sym == table.entries[1].sym
    assert again.entries[2].sym == table.entries[2].sym
    assert again.entries[3].points == table.entries[3].points
    path2 = tmp_path / "t2.txt"
    export_atable(again, path2)
    assert path.read_text().splitlines()[2:] != [] \
        and [l for l in path.read_text().splitlines() if not l.startswith("#")] \
        == [l for l in path2.read_text().splitlines() if not l.startswith("#")]


def test_import_rejects_wrong_a1(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("atable version=1\na h=1 sym\n1 0 -1\n2 0 1\n")
    with pytest.raises(ATableError):
        import_atable(path)


def test_import_rejects_malformed(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("something else\n")
    with pytest.raises(ATableError):
        import_atable(path)
