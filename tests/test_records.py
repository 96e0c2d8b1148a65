"""The plain records: keyword constructors, fresh default containers,
value equality, and frozen fields where a record is immutable."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from matchdiff.atable import AEntry, ConjectureSpec
from matchdiff.identities import CheckReport
from matchdiff.matchcount import MatchVector
from matchdiff.positivity import EnsembleStats, TrendReport, TrendRow


def _stats(**changes):
    fields = dict(r=3, n=6, i=1, k=2, samples=10, seed=1,
                  alpha_hat=F(1, 3), beta_hat=F(2, 9), p_violation=F(0))
    fields.update(changes)
    return EnsembleStats(**fields)


def test_default_containers_are_fresh():
    a, b = AEntry(1), AEntry(1)
    assert a.points is not b.points and a.provenance is not b.provenance
    a.points[(3, 2)] = F(1)
    a.provenance.append("x")
    assert b.points == {} and b.provenance == []
    c, d = CheckReport("x"), CheckReport("x")
    assert c.params is not d.params and c.witness is not d.witness
    c.witness[(1, 1)] = "boom"
    assert d.passed and not c.passed
    assert c.note == "" and AEntry(2).sym is None


def test_records_compare_by_value():
    assert MatchVector((1, 9, 18, 6)) == MatchVector((1, 9, 18, 6))
    assert MatchVector((1, 9, 18, 6)) != MatchVector((1, 9, 18, 5))
    assert hash(MatchVector((1, 4, 2))) == hash(MatchVector((1, 4, 2)))
    assert _stats() == _stats()
    assert _stats() != _stats(beta_hat=F(1, 9))
    row = TrendRow(n=6, stats={(1, 2): _stats()}, p_graph_positive=F(1))
    assert row == TrendRow(n=6, stats={(1, 2): _stats()},
                           p_graph_positive=F(1))
    assert row != TrendRow(n=6, stats={(1, 2): _stats()},
                           p_graph_positive=F(1), cycle_totals={4: 2})
    spec = ConjectureSpec(((1, F(5, 7)),))
    assert spec == ConjectureSpec(((1, F(5, 7)),))
    assert spec != ConjectureSpec(((2, F(5, 7)),))
    assert len({spec, ConjectureSpec(((1, F(5, 7)),))}) == 1
    # a record never equals another class with the same fields
    assert MatchVector(((1, F(5, 7)),)) != spec


def test_frozen_records_reject_assignment():
    mvec, spec = MatchVector((1, 4, 2)), ConjectureSpec(())
    with pytest.raises(AttributeError):
        mvec.counts = (1, 4, 3)
    with pytest.raises(AttributeError):
        spec.terms = ((1, F(1)),)
    with pytest.raises(AttributeError):
        del mvec.counts
    assert mvec.counts == (1, 4, 2) and spec.terms == ()
    for rec in (mvec, spec):
        assert copy.deepcopy(rec) == rec
        assert pickle.loads(pickle.dumps(rec)) == rec
    with pytest.raises(ValueError):
        ConjectureSpec(((0, F(1)),))


def test_mutable_records_accept_assignment():
    rep = CheckReport("extended-expansion", {"h": 2})
    rep.id = "extended-expansion-empty"
    assert rep.line() == "extended-expansion-empty h=2 PASS"
    report = TrendReport(r=3, samples=10, seed=1, rows=[])
    report.rows += [TrendRow(n=6, stats={(1, 2): _stats()},
                             p_graph_positive=F(1))]
    assert [row.n for row in report.rows] == [6]
    report.elapsed = 1.5  # a report also carries run data
    with pytest.raises(TypeError):
        hash(rep)
