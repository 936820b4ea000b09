import dataclasses
import math

import numpy as np
import pytest

import slowline.taper
from slowline.devices import untapered_device
from slowline.params import Bend, ValidationError
from slowline.taper import (TaperProblem, _ripple_objective, optimize, ripple,
                            spec_with_couplers)


def test_unmatched_array_has_large_ripple(untapered_26):
    assert ripple(untapered_26, 0.5) > 10.0


def test_matched_array_has_small_ripple(tapered_26):
    assert ripple(tapered_26, 0.5) < 0.5


def test_ripple_window_validation(untapered_26):
    with pytest.raises(ValidationError):
        ripple(untapered_26, 0.0)
    with pytest.raises(ValidationError):
        ripple(untapered_26, 1.5)


def test_problem_validation(untapered_26):
    with pytest.raises(ValidationError):
        TaperProblem(base=untapered_26, n_modified=-1)
    with pytest.raises(ValidationError):
        TaperProblem(base=untapered_26, band_window=0.0)
    with pytest.raises(ValidationError, match="n_modified"):
        TaperProblem(base=untapered_26, n_modified=13)
    TaperProblem(base=untapered_26, n_modified=12)


def test_problem_round_trip(untapered_26):
    p = TaperProblem(base=untapered_26, n_modified=2, band_window=0.5)
    q = TaperProblem.from_dict(p.to_dict())
    assert q.base == p.base
    assert (q.n_modified, q.band_window) == (2, 0.5)
    with pytest.raises(ValidationError, match="bogus"):
        TaperProblem.from_dict({"base": untapered_26.to_dict(), "bogus": 1})


def test_constraint_preserved(tapered_26, untapered_26):
    """Every modified cell keeps the unmodified cell's total capacitance."""
    cell = untapered_26.interior
    total = cell.c0 + 2 * cell.cg
    for b in tapered_26.boundary_in + tapered_26.boundary_out:
        assert b.c_total == pytest.approx(total, rel=1e-12)
        assert b.l0 == cell.l0   # inductance untouched


def test_symmetry(tapered_26):
    assert tapered_26.boundary_in == tapered_26.boundary_out


def test_resonator_count_preserved(tapered_26, untapered_26):
    assert tapered_26.n_resonators == untapered_26.n_resonators


def test_design_ordering(tapered_26, untapered_26):
    """Optimized pattern: port coupler >> second coupler > bulk cg, and the
    port-side shunt pushed below c0."""
    cg = untapered_26.interior.cg
    b1, b2 = tapered_26.boundary_in
    assert b1.c_left > 5 * b2.c_left > 5 * cg
    assert b1.c_shunt < untapered_26.interior.c0


def test_history_monotone(untapered_26):
    report = optimize(TaperProblem(base=untapered_26, n_modified=2))
    vals = [r for _, r in report.history]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert report.ripple_db == pytest.approx(vals[-1])


def test_n_modified_zero_identity(untapered_26):
    report = optimize(TaperProblem(base=untapered_26, n_modified=0))
    assert report.spec == untapered_26
    assert report.n_iterations == 0


def test_more_cells_never_hurt(untapered_26):
    r2 = optimize(TaperProblem(base=untapered_26, n_modified=2,
                               max_iterations=400))
    r3 = optimize(TaperProblem(base=untapered_26, n_modified=3,
                               max_iterations=4000))
    assert r3.ripple_db <= r2.ripple_db + 0.05


def test_spec_with_couplers_positivity(untapered_26):
    """Candidates the cells or the array cannot hold raise ValidationError,
    which the taper objective scores as 1e3: a negative shunt, a zero or NaN
    coupler, and more modified cells than the chain has room for."""
    cell = untapered_26.interior
    for couplers in ([cell.c0 * 2, cell.cg], [0.0, cell.cg],
                     [cell.cg, np.nan], [cell.cg] * 13):
        with pytest.raises(ValidationError):
            spec_with_couplers(untapered_26, couplers)


_BENDS = {None: None, "middle": Bend(position=13, c_series=4e-15),
          "input end": Bend(position=1, c_series=20e-15),
          "output end": Bend(position=25, c_series=20e-15)}


def _base(q_internal, bend):
    """26 cells, lossless or Q = 1e4, with no bend, a bend in the middle, or
    one on coupler 1 or 25: inside the modified cells at the input or the
    output end once n >= 2, the output one in the end cells also at n = 1."""
    return dataclasses.replace(untapered_device(26, q_internal=q_internal),
                               bend=_BENDS[bend])


@pytest.mark.parametrize("bend", list(_BENDS))
@pytest.mark.parametrize("q_internal", [math.inf, 1e4])
def test_objective_matches_full_cascade(q_internal, bend):
    """The objective, which cascades only the 2n modified cells against a
    cached middle, scores a candidate as ripple(spec_with_couplers(...))
    does, for n = 1, 2 and 3 on 30 random couplers each (log-uniform from
    cg / 2 to 400 fF), and every candidate spec_with_couplers rejects (a
    negative shunt, a NaN coupler, and some of the draws) scores 1e3.
    Measured worst case 3.1e-11 dB, on lossless draws with deep nulls; the
    bound is 3e-10 dB, ten times that."""
    rng = np.random.default_rng(25)
    rejected = 0
    for n in (1, 2, 3):
        base = _base(q_internal, bend)
        score = _ripple_objective(TaperProblem(base=base, n_modified=n))
        cell = base.interior
        draws = np.exp(rng.uniform(math.log(cell.cg / 2),
                                   math.log(400e-15), (30, n)))
        for couplers in draws:
            try:
                want = ripple(spec_with_couplers(base, couplers), 0.5)
            except ValidationError:
                want = 1e3
                rejected += 1
            assert abs(score(couplers) - want) <= 3e-10
        for couplers in ([2 * cell.c0] + [cell.cg] * (n - 1),
                         [cell.cg] * (n - 1) + [np.nan]):
            with pytest.raises(ValidationError):
                spec_with_couplers(base, couplers)
            assert score(couplers) == 1e3
    assert rejected > 0


def _full_cascade_objective(problem):
    """The reference objective: every candidate cascaded whole by ripple."""
    def score(couplers):
        try:
            return ripple(spec_with_couplers(problem.base, couplers),
                          problem.band_window)
        except ValidationError:
            return 1e3
    return score


@pytest.mark.parametrize("q_internal, bend, n", [
    (math.inf, None, 2), (math.inf, "input end", 3), (1e4, "middle", 2)])
def test_optimize_follows_full_cascade_search(monkeypatch, q_internal, bend,
                                              n):
    """Nelder-Mead takes the same path on the cached-middle objective as on
    the full cascade: the same couplers bit for bit, iterations and
    improving evaluations, the ripple to 1e-12 dB."""
    problem = TaperProblem(base=_base(q_internal, bend), n_modified=n)
    got = optimize(problem)
    monkeypatch.setattr(slowline.taper, "_ripple_objective",
                        _full_cascade_objective)
    want = optimize(problem)
    assert got.spec == want.spec
    assert got.n_iterations == want.n_iterations
    assert [k for k, _ in got.history] == [k for k, _ in want.history]
    assert abs(got.ripple_db - want.ripple_db) <= 1e-12


def test_optimize_logs_candidates_scored_1e3(monkeypatch, caplog):
    """optimize logs at INFO how many of its candidates scored 1e3: on 50
    cells with two modified, some simplex steps leave the spec checks'
    range (a shunt capacitance below 0)."""
    scores = []

    def counted(problem):
        score = _ripple_objective(problem)
        return lambda couplers: scores.append(score(couplers)) or scores[-1]

    monkeypatch.setattr(slowline.taper, "_ripple_objective", counted)
    with caplog.at_level("INFO", logger="slowline.taper"):
        optimize(TaperProblem(base=untapered_device(50), n_modified=2))
    penalized = scores.count(1e3)
    assert penalized > 0
    assert [r.getMessage() for r in caplog.records] == [
        f"taper: {penalized} of {len(scores)} candidates scored 1e3 (rejected "
        "by the spec checks or non-finite S21 in the band window)"]
