import numpy as np
import pytest

from slowline.params import ValidationError
from slowline.taper import (TaperProblem, optimize, ripple,
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


def test_problem_round_trip(untapered_26):
    p = TaperProblem(base=untapered_26, n_modified=2, band_window=0.5)
    q = TaperProblem.from_dict(p.to_dict())
    assert q.base == p.base
    assert (q.n_modified, q.band_window, q.symmetric) == (2, 0.5, True)
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
