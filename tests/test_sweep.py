"""Parameter sweeps, gap curves, and avoided-crossing detection."""

import math

import numpy as np
import pytest

from dwcross.errors import ModelMismatchError, NonConvergenceError
from dwcross.models import M1Params, M2Params, M3Params, UnitsConfig
from dwcross.rootfind import RootfindConfig
from dwcross.sweep import (
    SweepSpec,
    default_gap_ceiling,
    detect_avoided_crossings,
    edge_candidates,
    effective_levels,
    gap_curves,
    sweep_levels,
)

U1 = UnitsConfig(1.0)


class TestSweepSpec:
    def test_window_order(self):
        with pytest.raises(ValueError):
            SweepSpec(2.0, 1.0, 10, 3)

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            SweepSpec(0.1, 1.0, 1, 3)
        with pytest.raises(ValueError):
            SweepSpec(0.1, 1.0, 10, 1)

    def test_invalid_grid_point_rejected(self):
        # c must stay above b = 1 at every grid point
        spec = SweepSpec(0.5, 3.0, 6, 2)
        with pytest.raises(ValueError, match=r"grid index 0 \(c=0.5\)"):
            sweep_levels(M2Params(10.0, 2.0, 1.0, 2.0), U1, spec)


class TestSweepLevels:
    def test_free_well_closed_form(self):
        spec = SweepSpec(0.5, 3.0, 11, 3)
        table = sweep_levels(M1Params(0.0, 2.0, 2.0), U1, spec)
        assert table.levels.shape == (11, 3)
        for i, b in enumerate(table.lambdas):
            for n in (1, 2, 3):
                want = (n * math.pi / (2.0 + b)) ** 2
                assert table.levels[i, n - 1] == pytest.approx(want, abs=1e-8)

    def test_rows_strictly_ascending(self):
        spec = SweepSpec(0.8, 2.4, 9, 4)
        table = sweep_levels(M3Params(10.0, 2.0, 2.0), U1, spec)
        assert np.all(np.diff(table.levels, axis=1) > 0.0)

    def test_failure_reports_grid_index(self):
        # an expansion-capped solve fails; the sweep must name the point
        spec = SweepSpec(0.01, 0.03, 3, 4)
        cfg = RootfindConfig(e_max=20.0)
        with pytest.raises(NonConvergenceError, match="grid index"):
            sweep_levels(M1Params(0.0, 0.02, 0.02), U1, spec, cfg)


class TestGapCurves:
    def test_positive_and_telescoping(self):
        spec = SweepSpec(0.5, 3.0, 7, 4)
        table = sweep_levels(M1Params(10.0, 2.0, 2.0), U1, spec)
        gaps = gap_curves(table)
        assert gaps.shape == (7, 3)
        assert np.all(gaps > 0.0)
        # row sums telescope to E_top - E_bottom
        np.testing.assert_allclose(
            gaps.sum(axis=1), table.levels[:, -1] - table.levels[:, 0], rtol=1e-12
        )

    def test_constant_columns_give_constant_gap(self):
        table = sweep_levels(
            M1Params(0.0, 2.0, 2.0), U1, SweepSpec(1.0, 1.0 + 1e-12, 2, 3)
        )
        gaps = gap_curves(table)
        assert gaps[0, 0] == pytest.approx(gaps[1, 0], rel=1e-6)


class TestEffectiveLevels:
    def test_exact_cancellation_at_zero_strength(self):
        spec = SweepSpec(0.5, 4.0, 9, 3)
        table = sweep_levels(M1Params(0.0, 2.0, 2.0), U1, spec)
        eff = effective_levels(table)
        for n in (1, 2, 3):
            assert np.allclose(eff[:, n - 1], (n * math.pi) ** 2, atol=1e-6)

    def test_ordering_preserved(self):
        spec = SweepSpec(0.5, 4.0, 9, 4)
        table = sweep_levels(M1Params(10.0, 2.0, 2.0), U1, spec)
        eff = effective_levels(table)
        assert np.all(np.diff(eff, axis=1) > 0.0)

    def test_wrong_model_rejected(self):
        spec = SweepSpec(1.0, 2.0, 4, 2)
        table = sweep_levels(M3Params(0.0, 2.0, 2.0), U1, spec)
        with pytest.raises(ModelMismatchError):
            effective_levels(table)

    def test_wide_sweep_is_bounded_wavy_and_keeps_minima(self):
        # electron-mass units, wide sweep: raw levels collapse as the well
        # grows, while the width-scaled levels stay bounded, wave up and
        # down, and keep the gap-minimum locations
        units = UnitsConfig(0.2625)
        model = M1Params(20.0, 5.0, 5.0)
        table = sweep_levels(model, units, SweepSpec(0.5, 25.0, 250, 4))
        eff = effective_levels(table)
        assert float(eff.max()) < 400.0
        turns = np.abs(np.diff(np.sign(np.diff(eff[:, 1])))) > 0
        assert int(turns.sum()) >= 2
        raw_gaps = gap_curves(table)
        eff_gaps = np.diff(eff, axis=1)
        cell = float(table.lambdas[1] - table.lambdas[0])
        for col in (1, 2):  # interior minima columns
            raw_star = table.lambdas[np.argmin(raw_gaps[:, col])]
            eff_star = table.lambdas[np.argmin(eff_gaps[:, col])]
            assert abs(raw_star - eff_star) <= 2.0 * cell


class TestDetection:
    def test_symmetric_point_crossing(self):
        # the b ~ 2 avoided crossing of the delta-in-box family
        model = M1Params(10.0, 2.0, 2.0)
        spec = SweepSpec(1.5, 2.5, 41, 2)
        acs = detect_avoided_crossings(sweep_levels(model, U1, spec), gap_ceiling=1.0)
        assert len(acs) == 1
        ac = acs[0]
        assert ac.level_index == 1
        assert ac.lambda_star == pytest.approx(2.0276, abs=5e-3)
        assert ac.gap == pytest.approx(0.41451, abs=1e-3)
        assert ac.gap > 0.0
        assert spec.lambda_min < ac.lambda_star < spec.lambda_max

    def test_refinement_improves_on_grid(self):
        model = M1Params(10.0, 2.0, 2.0)
        spec = SweepSpec(1.5, 2.5, 21, 2)
        table = sweep_levels(model, U1, spec)
        coarse_min = float(gap_curves(table)[:, 0].min())
        acs = detect_avoided_crossings(table, gap_ceiling=1.0)
        assert len(acs) == 1
        assert acs[0].gap <= coarse_min + 1e-12

    def test_grid_independence(self):
        model = M1Params(10.0, 2.0, 2.0)
        lam_tol = (2.5 - 1.5) * 1e-4
        results = []
        for steps in (31, 62):
            spec = SweepSpec(1.5, 2.5, steps, 2)
            acs = detect_avoided_crossings(sweep_levels(model, U1, spec), gap_ceiling=1.0)
            results.append(acs)
        assert len(results[0]) == len(results[1]) == 1
        assert abs(results[0][0].lambda_star - results[1][0].lambda_star) <= lam_tol

    def test_free_well_has_no_crossings(self):
        # smooth monotone curves: no gap minima below any ceiling under
        # the smallest level spacing
        model = M1Params(0.0, 2.0, 2.0)
        spec = SweepSpec(0.5, 3.0, 31, 3)
        table = sweep_levels(model, U1, spec)
        ceiling = 0.9 * float(gap_curves(table).min())
        acs = detect_avoided_crossings(table, gap_ceiling=ceiling)
        assert acs == []

    def test_sorted_by_lambda(self):
        model = M2Params(10.0, 2.0, 1.0, 2.0)
        spec = SweepSpec(1.8, 3.6, 61, 4)
        acs = detect_avoided_crossings(sweep_levels(model, U1, spec))
        stars = [ac.lambda_star for ac in acs]
        assert stars == sorted(stars)
        assert len(acs) == 2  # the c ~ 2.0 and c ~ 3.36 crossings

    def test_default_ceiling_is_fifth_of_median(self):
        model = M1Params(10.0, 2.0, 2.0)
        spec = SweepSpec(1.5, 2.5, 11, 3)
        table = sweep_levels(model, U1, spec)
        gaps = sorted(gap_curves(table).ravel().tolist())
        n = len(gaps)
        med = gaps[n // 2] if n % 2 else 0.5 * (gaps[n // 2 - 1] + gaps[n // 2])
        assert default_gap_ceiling(table) == pytest.approx(0.2 * med, rel=1e-12)


class TestGapProbe:
    def test_focused_and_wide_windows_agree(self):
        # the refinement probe labels its two roots by count indices, so a
        # window starting below level col, or between the pair (which the
        # probe lowers to e_min), gives the same pair as a focused one
        from dwcross.sweep import _gap_at

        model = M2Params(10.0, 2.0, 1.0, 2.0)
        cfg = RootfindConfig()
        lam = 3.3553
        focused = _gap_at(model, U1, lam, 1, cfg, 4.8, 6.2)
        for e_lo, e_hi in ((0.5, 11.5), (5.38, 6.2)):
            other = _gap_at(model, U1, lam, 1, cfg, e_lo, e_hi)
            assert focused[0] == pytest.approx(other[0], abs=1e-8)
            assert focused[1] == pytest.approx(other[1], abs=1e-8)
        assert focused[0] == pytest.approx(0.0617, abs=1e-3)

    def test_probe_labels_by_count_above_e_min(self, monkeypatch):
        # with e_min above the ground state over part of the fig3 sweep,
        # column col holds count index N(e_min)+col+1: every probe finds its
        # pair by that label, with no full solve, and each crossing matches
        # a full solve at its lambda_star
        from dwcross import sweep
        from dwcross.cli import parse_config

        run = parse_config(["detect", "--preset", "fig3", "--e-min", "1.0"])
        cfg = run.build_rootfind()
        table = sweep_levels(run.build_model(), run.build_units(), run.build_sweep_spec(), cfg)
        solves = []
        solve_levels = sweep.solve_levels
        monkeypatch.setattr(sweep, "solve_levels", lambda *a: solves.append(a) or solve_levels(*a))
        acs = detect_avoided_crossings(table, cfg, run.gap_ceiling)
        monkeypatch.undo()
        assert acs and solves == []
        for ac in acs:
            levels = solve_levels(
                table.model.at(ac.lambda_star), table.units, ac.level_index + 1, cfg
            )
            lo, hi = levels[-2:]
            assert ac.gap == pytest.approx(hi - lo, abs=2.0 * cfg.tol_abs)
            assert ac.e_mid == pytest.approx(0.5 * (lo + hi), abs=2.0 * cfg.tol_abs)


class TestEdgeCandidates:
    def test_gap_falling_into_window_edge(self):
        # the c ~ 6 feature sits at the fig5 window boundary
        model = M2Params(10.0, 2.0, 1.0, 2.0)
        spec = SweepSpec(5.2, 6.0, 17, 5)
        table = sweep_levels(model, U1, spec)
        edges = edge_candidates(table, gap_ceiling=0.6)
        assert any(
            ac.lambda_star == spec.lambda_max and ac.gap < 0.6 for ac in edges
        )
        # edge candidates are never reported by the certified detector
        acs = detect_avoided_crossings(table, gap_ceiling=0.6)
        for ac in acs:
            assert spec.lambda_min < ac.lambda_star < spec.lambda_max
