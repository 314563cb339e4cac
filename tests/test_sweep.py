"""Parameter sweeps, gap curves, and avoided-crossing detection."""

import math
import re

import numpy as np
import pytest

import reference_oracles
from dwcross import rootfind, sweep
from dwcross.cli import PRESETS, main, parse_config
from dwcross.errors import ConfigError, ModelMismatchError, NonConvergenceError
from dwcross.models import M1Params, M2Params, M3Params, UnitsConfig
from dwcross.rootfind import RootfindConfig, solve_levels
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

    def test_invalid_grid_point_rejected_before_any_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(M2Params, "char_values", lambda *a, **k: calls.append(a))
        spec = SweepSpec(0.8, 3.0, 12, 2)
        with pytest.raises(ConfigError, match=r"^sweep grid index 0 \(c=0\.8\): m2 requires c > b"):
            sweep_levels(M2Params(10.0, 2.0, 1.0, 2.0), U1, spec)
        assert calls == []


class _NonFiniteAtOnePoint(M1Params):
    """F is NaN above 5 eV where b = 2.0."""

    def char_values(self, energies, units, at=None):
        values, counts = super().char_values(energies, units, at)
        hit = (np.asarray(self.b if at is None else at) == 2.0) & (energies > 5.0)
        return np.where(hit, np.nan, values), counts


class _FallingCountAtOnePoint(M1Params):
    """The count drops to 0 above 5 eV where b = 2.0."""

    def char_values(self, energies, units, at=None):
        values, counts = super().char_values(energies, units, at)
        hit = (np.asarray(self.b if at is None else at) == 2.0) & (energies > 5.0)
        return values, np.where(hit, 0.0, counts)


class _NonFiniteInBracket(M1Params):
    """F is NaN strictly inside (lo, hi) = inside where b = 2.0."""

    inside = (0.0, 0.0)

    def char_values(self, energies, units, at=None):
        values, counts = super().char_values(energies, units, at)
        lo, hi = self.inside
        hit = (np.asarray(self.b if at is None else at) == 2.0) & (lo < energies) & (energies < hi)
        return np.where(hit, np.nan, values), counts


class _TwoFailingPoints(M1Params):
    """Above 5 eV the count drops to 0 where b = falling, and F is NaN
    where b = nan."""

    falling = nan = None

    def char_values(self, energies, units, at=None):
        values, counts = super().char_values(energies, units, at)
        b = np.asarray(self.b if at is None else at)
        high = energies > 5.0
        return (
            np.where((b == self.nan) & high, np.nan, values),
            np.where((b == self.falling) & high, 0.0, counts),
        )


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

    def test_levels_are_one_float64_array(self):
        spec = SweepSpec(1.0, 3.0, 9, 3)
        table = sweep_levels(M1Params(10.0, 2.0, 2.0), U1, spec)
        assert type(table.levels) is np.ndarray
        assert table.levels.dtype == np.float64 and table.levels.shape == (9, 3)

    def test_failure_reports_grid_index(self, first_top):
        # a solve that its 64 window growths leave short fails; the sweep
        # must name the point, here the narrowest well, b = 0.01
        spec = SweepSpec(0.01, 0.03, 3, 4)
        model = M1Params(0.0, 0.02, 0.02)
        first_top(model, 2e-9)
        message = r"^sweep failed at grid index 0 \(b=0\.01\): .* after 64 growths$"
        with pytest.raises(NonConvergenceError, match=message) as info:
            sweep_levels(model, U1, spec)
        assert info.value.row == 0

    @pytest.mark.parametrize(
        "cls,stage",
        [(_NonFiniteAtOnePoint, r"scan: F is not finite at E=\S+"),
         (_FallingCountAtOnePoint, r"count: N = \d+ at E=\S+ and \d+ at E=\S+ is not one "
                                   r"level per sign change of F")],
    )
    def test_middle_row_failure_names_its_index(self, cls, stage):
        # only the point b = 2.0, grid index 4 of 9, fails; the other rows
        # share the sweep's one scan and go on
        spec = SweepSpec(1.0, 3.0, 9, 3)
        model = cls(10.0, 2.0, 2.0)
        top = M1Params(10.0, 2.0, 2.0).level_window(U1, 3)
        message = (
            rf"^sweep failed at grid index 4 \(b=2\.0\): {cls.__name__}\(v0=10\.0, a=2\.0, "
            rf"b=2\.0\): {stage} in the window \[1e-09, {top}\] eV$"
        )
        with pytest.raises(NonConvergenceError, match=message) as info:
            sweep_levels(model, U1, spec)
        assert info.value.row == 4

    def test_earliest_round_failure_is_named(self, monkeypatch):
        # the count falls at grid index 10 and F is NaN at index 150: the
        # NaN fails the window search's first call before its counts are
        # read, so index 150 is named though index 10 comes first
        spec = SweepSpec(1.0, 3.0, 201, 3)
        lams = spec.grid()
        monkeypatch.setattr(_TwoFailingPoints, "falling", lams[10])
        monkeypatch.setattr(_TwoFailingPoints, "nan", lams[150])
        message = (
            r"^sweep failed at grid index 150 \(b=2\.5\): _TwoFailingPoints\(v0=10\.0, a=2\.0, "
            r"b=2\.5\): scan: F is not finite at E=\S+ in the window "
        )
        with pytest.raises(NonConvergenceError, match=message) as info:
            sweep_levels(_TwoFailingPoints(10.0, 2.0, 2.0), U1, spec)
        assert info.value.row == 150

    def test_refine_failure_names_its_index(self, monkeypatch):
        # F is NaN only inside the lowest bracket of the point b = 2.0,
        # grid index 4 of 9: its scan passes, and its refinement fails
        spec = SweepSpec(1.0, 3.0, 9, 3)
        model = _NonFiniteInBracket(10.0, 2.0, 2.0)
        top = M1Params(10.0, 2.0, 2.0).level_window(U1, 3)
        lo, hi, _, _ = rootfind.scan_brackets(
            lambda e, rows: M1Params.char_values(model, e, U1, at=np.full(e.size, 2.0)),
            RootfindConfig(), 3, np.zeros(1), np.array([top]),
            cells_per_level=sweep._ROWS_CELLS_PER_LEVEL,
        )[0][0].tolist()
        monkeypatch.setattr(_NonFiniteInBracket, "inside", (lo, hi))
        message = (
            r"^sweep failed at grid index 4 \(b=2\.0\): _NonFiniteInBracket\(v0=10\.0, "
            rf"a=2\.0, b=2\.0\): refine: F is not finite at E=\S+ in the bracket "
            rf"\[{re.escape(repr(lo))}, {re.escape(repr(hi))}\] eV$"
        )
        with pytest.raises(NonConvergenceError, match=message) as info:
            sweep_levels(model, U1, spec)
        assert info.value.row == 4

    @staticmethod
    def _preset_sweep(preset):
        run = parse_config(["sweep", "--preset", preset])
        model, units, cfg = run.build_model(), run.build_units(), run.build_rootfind()
        spec = run.build_sweep_spec()
        return model, units, cfg, spec, sweep_levels(model, units, spec, cfg)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_rows_equal_single_solves(self, preset):
        # every row, bit for bit, as that grid point comes out of a
        # two-point sweep: no row reads another's values
        model, units, cfg, spec, table = self._preset_sweep(preset)
        lams = table.lambdas.tolist()
        for i, (lam, row) in enumerate(zip(lams, table.levels.tolist())):
            ends, at = ((lam, lams[-1]), 0) if i == 0 else ((lams[0], lam), -1)
            pair = sweep_levels(model, units, SweepSpec(*ends, 2, spec.n_levels), cfg)
            assert pair.lambdas[at] == lam
            assert pair.levels[at].tolist() == row

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_rows_match_solve_levels(self, preset):
        # the lockstep refinement runs on the array form of F, solve_levels
        # on the scalar one: they round differently, so the levels agree
        # to two refinement tolerances, not bit for bit
        model, units, cfg, spec, table = self._preset_sweep(preset)
        tol_abs = cfg.tol_abs
        for lam, row in zip(table.lambdas.tolist(), table.levels.tolist()):
            single = solve_levels(model.at(lam), units, spec.n_levels, cfg)
            for got, want in zip(row, single):
                assert abs(got - want) <= 2.0 * max(tol_abs, 4.0 * 2.22e-16 * abs(want))


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


def _count_below(table, row, energy):
    """The number of levels below energy at grid row `row` of the table."""
    model = table.model.at(float(table.lambdas[row]))
    return int(model.char_values(np.array([energy]), table.units)[1][0])


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

    def test_label_jump_at_e_min_is_not_a_crossing(self):
        # with e_min = 1.0 eV, E1 passes e_min near b = 3.0372 on fig3: the
        # columns above it relabel there, and gap 2's curve jumps from 1.8
        # to 4.4 eV, a grid minimum that is no crossing
        run = parse_config(["detect", "--preset", "fig3", "--e-min", "1.0"])
        cfg = run.build_rootfind()
        table = sweep_levels(run.build_model(), run.build_units(), run.build_sweep_spec(), cfg)
        jumps = [
            (row, col) for row, col in sweep._interior_minima(gap_curves(table), run.gap_ceiling)
            if _count_below(table, row - 1, 1.0) != _count_below(table, row + 1, 1.0)
        ]
        assert len(jumps) == 1 and jumps[0][1] == 1
        assert table.lambdas[jumps[0][0] - 1] < 3.0372 < table.lambdas[jumps[0][0] + 1]
        acs = detect_avoided_crossings(table, run.gap_ceiling)
        assert [ac.level_index for ac in acs] == [2, 3, 1, 3, 1]
        assert all(abs(ac.lambda_star - 3.0372) > 0.01 for ac in acs)

    def test_table_carries_its_settings(self, tmp_path):
        # the config is given once, to the sweep: detect on the fig3 table
        # swept with e_min = 1.0 eV probes with it, and writes the CLI's rows
        run = parse_config(["detect", "--preset", "fig3", "--e-min", "1.0"])
        spec = run.build_sweep_spec()
        table = sweep_levels(run.build_model(), run.build_units(), spec, RootfindConfig(e_min=1.0))
        acs = detect_avoided_crossings(table, gap_ceiling=run.gap_ceiling)
        out = tmp_path / "detect.csv"
        assert main(["detect", "--preset", "fig3", "--e-min", "1.0", "--out", str(out)]) == 0
        rows = [
            f"{ac.level_index},{ac.lambda_star:.12g},{ac.gap:.12g},{ac.e_mid:.12g}" for ac in acs
        ]
        assert len(rows) == 5 and out.read_text().splitlines()[1:] == rows

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
        # window top far above the pair, or between the pair (which the
        # probe raises), gives the same pair as a focused one
        from dwcross.sweep import _gaps_at

        def gap_at(lam, col, e_hi):
            gaps, mids = _gaps_at(
                model, U1, np.array([lam]), np.array([col]), cfg, np.array([e_hi])
            )
            return float(gaps[0]), float(mids[0])

        model = M2Params(10.0, 2.0, 1.0, 2.0)
        cfg = RootfindConfig()
        lam = 3.3553
        focused = gap_at(lam, 1, 6.2)
        for e_hi in (11.5, 5.38):
            other = gap_at(lam, 1, e_hi)
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
        scans, refines = [], []
        scan, refine_rows = sweep.scan_brackets, sweep.refine_rows
        monkeypatch.setattr(
            sweep, "scan_brackets", lambda *a, **k: scans.append((a, k)) or scan(*a, **k)
        )
        monkeypatch.setattr(sweep, "refine_rows", lambda *a: refines.append(a) or refine_rows(*a))
        acs = detect_avoided_crossings(table, run.gap_ceiling)
        monkeypatch.undo()
        # every scan is a probe's, of two levels at the default density
        assert acs and refines == [] and not hasattr(sweep, "solve_levels")
        assert scans and all(a[2] == 2 and k == {} for a, k in scans)
        for ac in acs:
            levels = solve_levels(
                table.model.at(ac.lambda_star), table.units, ac.level_index + 1, cfg
            )
            lo, hi = levels[-2:]
            assert ac.gap == pytest.approx(hi - lo, abs=2.0 * cfg.tol_abs)
            assert ac.e_mid == pytest.approx(0.5 * (lo + hi), abs=2.0 * cfg.tol_abs)

    @pytest.mark.parametrize("stage", ["scan", "refine"])
    def test_probe_failure_names_model_and_pair(self, monkeypatch, stage):
        # F turns NaN after the fig3 sweep, in the array form (a probe's
        # scan fails) or the scalar one (its refinement fails): the first
        # probe of the first crossing is named by its pair and its model
        run = parse_config(["detect", "--preset", "fig3"])
        cfg = run.build_rootfind()
        table = sweep_levels(run.build_model(), run.build_units(), run.build_sweep_spec(), cfg)
        row, col = sweep._interior_minima(gap_curves(table), run.gap_ceiling)[0]
        lam_tol = float(table.lambdas[-1] - table.lambdas[0]) * sweep._LAMBDA_TOL_FRACTION
        lo, hi = table.lambdas[[row - 1, row + 1]].tolist()
        lam = next(sweep._localmin(lo, hi, lam_tol))
        if stage == "scan":
            char_values = M1Params.char_values

            def nan_values(self, energies, units, at=None):
                values, counts = char_values(self, energies, units, at)
                return np.full_like(values, np.nan), counts

            monkeypatch.setattr(M1Params, "char_values", nan_values)
        else:
            monkeypatch.setattr(M1Params, "char", lambda self, energy, units: math.nan)
        message = (
            rf"^crossing probe of levels {col + 1} and {col + 2}: "
            rf"{re.escape(repr(table.model.at(lam)))}: {stage}: F is not finite at E="
        )
        with pytest.raises(NonConvergenceError, match=message):
            detect_avoided_crossings(table, run.gap_ceiling)


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


class TestGapMinima:
    def test_plateau_and_ceiling(self):
        # column 0: a plateau at 1 counts at its left edge only, and a dip
        # to the ceiling (2) is no minimum; the hits go column by column
        gaps = np.array([[3, 2, 3, 1, 1, 2, 3], [3, 1, 2, 2, 1, 1, 4]], dtype=float).T
        assert sweep._interior_minima(gaps, 2.0) == [(3, 0), (1, 1), (4, 1)]

    def test_array_forms_match_loops(self):
        # small integer gaps make plateaus and gaps equal to the ceiling
        # common: both array forms give the plain loops' hits, in order
        rng = np.random.default_rng(2015)
        model = M1Params(10.0, 2.0, 2.0)
        for _ in range(2000):
            rows, cols = rng.integers(2, 9), rng.integers(1, 5)
            gaps = rng.integers(1, 5, size=(rows, cols)).astype(float)
            ceiling = float(rng.integers(1, 6))
            levels = np.hstack((np.zeros((rows, 1)), np.cumsum(gaps, axis=1)))
            table = sweep.SpectrumTable(
                np.arange(float(rows)), levels, model, U1, RootfindConfig()
            )
            assert sweep._interior_minima(gaps, ceiling) == reference_oracles.interior_minima(
                gaps, ceiling
            )
            assert edge_candidates(table, ceiling) == reference_oracles.edge_candidates(
                table, ceiling
            )


class TestBrentLockstep:
    # (gap, bracket, location of the minimum or None where float64 cannot
    # resolve it) of each crossing
    _GAPS = [
        (lambda lam: (lam - 0.3) ** 2 + 0.1, (0.0, 1.0), 0.3),
        (lambda lam: (lam - 2.2) ** 2 + 0.02, (2.0, 2.5), 2.2),
        (lambda lam: (lam - 5.05) ** 2 + 0.5, (5.0, 5.1), 5.05),
        # flat bottoms, where the parabolic steps slow down
        (lambda lam: (lam + 1.0) ** 4 + 1.0, (-4.0, 0.0), None),
        (lambda lam: (lam + 1.0) ** 4, (-4.0, 0.0), -1.0),
        # the hyperbola of a two-level crossing
        (lambda lam: math.sqrt(0.03**2 + 4.0 * (lam - 7.3) ** 2), (7.0, 8.0), 7.3),
        # a kink, and a wavy gap
        (lambda lam: abs(lam - 0.7) + 0.1, (0.0, 1.0), 0.7),
        (lambda lam: math.sqrt(0.01 + (lam - 0.61) ** 2) + 0.3 * math.sin(3.0 * lam),
         (0.0, 1.5), None),
    ]

    @pytest.mark.parametrize("tol", [1e-2, 1e-3, 1e-6])
    def test_each_crossing_as_alone(self, tol):
        # gaps in brackets of different widths: the narrow ones close rounds
        # before the wide ones, and each crossing still gives the
        # (lambda*, gap, mid) of its own scalar search
        gaps = [gap for gap, _, _ in self._GAPS]
        lo, hi = np.array([bracket for _, bracket, _ in self._GAPS]).T
        probed = []

        def probe(k, lams):
            probed.append(k.tolist())
            values = [gaps[i](lam) for i, lam in zip(k.tolist(), lams.tolist())]
            return np.array(values), lams + 10.0

        got = sweep._brent_lockstep(probe, lo, hi, tol)
        for i, (gap, (a, b), at) in enumerate(self._GAPS):
            want = reference_oracles.brent_min(lambda x, gap=gap: (gap(x), x + 10.0), a, b, tol)
            assert got[i] == want
            assert at is None or abs(got[i][0] - at) <= tol
        # every round probes every crossing still open, once; crossings
        # drop out as they close, in different rounds
        assert probed[0] == list(range(len(gaps)))
        assert all(k == sorted(set(k)) for k in probed)
        rounds = [sum(i in k for k in probed) for i in range(len(gaps))]
        assert len(set(rounds)) > 1
        open_counts = [len(k) for k in probed]
        assert open_counts == sorted(open_counts, reverse=True)

    @pytest.mark.parametrize(
        "args",
        [["--preset", p] for p in sorted(PRESETS)] + [["--preset", "fig3", "--e-min", "1.0"]],
        ids=lambda args: " ".join(args[1:]),
    )
    def test_crossings_match_golden_section(self, args):
        # each crossing's scalar golden-section search on the same bracket,
        # with the same probe, lands within lam_tol of Brent's lambda*
        run = parse_config(["detect"] + args)
        cfg = run.build_rootfind()
        table = sweep_levels(run.build_model(), run.build_units(), run.build_sweep_spec(), cfg)
        acs = detect_avoided_crossings(table, run.gap_ceiling)
        ceiling = run.gap_ceiling if run.gap_ceiling is not None else default_gap_ceiling(table)
        minima = [
            (row, col) for row, col in sweep._interior_minima(gap_curves(table), ceiling)
            if _count_below(table, row - 1, cfg.e_min) == _count_below(table, row + 1, cfg.e_min)
        ]
        assert len(acs) == len(minima)
        lam_tol = float(table.lambdas[-1] - table.lambdas[0]) * sweep._LAMBDA_TOL_FRACTION
        golden = []
        for row, col in minima:
            e_hi = sweep._energy_top(table, row, col)

            def gap_fn(lam, col=col, e_hi=e_hi):
                gaps, mids = sweep._gaps_at(
                    table.model, table.units, np.array([lam]), np.array([col]), cfg,
                    np.array([e_hi]),
                )
                return float(gaps[0]), float(mids[0])

            lam, gap, _ = reference_oracles.golden_min(
                gap_fn, float(table.lambdas[row - 1]), float(table.lambdas[row + 1]), lam_tol
            )
            golden.append((col + 1, lam, gap))
        for ac, (index, lam, gap) in zip(acs, sorted(golden, key=lambda g: g[1])):
            assert ac.level_index == index
            assert abs(ac.lambda_star - lam) <= lam_tol
            assert ac.gap == pytest.approx(gap, rel=1e-5)


class TestWorkCounts:
    """Array calls per sweep and scans per detection on fig3, whose
    per-point sweep made 200 char_values calls and refined its 800 levels
    one scalar step at a time, and whose detection made one scan per probe
    (72), then one per golden-section round (17)."""

    def _fig3(self):
        run = parse_config(["detect", "--preset", "fig3"])
        spec, cfg = run.build_sweep_spec(), run.build_rootfind()
        return run, run.build_model(), run.build_units(), spec, cfg

    def test_sweep_calls_per_block_of_rows(self, monkeypatch):
        run, model, units, spec, cfg = self._fig3()
        sizes = {"scan": [], "refine": []}
        stage = ["scan"]
        char_values = M1Params.char_values
        refine_rows = sweep.refine_rows

        def counted(self, energies, units, at=None):
            sizes[stage[0]].append(np.size(energies))
            return char_values(self, energies, units, at)

        def refining(*args):
            stage[0] = "refine"
            return refine_rows(*args)

        monkeypatch.setattr(M1Params, "char_values", counted)
        monkeypatch.setattr(sweep, "refine_rows", refining)
        sweep_levels(model, units, spec, cfg)
        # a row's trial grid, at the sweep's density, from e_min; whole
        # rows per block and fig3's one halving round over all rows cost at
        # most one more call
        nodes = sweep._ROWS_CELLS_PER_LEVEL * spec.n_levels + 1
        blocks = math.ceil(spec.steps * nodes / rootfind._EVAL_BLOCK)
        assert len(sizes["scan"]) <= blocks + 1
        # one call per refinement round over every open bracket of every
        # row (fig3's 800 levels); the sparser scan leaves wider brackets,
        # and scan plus refinement ask for at most 15 000 energies (30 525
        # at 32 cells per level)
        assert sizes["refine"][0] == spec.steps * spec.n_levels
        assert sum(sizes["scan"]) + sum(sizes["refine"]) <= 15_000
        assert max(sizes["scan"] + sizes["refine"]) <= rootfind._EVAL_BLOCK

    def test_sweep_scans_once(self, monkeypatch):
        # one scan_brackets call over every row of the sweep, then one
        # refine_rows call
        _, model, units, spec, cfg = self._fig3()
        calls, refines = [], []
        scan, refine_rows = sweep.scan_brackets, sweep.refine_rows
        monkeypatch.setattr(
            sweep, "scan_brackets", lambda *a, **k: calls.append(a) or scan(*a, **k)
        )
        monkeypatch.setattr(sweep, "refine_rows", lambda *a: refines.append(a) or refine_rows(*a))
        sweep_levels(model, units, spec, cfg)
        assert len(calls) == 1 and len(calls[0][3]) == spec.steps
        assert len(refines) == 1

    def test_detect_scans_once_per_brent_round(self, monkeypatch):
        # one scan per round of the lockstep searches; on the parabolic
        # gap^2 of a crossing, Brent's steps close fig3's in at most 8
        run, model, units, spec, cfg = self._fig3()
        table = sweep_levels(model, units, spec, cfg)
        calls = []
        scan = sweep.scan_brackets
        monkeypatch.setattr(
            sweep, "scan_brackets", lambda *a, **k: calls.append(a) or scan(*a, **k)
        )
        acs = detect_avoided_crossings(table, run.gap_ceiling)
        assert len(acs) >= 2 and len(calls) <= 8

    def test_single_solves_and_probes_keep_32_cells(self, monkeypatch):
        # only a sweep scans at its own density: solve_levels' first
        # trial grid has 32 cells per level, and a crossing probe's (two
        # levels, from e_min up) 64
        run, model, units, _, _ = self._fig3()
        cfg = RootfindConfig()
        firsts = []
        char_values = M1Params.char_values

        def counted(self, energies, units, at=None):
            firsts.append(np.asarray(energies).copy())
            return char_values(self, energies, units, at)

        monkeypatch.setattr(M1Params, "char_values", counted)
        solve_levels(model, units, 5, cfg)
        assert firsts[0].size == 32 * 5 + 1 and firsts[0][0] == cfg.e_min
        firsts.clear()
        sweep._gaps_at(model, units, np.array([2.0]), np.array([1]), cfg, np.array([6.0]))
        assert firsts[0].size == 64 + 1 and firsts[0][0] == cfg.e_min and firsts[0][-1] == 6.0
