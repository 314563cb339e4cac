"""Acceptance gate: every shipped claim, at its stated tolerance.

Each criterion prints one PASS/FAIL line (echoed again in the terminal
summary); run with `pytest -s tests/test_acceptance.py` to watch them
live.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from reference_oracles import sturm_count
from dwcross.cli import PRESETS, main
from dwcross.models import (
    M1Params,
    M2Params,
    M3Params,
    M4Params,
    UnitsConfig,
    model_kind,
)
from dwcross.oracle import (
    OracleConfig,
    _assemble,
    _grid_spec,
    build_hamiltonian,
    lowest_eigenvalues,
    oracle_levels,
    wronskian_constancy,
)
from dwcross.rootfind import RootfindConfig, solve_levels
from dwcross.sweep import (
    SweepSpec,
    detect_avoided_crossings,
    gap_curves,
    sweep_levels,
)
from reference_oracles import isolated_well_level, symmetric_delta_box_even_roots

U1 = UnitsConfig(1.0)

ORACLE_TOLERANCE = {"m1": 2e-3, "m2": 2e-3, "m3": 5e-3, "m4": 5e-3}


def preset_model(name):
    p = PRESETS[name]
    kind = p["model"]
    if kind == "m1":
        model = M1Params(p["v0"], p["a"], p["b"])
    elif kind == "m2":
        model = M2Params(p["v0"], p["a"], p["b"], p["c"])
    elif kind == "m3":
        model = M3Params(p["v0"], p["hw1"], p["hw2"])
    else:
        model = M4Params(p["v0"], p["hw1"], p["hw2"], p["a"])
    return model, UnitsConfig(p["u"])


def preset_sweep_spec(name):
    p = PRESETS[name]
    return SweepSpec(p["lambda_min"], p["lambda_max"], p["steps"], p["levels"])


_detection_cache: dict = {}


def preset_detection(name):
    """Sweep table + certified crossings for a preset, computed once."""
    if name not in _detection_cache:
        model, units = preset_model(name)
        spec = preset_sweep_spec(name)
        start = time.perf_counter()
        table = sweep_levels(model, units, spec)
        acs = detect_avoided_crossings(table, gap_ceiling=PRESETS[name].get("gap_ceiling"))
        elapsed = time.perf_counter() - start
        _detection_cache[name] = (table, acs, elapsed)
    return _detection_cache[name]


class TestCriterion1ClosedFormLimits:
    def test_exact_limits(self, acceptance_report):
        start = time.perf_counter()
        worst = 0.0
        # delta-free box across a 50-point width sweep
        for b in np.linspace(0.1, 5.0, 50):
            model = M1Params(0.0, 2.0, float(b))
            levels = solve_levels(model, U1, 4)
            exact = [(n * math.pi / (2.0 + b)) ** 2 for n in (1, 2, 3, 4)]
            worst = max(worst, max(abs(g - e) for g, e in zip(levels, exact)))
        # symmetric harmonic limits, n < 5
        for model in (M3Params(0.0, 2.0, 2.0), M4Params(7.0, 2.0, 2.0, 0.0)):
            levels = solve_levels(model, U1, 5)
            exact = [(n + 0.5) * 2.0 for n in range(5)]
            worst = max(worst, max(abs(g - e) for g, e in zip(levels, exact)))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-8 and elapsed < 5.0
        acceptance_report(
            f"{'PASS' if ok else 'FAIL'}: criterion 1 closed-form limits "
            f"(worst |error| {worst:.2e} <= 1e-8, runtime {elapsed:.1f}s < 5s)"
        )
        assert worst <= 1e-8
        assert elapsed < 5.0


class TestCriterion2OracleEquivalence:
    POINTS = {
        "fig3": ("b", [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]),
        "fig5": ("c", [1.5, 2.0, 3.0, 4.0, 5.0, 6.0]),
        "fig6a": ("hw2", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
        "fig6b": ("hw2", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
    }

    def test_levels_and_counts(self, acceptance_report):
        start = time.perf_counter()
        worst = {"m1": 0.0, "m2": 0.0, "m3": 0.0, "m4": 0.0}
        count_failures = []
        for preset, (param, values) in self.POINTS.items():
            base, units = preset_model(preset)
            n = PRESETS[preset]["levels"]
            for value in values:
                model = dataclasses.replace(base, **{param: value})
                kind = model_kind(model)
                analytic = solve_levels(model, units, n + 1)
                reference = oracle_levels(
                    model, units, n, OracleConfig(), e_top=1.5 * analytic[n]
                )
                diff = max(abs(a - o) for a, o in zip(analytic, reference))
                worst[kind] = max(worst[kind], diff)
                # Sturm cross-check: same number of states below the gap
                # between levels n and n+1
                T = build_hamiltonian(model, units, OracleConfig(), e_top=1.5 * analytic[n])
                probe = 0.5 * (analytic[n - 1] + analytic[n])
                if sturm_count(T, probe) != n:
                    count_failures.append((preset, value))
        elapsed = time.perf_counter() - start
        ok = (
            worst["m1"] <= 2e-3
            and worst["m2"] <= 2e-3
            and worst["m3"] <= 5e-3
            and worst["m4"] <= 5e-3
            and not count_failures
            and elapsed < 60.0
        )
        acceptance_report(
            f"{'PASS' if ok else 'FAIL'}: criterion 2 oracle equivalence "
            f"(worst m1 {worst['m1']:.1e} m2 {worst['m2']:.1e} <= 2e-3, "
            f"m3 {worst['m3']:.1e} m4 {worst['m4']:.1e} <= 5e-3, "
            f"count mismatches {count_failures}, runtime {elapsed:.0f}s < 60s)"
        )
        assert worst["m1"] <= 2e-3 and worst["m2"] <= 2e-3
        assert worst["m3"] <= 5e-3 and worst["m4"] <= 5e-3
        assert count_failures == []
        assert elapsed < 60.0


class TestCriterion3SymmetricReduction:
    def test_kcot_sector(self, acceptance_report):
        model = M1Params(10.0, 2.0, 2.0)
        solver = solve_levels(model, U1, 8)
        reference = symmetric_delta_box_even_roots(10.0, 2.0, 1.0, 4, tol=1e-13)
        worst = 0.0
        for ref in reference:
            nearest = min(solver, key=lambda e: abs(e - ref))
            worst = max(worst, abs(nearest - ref))
        ok = worst <= 1e-9
        acceptance_report(
            f"{'PASS' if ok else 'FAIL'}: criterion 3 symmetric reduction "
            f"(first 4 k*cot(ka) = -u*v0/2 roots matched to {worst:.1e} <= 1e-9)"
        )
        assert worst <= 1e-9


def _in_window(acs, center, width):
    return [ac for ac in acs if abs(ac.lambda_star - center) <= width]


class TestCriterion4AvoidedCrossingLocations:
    def test_fig3(self, acceptance_report):
        table, acs, elapsed = preset_detection("fig3")
        near_1 = _in_window(acs, 1.0, 0.15)
        near_2 = _in_window(acs, 2.0, 0.15)
        near_4 = _in_window(acs, 4.0, 0.3)  # best effort, reported only
        ok = bool(near_1) and bool(near_2) and elapsed < 120.0
        acceptance_report(
            f"{'PASS' if ok else 'FAIL'}: criterion 4 fig3 crossings "
            f"(lambda* near 1: {[f'{ac.lambda_star:.3f}' for ac in near_1]}, "
            f"near 2: {[f'{ac.lambda_star:.3f}' for ac in near_2]}, "
            f"best-effort near 4: {[f'{ac.lambda_star:.3f}' for ac in near_4]}, "
            f"runtime {elapsed:.0f}s < 120s)"
        )
        assert near_1 and near_2
        assert elapsed < 120.0

    def test_fig5(self, acceptance_report):
        table, acs, elapsed = preset_detection("fig5")
        # The left well keeps its level while the right wall c moves; a
        # right-well level meets it every pi/k_L in c, from the symmetric
        # point c = a onwards, so the third meeting is at a + 2 pi/k_L.
        p = PRESETS["fig5"]
        e_left = isolated_well_level(p["v0"], p["a"] - p["b"], p["u"])
        period = math.pi / math.sqrt(p["u"] * e_left)
        c3 = p["a"] + 2.0 * period
        hits = {
            "2.1+-0.2": _in_window(acs, 2.1, 0.2),
            "3.4+-0.2": _in_window(acs, 3.4, 0.2),
            "c3+-0.02": _in_window(acs, c3, 0.02),
        }
        # the level that hugs 5.37 eV across the sweep
        mask = (table.lambdas >= 1.2) & (table.lambdas <= 5.8)
        line_dev = float(np.max(np.min(np.abs(table.levels[mask] - 5.37), axis=1)))
        # Independent confirmation of the third crossing: the oracle's
        # E4 - E3 is smaller at the detected c* than 0.04 to either side.
        third = f"third window a + 2 pi/k_L = {c3:.5f} +- 0.02 (period {period:.5f})"
        gaps = None
        if hits["c3+-0.02"]:
            star = min(hits["c3+-0.02"], key=lambda ac: abs(ac.lambda_star - c3)).lambda_star
            model, units = preset_model("fig5")
            gaps = []
            for c in (star - 0.04, star, star + 0.04):
                levels = oracle_levels(dataclasses.replace(model, c=c), units, 4, OracleConfig())
                gaps.append(levels[3] - levels[2])
            third += f", c* {star:.5f}, oracle E4-E3 at c*-0.04, c*, c*+0.04: " + " ".join(
                f"{g:.4f}" for g in gaps
            )
        else:
            third += ", no crossing detected in it"
        bracketed = gaps is not None and gaps[1] < min(gaps[0], gaps[2])
        all_stars = [f"{ac.lambda_star:.4f}" for ac in acs]
        window_counts = {k: len(v) for k, v in hits.items()}
        ok = all(hits.values()) and bracketed and line_dev <= 0.15 and elapsed < 120.0
        acceptance_report(
            f"{'PASS' if ok else 'FAIL'}: criterion 4 fig5 crossings "
            f"(window hits {window_counts}, detected lambda* {all_stars}, {third}, "
            f"horizontal-line deviation {line_dev:.3f} <= 0.15, "
            f"runtime {elapsed:.0f}s < 120s)"
        )
        assert line_dev <= 0.15
        assert hits["2.1+-0.2"] and hits["3.4+-0.2"]
        assert hits["c3+-0.02"], f"{third}; detected lambda* {all_stars}"
        assert bracketed, f"oracle does not confirm a gap minimum: {third}"
        assert elapsed < 120.0

    @pytest.mark.parametrize("preset", ["fig6a", "fig6b"])
    def test_fig6(self, preset, acceptance_report):
        table, acs, elapsed = preset_detection(preset)
        below_one = [ac for ac in acs if ac.lambda_star < 1.0]
        symmetric = [ac for ac in acs if 1.7 <= ac.lambda_star <= 2.3]
        ok = len(below_one) >= 2 and len(symmetric) >= 2 and elapsed < 120.0
        acceptance_report(
            f"{'PASS' if ok else 'FAIL'}: criterion 4 {preset} crossings "
            f"({len(below_one)} below hw2=1 at "
            f"{[f'{ac.lambda_star:.3f}' for ac in below_one]}, "
            f"{len(symmetric)} near the symmetric point at "
            f"{[f'{ac.lambda_star:.3f}' for ac in symmetric]}, "
            f"runtime {elapsed:.0f}s < 120s)"
        )
        assert len(below_one) >= 2
        assert len(symmetric) >= 2
        assert elapsed < 120.0


class TestCriterion5NonDegeneracy:
    WRONSKIAN_MODELS = [
        M1Params(10.0, 2.0, 2.0),
        M2Params(10.0, 2.0, 1.0, 3.0),
        M3Params(10.0, 2.0, 1.5),
        M4Params(10.0, 2.0, 2.0, 0.5),
    ]

    def test_gaps_and_wronskian(self, acceptance_report):
        # every sweep of criterion 4: minimum adjacent gap stays positive
        min_gap = math.inf
        min_ac_gap = math.inf
        for preset in ("fig3", "fig5", "fig6a", "fig6b"):
            table, acs, _ = preset_detection(preset)
            min_gap = min(min_gap, float(gap_curves(table).min()))
            for ac in acs:
                min_ac_gap = min(min_ac_gap, ac.gap)

        tight = RootfindConfig(tol_abs=1e-13)
        ocfg = OracleConfig()
        eig_worst = 0.0
        non_worst = math.inf
        n_eig = n_non = 0
        for model in self.WRONSKIAN_MODELS:
            levels = solve_levels(model, U1, 5, tight)
            for e in levels:
                eig_worst = max(eig_worst, wronskian_constancy(model, U1, e, ocfg))
                n_eig += 1
            probes = [0.5 * (a + b) for a, b in zip(levels[:-1], levels[1:])]
            probes.append(0.5 * levels[0])
            for e in probes:
                non_worst = min(non_worst, wronskian_constancy(model, U1, e, ocfg))
                n_non += 1
        ok = (
            min_gap > 1e-9
            and min_ac_gap > 0.0
            and n_eig == 20
            and n_non == 20
            and eig_worst <= 1e-5
            and non_worst >= 0.05
        )
        acceptance_report(
            f"{'PASS' if ok else 'FAIL'}: criterion 5 non-degeneracy "
            f"(min sweep gap {min_gap:.2e} > 1e-9, min crossing gap "
            f"{min_ac_gap:.2e} > 0, wronskian at {n_eig} eigenvalues <= "
            f"{eig_worst:.1e} (need 1e-5), at {n_non} non-eigenvalues >= "
            f"{non_worst:.2f} (need 0.05))"
        )
        assert min_gap > 1e-9
        assert min_ac_gap > 0.0
        assert n_eig == 20 and n_non == 20
        assert eig_worst <= 1e-5
        assert non_worst >= 0.05


class TestCriterion6ConvergenceOrder:
    def test_halving_ratio(self, acceptance_report):
        cases = [
            (M1Params(0.0, 2.0, 2.0), [(n * math.pi / 4.0) ** 2 for n in (1, 2, 3)], 8.0),
            (M3Params(0.0, 2.0, 2.0), [1.0, 3.0, 5.0], 9.0),
        ]
        ratios = []
        for model, exact, e_top in cases:
            cfg = OracleConfig(n_points=1500, richardson=False)
            spec = _grid_spec(model, U1, cfg, e_top)
            coarse = lowest_eigenvalues(_assemble(model, U1, spec), 3, tol=1e-12)
            fine = lowest_eigenvalues(_assemble(model, U1, spec.refined()), 3, tol=1e-12)
            ratios += [abs(c - x) / abs(f - x) for c, f, x in zip(coarse, fine, exact)]
        ok = all(3.5 <= r <= 4.5 for r in ratios)
        acceptance_report(
            f"{'PASS' if ok else 'FAIL'}: criterion 6 convergence order "
            f"(error ratios {['%.2f' % r for r in ratios]} all within [3.5, 4.5])"
        )
        for r in ratios:
            assert 3.5 <= r <= 4.5


class TestCriterion7Determinism:
    def test_preset_csv_bytes(self, acceptance_report, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ["sweep", "--preset", "fig3"]
        assert main(args + ["--out", "run1.csv"]) == 0
        assert main(args + ["--out", "run2.csv"]) == 0
        assert main(args + ["--out", "run3.csv"]) == 0
        assert main(args + ["--out", "run4.csv"]) == 0
        blobs = [Path(tmp_path, f"run{i}.csv").read_bytes() for i in (1, 2, 3, 4)]
        ok = all(b == blobs[0] for b in blobs)
        acceptance_report(
            f"{'PASS' if ok else 'FAIL'}: criterion 7 determinism "
            f"(4 fig3 sweep runs: byte-identical={ok})"
        )
        assert ok
