"""Self-tests of the benchmark: seeded inputs, output checks, tracing and
the agreement of BENCHMARK.json with what run.py prints.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dwcross import models, rootfind  # noqa: E402

U1 = models.UnitsConfig()


def test_deck_is_deterministic_per_seed():
    assert workloads.solve_deck(7) == workloads.solve_deck(7)
    assert workloads.solve_deck(7) != workloads.solve_deck(8)
    assert workloads.seeded_order(3, workloads.PRESETS) == workloads.seeded_order(
        3, workloads.PRESETS
    )


def test_deck_is_balanced():
    deck = workloads.solve_deck(11)
    assert len(deck) == 128
    kinds = [models.model_kind(c.model) for c in deck]
    assert all(kinds.count(k) == 32 for k in workloads.FAMILIES)
    assert all(sum(c.n_levels == n for c in deck) == 16 for n in workloads.N_LEVELS)
    assert sum(c.symmetric for c in deck) == 32
    for case in deck:
        assert 1.0 <= case.model.v0 <= 1e3
        if case.symmetric:
            m = case.model
            assert {
                "m1": lambda: m.a == m.b,
                "m2": lambda: m.a == m.c,
                "m3": lambda: m.hw1 == m.hw2,
                "m4": lambda: m.hw1 == m.hw2,
            }[models.model_kind(m)]()
    shares = workloads.deck_shares(11)
    assert shares["symmetric_share"] == 0.25
    assert 0.0 < shares["opaque_share"] < 0.5


# Levels solve_levels returned at the seed commit for the measured item-1
# cases of ROADMAP.md; the oracle places the lowest level far below each.
ITEM_1_OUTPUTS = [
    (models.M2Params(100, 2, 1, 2), [70.95009585923037, 70.95063314335454]),
    (
        models.M2Params(1e6, 2, 1, 2.5),
        [740.3293959772717, 3434.4254351163713, 10517.911245157733, 12305.206513657193],
    ),
    (models.M4Params(1000, 2, 2, 0.5), [58.68842747225794, 58.688427472394686]),
]


@pytest.mark.parametrize("model,levels", ITEM_1_OUTPUTS)
def test_count_check_flags_item_1_cases(model, levels):
    reason = workloads.count_check(model, U1, levels)
    assert reason is not None and reason.startswith("level 1 ")


@pytest.mark.parametrize("preset", workloads.PRESETS)
def test_count_check_passes_at_preset_base_points(preset):
    cfg = workloads.preset_config(preset)
    model, units = cfg.build_model(), cfg.build_units()
    levels = rootfind.solve_levels(model, units, cfg.levels)
    assert workloads.count_check(model, units, levels) is None


def test_count_check_rejects_a_missing_level():
    cfg = workloads.preset_config("fig5")
    model = cfg.build_model()
    levels = rootfind.solve_levels(model, U1, 3)
    assert workloads.count_check(model, U1, [levels[0], levels[2]]) is not None


def test_solve_check_counts_raised_errors():
    case = workloads.solve_deck(1)[0]
    assert "raised" in workloads.check_solve(case, U1, workloads.Raised("X", "y"))


def _csv(rows):
    lines = ["gap_index,lambda_star,gap_ev,e_mid_ev"]
    lines += [f"{g},{lam!r},{gap!r},1.0" for g, lam, gap in rows]
    return "\n".join(lines) + "\n"


def test_figures_reference_and_check():
    reference = workloads.load_reference()
    fig5 = reference["presets"]["fig5"]["crossings"]
    assert any(abs(lam - 4.7102) < 1e-3 for _, lam, _ in fig5)
    for preset in workloads.PRESETS:
        rows = reference["presets"][preset]["crossings"]
        assert workloads.check_crossings(reference, preset, (0, _csv(rows))) is None
        assert workloads.check_crossings(reference, preset, (2, _csv(rows))) is not None
        assert workloads.check_crossings(reference, preset, (0, _csv(rows[1:]))) is not None
        moved = [(g, lam + 0.01, gap) for g, lam, gap in rows]
        assert workloads.check_crossings(reference, preset, (0, _csv(moved))) is not None


def test_certificate_check_thresholds():
    assert workloads.check_certificate(((1e-6, 2e-6), (0.5,))) is None
    assert workloads.check_certificate(((1e-4,), (0.5,))) is not None
    assert workloads.check_certificate(((1e-6,), (0.01,))) is not None


def _traced_solves():
    t = tracer.Tracer()
    original = rootfind.solve_levels
    t.install()
    try:
        assert rootfind.solve_levels is not original
        for op_id, model in enumerate(
            [models.M3Params(10.0, 2.0, 1.5), models.M2Params(10.0, 2.0, 1.0, 3.0)]
        ):
            t.op_id = op_id
            rootfind.solve_levels(model, U1, 3)
    finally:
        t.uninstall()
    assert rootfind.solve_levels is original
    return t.per_layer()


def test_tracer_counts_repeat_and_add_up():
    first, failures = _traced_solves()
    assert failures == []
    second, _ = _traced_solves()
    counts = {k: v for k, v in first.items() if run.PER_LAYER_UNITS[k] == "count"}
    assert counts == {k: second[k] for k in counts}
    assert first["rootfind.solve.calls"] == 2
    assert first["rootfind.levels"] == 6
    assert first["models.char.calls"] == (
        first["rootfind.scan.evals"]
        + first["rootfind.refine.evals"]
        + first["models.char.other_evals"]
    )
    assert first["specfun.recip_gamma_log.calls"] > 0
    assert first["kernels.sturm.calls"] == 0


def test_tracer_flags_evaluations_outside_scan_and_refine():
    t = tracer.Tracer()
    t.install()
    try:
        rootfind.solve_levels(models.M3Params(10.0, 2.0, 1.5), U1, 2)
        rootfind.characteristic_fn(models.M3Params(10.0, 2.0, 1.5), U1)(1.0)
    finally:
        t.uninstall()
    _, failures = t.per_layer()
    assert len(failures) == 1 and failures[0].startswith("F evaluations:")


def test_tracer_recounts_sturm_shift_points():
    from dwcross import oracle

    cfg = workloads.preset_config("fig5")
    T = oracle.build_hamiltonian(cfg.build_model(), U1, oracle.OracleConfig())
    t = tracer.Tracer()
    t.install()
    try:
        oracle.lowest_eigenvalues(T, 2)
    finally:
        t.uninstall()
    metrics, failures = t.per_layer()
    assert failures == []
    assert metrics["kernels.sturm.shift_points"] == metrics["kernels.sturm.shifts"] * T.size


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_host_meter_window_and_tick_time():
    meter = hostspeed.HostMeter()
    meter.stamps = [1.0, 1.05, 1.2, 2.0]
    meter.cals = [1e-4, 2e-4, 3e-4, 4e-4]
    assert meter.spent(1.01, 1.3) == pytest.approx(5e-4)
    # Ticks within WINDOW_S of [1.12, 1.15]: 1.05 and 1.2, median 2.5e-4.
    assert meter.factor(1.12, 1.15) == pytest.approx(hostspeed.REF_CAL_S / 2.5e-4)
    with pytest.raises(RuntimeError):
        meter.factor(1.5, 1.6)


def test_host_meter_ticks_during_a_busy_loop():
    with hostspeed.HostMeter() as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            sum(range(1000))
    assert len(meter.cals) >= 5
    assert all(c > 0 for c in meter.cals)
