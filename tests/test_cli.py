"""Command-line surface: config parsing, presets, CSV/SVG output, exit codes."""

import dataclasses
import math
import os
import subprocess
import sys
import typing

import numpy as np
import pytest

from dwcross.cli import (
    PRESETS,
    RunConfig,
    _build_parser,
    cmd_sweep,
    main,
    parse_config,
    parse_config_text,
)
from dwcross.errors import ConfigError
from dwcross.models import M1Params, M2Params, M3Params, M4Params, UnitsConfig
from dwcross.rootfind import solve_levels


def parse_config_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return parse_config(["solve", "--config", str(path)])


class TestParseConfigText:
    def test_key_value_lines(self, tmp_path):
        cfg = parse_config_file(tmp_path, "model=m1\nv0=10\na=2\nb=2\nu=1")
        model = cfg.build_model()
        assert model == M1Params(v0=10.0, a=2.0, b=2.0)
        assert cfg.build_units().u == 1.0

    def test_violated_invariant_is_named(self, tmp_path):
        cfg = parse_config_file(tmp_path, "model=m2\nv0=1\na=1\nb=2\nc=3")
        with pytest.raises(ConfigError, match="a > b"):
            cfg.build_model()

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("model=m1\nbanana=3")

    def test_parse_error_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("model=m1\nv0=1\nhello world")

    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("# header\n\nmodel=m3  # trailing\nhw1=2\nhw2=1.5\nv0=0\n")
        assert values == {"model": "m3", "hw1": 2.0, "hw2": 1.5, "v0": 0.0}

    def test_bad_number_reports_key(self):
        with pytest.raises(ConfigError, match="v0"):
            parse_config_text("v0=ten")

    def test_booleans(self):
        assert parse_config_text("effective=yes")["effective"] is True
        assert parse_config_text("richardson=off")["richardson"] is False
        with pytest.raises(ConfigError):
            parse_config_text("effective=maybe")

    def test_preset_key_in_text(self, tmp_path):
        cfg = parse_config_file(tmp_path, "preset=fig5\nc=4.0")
        model = cfg.build_model()
        assert model == M2Params(v0=10.0, a=2.0, b=1.0, c=4.0)
        with pytest.raises(ConfigError, match="preset"):
            parse_config_file(tmp_path, "preset=fig9")


class TestPresets:
    def test_fig5_flags(self):
        cfg = parse_config(["sweep", "--preset", "fig5"])
        model = cfg.build_model()
        assert model == M2Params(v0=10.0, a=2.0, b=1.0, c=2.0)
        assert cfg.u == 1.0
        assert (cfg.lambda_min, cfg.lambda_max) == (1.05, 6.0)
        assert model.sweep_param == "c"
        spec = cfg.build_sweep_spec()
        assert spec.n_levels == 5

    def test_preset_values_frozen(self):
        # pinned reproductions of the published figure configurations
        assert PRESETS["fig3"]["v0"] == 10.0 and PRESETS["fig3"]["a"] == 2.0
        assert PRESETS["fig3"]["u"] == 1.0 and PRESETS["fig3"]["lambda_max"] == 5.0
        assert PRESETS["fig4"]["u"] == 0.2625 and PRESETS["fig4"]["v0"] == 20.0
        assert PRESETS["fig4"]["a"] == 5.0 and PRESETS["fig4"]["lambda_max"] == 25.0
        assert PRESETS["fig5"]["model"] == "m2" and PRESETS["fig5"]["b"] == 1.0
        assert PRESETS["fig5"]["lambda_max"] == 6.0
        for key in ("fig6a", "fig6b"):
            assert PRESETS[key]["v0"] == 10.0
            assert PRESETS[key]["hw1"] == 2.0
            assert PRESETS[key]["lambda_max"] == 3.0
        assert PRESETS["fig6a"]["model"] == "m3"
        assert PRESETS["fig6b"]["model"] == "m4"

    def test_flag_overrides_preset(self):
        cfg = parse_config(["solve", "--preset", "fig3", "--b", "3.5"])
        assert cfg.build_model().b == 3.5

    def test_config_file_between_preset_and_flags(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("b=1.5\nlevels=2\n", encoding="utf-8")
        cfg = parse_config(
            ["solve", "--preset", "fig3", "--config", str(path), "--levels", "3"]
        )
        assert cfg.build_model().b == 1.5  # file overrides preset
        assert cfg.levels == 3  # flag overrides file

    def test_preset_flag_overrides_file_preset(self, tmp_path):
        # the flag's preset replaces the file's, and still sits below the
        # file's other keys; a later --model mixes with fig5's values only
        path = tmp_path / "run.cfg"
        path.write_text("preset=fig3\nlevels=2\n", encoding="utf-8")
        cfg = parse_config(["detect", "--preset", "fig5", "--config", str(path)])
        assert cfg.build_model() == M2Params(v0=10.0, a=2.0, b=1.0, c=2.0)
        assert (cfg.lambda_min, cfg.levels, cfg.gap_ceiling) == (1.05, 2, None)
        cfg = parse_config(["solve", "--preset", "fig5", "--config", str(path), "--model", "m2"])
        assert cfg.build_model() == M2Params(v0=10.0, a=2.0, b=1.0, c=2.0)

    def test_file_preset_below_file_keys_and_flags(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("preset=fig3\nb=1.5\n", encoding="utf-8")
        cfg = parse_config(["solve", "--config", str(path), "--levels", "3"])
        assert cfg.build_model() == M1Params(v0=10.0, a=2.0, b=1.5)
        assert (cfg.levels, cfg.gap_ceiling) == (3, 2.5)

    def test_flags_before_the_command(self):
        before = parse_config(["--preset", "fig3", "--levels", "3", "detect", "--b", "1.5"])
        after = parse_config(["detect", "--preset", "fig3", "--levels", "3", "--b", "1.5"])
        assert before == after and before.levels == 3 and before.b == 1.5


def test_settings_views_agree():
    # a setting is a RunConfig field, a config key and a flag destination
    # alike; a knob removed from one view and left in another fails here
    # (preset and config only select where settings come from)
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    dests = {a.dest for a in _build_parser()._actions if a.dest != "help"}
    assert dests - {"command", "config", "preset"} == fields


# A valid value of each setting type, as a config line or flag spells it.
SAMPLE = {float: "0.75", int: "3", str: "m2"}


@pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
def test_config_key_and_flag_agree(tmp_path, field):
    # the config line name=value and the setting's flag give the same value,
    # of the field's type; a switch flips the field's default
    action = next(a for a in _build_parser()._actions if a.dest == field.name)
    if action.nargs == 0:
        raw, argv = str(not field.default), [action.option_strings[0]]
    else:
        raw = SAMPLE[action.type]
        argv = [action.option_strings[0], raw]
    from_file = getattr(parse_config_file(tmp_path, f"{field.name}={raw}\n"), field.name)
    from_flag = getattr(parse_config(["solve", *argv]), field.name)
    assert from_file == from_flag and type(from_file) is type(from_flag)
    assert from_flag != field.default
    assert isinstance(from_flag, typing.get_type_hints(RunConfig)[field.name])


def run_cli(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    return main(args)


# A NaN in one field and an infinity in another, for each variant.
NON_FINITE = [
    pytest.param(M1Params, dict(v0=math.nan, a=2.0, b=2.0), id="m1-v0-nan"),
    pytest.param(M1Params, dict(v0=10.0, a=2.0, b=math.inf), id="m1-b-inf"),
    pytest.param(M2Params, dict(v0=math.nan, a=2.0, b=1.0, c=2.0), id="m2-v0-nan"),
    pytest.param(M2Params, dict(v0=10.0, a=math.inf, b=1.0, c=2.0), id="m2-a-inf"),
    pytest.param(M3Params, dict(v0=10.0, hw1=2.0, hw2=math.nan), id="m3-hw2-nan"),
    pytest.param(M3Params, dict(v0=math.inf, hw1=2.0, hw2=2.0), id="m3-v0-inf"),
    pytest.param(M4Params, dict(v0=10.0, hw1=math.nan, hw2=2.0, a=0.5), id="m4-hw1-nan"),
    pytest.param(M4Params, dict(v0=10.0, hw1=2.0, hw2=2.0, a=-math.inf), id="m4-a-neginf"),
]


class TestExitCodes:
    def test_success(self, tmp_path, monkeypatch):
        code = run_cli(
            tmp_path, monkeypatch,
            ["solve", "--model", "m3", "--v0", "0", "--hw1", "2", "--hw2", "2",
             "--levels", "3", "--out", "ok.csv"],
        )
        assert code == 0
        assert (tmp_path / "ok.csv").exists()

    def test_config_error_is_one_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        code = run_cli(
            tmp_path, monkeypatch,
            ["solve", "--model", "m2", "--v0", "1", "--a", "1", "--b", "2", "--c", "3",
             "--out", "bad.csv"],
        )
        assert code == 1
        assert not (tmp_path / "bad.csv").exists()
        assert "a > b" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,config,message",
        [
            pytest.param(["solve", "--config", "run.cfg"], "model = m9\nv0 = 1\n",
                         "unknown model 'm9'", id="config-unknown-model"),
            pytest.param(["solve", "--v0", "1"], None, "no model selected", id="no-model"),
            pytest.param(["solve", "--model", "m2", "--v0", "1", "--a", "3", "--b", "1"], None,
                         "requires parameter 'c'", id="m2-missing-c"),
            pytest.param(["sweep", "--model", "m1", "--v0", "1", "--a", "2", "--b", "2"], None,
                         "sweep needs lambda_min and lambda_max", id="sweep-no-window"),
            pytest.param(["solve", "--preset", "fig3", "--config", "missing.cfg"], None,
                         "cannot read config file missing.cfg", id="config-file-missing"),
        ],
    )
    def test_unbuildable_run_is_config_error(
        self, tmp_path, monkeypatch, capsys, argv, config, message
    ):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        assert run_cli(tmp_path, monkeypatch, argv + ["--out", "bad.csv"]) == 1
        assert not list(tmp_path.glob("*.csv"))
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("cls,params", NON_FINITE)
    def test_non_finite_parameter_is_config_error(
        self, tmp_path, monkeypatch, capsys, cls, params
    ):
        with pytest.raises(ValueError, match="finite"):
            cls(**params)
        argv = ["solve", "--model", cls.kind, "--out", "bad.csv"]
        argv += [f"--{name}={value}" for name, value in params.items()]
        assert run_cli(tmp_path, monkeypatch, argv) == 1
        assert not (tmp_path / "bad.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["compare", "--model", "m1", "--v0", "10", "--a", "2", "--b", "2",
                 "--levels", "2", "--oracle-points", "500", "--no-richardson",
                 "--tolerance", "nan"],
                id="compare-tolerance-nan",
            ),
            pytest.param(["detect", "--preset", "fig5", "--gap-ceiling", "nan"],
                         id="detect-gap-ceiling-nan"),
            pytest.param(["solve", "--model", "m1", "--v0", "1", "--a", "2", "--b", "2",
                          "--e-min", "nan"], id="solve-e-min-nan"),
        ],
    )
    def test_non_finite_option_is_config_error(self, tmp_path, monkeypatch, capsys, argv):
        # a NaN passes every comparison: a NaN tolerance passes any gate and
        # a NaN gap ceiling finds nothing, both with exit code 0
        assert run_cli(tmp_path, monkeypatch, argv + ["--out", "bad.csv"]) == 1
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("levels", ["0", "-2"])
    def test_levels_below_one_is_config_error(
        self, tmp_path, monkeypatch, capsys, command, levels
    ):
        argv = [command, "--model", "m1", "--v0", "10", "--a", "2", "--b", "2",
                "--levels", levels, "--out", "bad.csv"]
        assert run_cli(tmp_path, monkeypatch, argv) == 1
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "levels must be >= 1" in err

    @pytest.mark.parametrize(
        "argv,point",
        [
            pytest.param(["sweep", "--preset", "fig5", "--lambda-min", "0.5"], "c=0.5",
                         id="sweep-fig5-c-below-b"),
            pytest.param(["sweep", "--preset", "fig6a", "--lambda-min", "0"], "hw2=0.0",
                         id="sweep-fig6a-hw2-zero"),
            pytest.param(["detect", "--preset", "fig3", "--lambda-min", "-1"], "b=-1.0",
                         id="detect-fig3-b-negative"),
        ],
    )
    def test_sweep_window_outside_valid_range(
        self, tmp_path, monkeypatch, capsys, argv, point
    ):
        # the first grid point lies outside the model's valid range
        assert run_cli(tmp_path, monkeypatch, argv + ["--out", "bad.csv"]) == 1
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"grid index 0 ({point})" in err

    def test_effective_sweep_needs_m1(self, tmp_path, monkeypatch, capsys):
        # rejected before any level is solved, not after the whole sweep
        argv = ["sweep", "--preset", "fig5", "--effective", "--out", "bad.csv"]
        assert run_cli(tmp_path, monkeypatch, argv) == 1
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "m1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["solve", "--preset", "fig3", "--out", "file/x.csv"], id="solve-out"),
            pytest.param(["sweep", "--preset", "fig3", "--svg", "file/x.svg"], id="sweep-svg"),
        ],
    )
    def test_unwritable_output_is_config_error(self, tmp_path, monkeypatch, capsys, argv):
        # the output's directory would be a regular file
        (tmp_path / "file").write_text("")
        assert run_cli(tmp_path, monkeypatch, argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write file/x.")
        assert "Traceback" not in err

    def test_unwritable_svg_leaves_no_csv(self, tmp_path, monkeypatch, capsys):
        # the sweep's CSV is written before its SVG, and removed when the
        # SVG cannot be written
        (tmp_path / "afile").write_text("")
        argv = ["sweep", "--preset", "fig3", "--svg", "afile/x.svg", "--out", "s.csv"]
        assert run_cli(tmp_path, monkeypatch, argv) == 1
        assert capsys.readouterr().err.startswith("config error: cannot write")
        assert [path.name for path in tmp_path.iterdir()] == ["afile"]

    @pytest.mark.parametrize("command", ["solve", "detect", "compare"])
    @pytest.mark.parametrize("option", [["--svg", "chart.svg"], ["--effective"]],
                             ids=["svg", "effective"])
    def test_sweep_only_option_elsewhere_is_config_error(
        self, tmp_path, monkeypatch, capsys, command, option
    ):
        # outside sweep these would be ignored with exit code 0: no chart,
        # no effective columns
        argv = [command, "--preset", "fig3", *option, "--out", "bad.csv"]
        assert run_cli(tmp_path, monkeypatch, argv) == 1
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "sweep only" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            pytest.param(["detect", "--preset", "fig3", "--gap-ceiling", "-1"],
                         "gap_ceiling must be > 0", id="detect-gap-ceiling-negative"),
            pytest.param(["detect", "--preset", "fig3", "--gap-ceiling", "0"],
                         "gap_ceiling must be > 0", id="detect-gap-ceiling-zero"),
            pytest.param(["compare", "--preset", "fig3", "--tolerance", "-1"],
                         "tolerance must be >= 0", id="compare-tolerance-negative"),
        ],
    )
    def test_meaningless_gate_is_config_error(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        # a non-positive ceiling finds nothing and a negative tolerance
        # fails every gate, whatever the levels
        assert run_cli(tmp_path, monkeypatch, argv + ["--out", "bad.csv"]) == 1
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    def test_successive_runs_share_no_parsed_value(self, tmp_path, monkeypatch):
        # one parser serves every main call of a process; what a run's
        # flags set does not carry into the next run
        from dwcross import cli

        seen = []
        monkeypatch.setitem(cli._COMMANDS, "solve", lambda cfg: seen.append(cfg) or 0)
        first = ["solve", "--preset", "fig5", "--levels", "7", "--e-min", "0.5",
                 "--u", "0.5", "--no-richardson", "--out", "a.csv"]
        second = ["solve", "--model", "m3", "--v0", "0", "--hw1", "2", "--hw2", "2"]
        assert run_cli(tmp_path, monkeypatch, first) == 0
        assert run_cli(tmp_path, monkeypatch, second) == 0
        assert _build_parser() is _build_parser()
        assert seen == [parse_config(first), parse_config(second)]
        fresh = RunConfig(model="m3", v0=0.0, hw1=2.0, hw2=2.0)
        assert seen[1] == fresh and seen[0].levels == 7 and not seen[0].richardson

    def test_unknown_flag_is_one(self, tmp_path, monkeypatch):
        assert run_cli(tmp_path, monkeypatch, ["solve", "--frobnicate"]) == 1

    @pytest.mark.parametrize(
        "argv,config",
        [
            (["--coarse-steps", "64"], None),
            (["--config", "run.cfg"], "coarse_steps = 64\n"),
            (["--e-max", "5"], None),
            (["--config", "run.cfg"], "e_max = 5\n"),
        ],
        ids=["flag", "config-line", "e-max-flag", "e-max-config-line"],
    )
    def test_removed_setting_is_config_error(
        self, tmp_path, monkeypatch, capsys, argv, config
    ):
        # the scan grid is sized by the level count and the first window
        # ends on the model's own estimate: no setting sizes either
        if config is not None:
            (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        argv = ["solve", "--preset", "fig3", *argv, "--out", "bad.csv"]
        assert run_cli(tmp_path, monkeypatch, argv) == 1
        assert not (tmp_path / "bad.csv").exists()
        assert capsys.readouterr().err.startswith("config error:")

    NARROW_ARGV = ["solve", "--model", "m1", "--v0", "0", "--a", "0.02", "--b", "0.02",
                   "--levels", "3"]

    def test_solver_error_is_two(self, tmp_path, monkeypatch, capsys, first_top):
        # 64 growths of a 2e-9 eV window cannot deliver three levels of
        # this very narrow well
        first_top(M1Params(0.0, 0.02, 0.02), 2e-9)
        argv = self.NARROW_ARGV + ["--out", "x.csv"]
        assert run_cli(tmp_path, monkeypatch, argv) == 2
        err = capsys.readouterr().err
        assert "solver error" in err and "after 64 growths" in err

    E_MIN_ARGV = ["solve", "--model", "m1", "--v0", "1", "--a", "2", "--b", "2",
                  "--levels", "2", "--out", "e.csv", "--e-min"]

    def test_e_min_above_estimate_gives_levels_above_it(self, tmp_path, monkeypatch):
        # the estimated window (~16 eV) lies below e_min: the scan starts there
        assert run_cli(tmp_path, monkeypatch, self.E_MIN_ARGV + ["100"]) == 0
        lines = (tmp_path / "e.csv").read_text().strip().split("\n")[1:]
        got = [float(line.split(",")[1]) for line in lines]
        wide = solve_levels(M1Params(1.0, 2.0, 2.0), UnitsConfig(1.0), 16)
        want = [e for e in wide if e > 100.0][:2]
        assert min(got) > 100.0
        assert np.allclose(got, want, rtol=0.0, atol=1e-9)

    def test_e_min_above_1e4_ev_gives_levels_above_it(self, tmp_path, monkeypatch):
        assert run_cli(tmp_path, monkeypatch, self.E_MIN_ARGV + ["20000"]) == 0
        lines = (tmp_path / "e.csv").read_text().strip().split("\n")[1:]
        got = [float(line.split(",")[1]) for line in lines]
        assert len(got) == 2 and min(got) > 2e4

    def test_compare_rejects_e_min(self, tmp_path, monkeypatch, capsys):
        # the oracle gives the lowest levels: analytic levels above e_min
        # would be gated against the wrong partners
        argv = ["compare"] + self.E_MIN_ARGV[1:] + ["100"]
        assert run_cli(tmp_path, monkeypatch, argv) == 1
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "e_min" in err

    def test_compare_levels_beyond_oracle_grid(self, tmp_path, monkeypatch, capsys):
        argv = ["compare", "--model", "m1", "--v0", "1", "--a", "2", "--b", "2", "--u", "100",
                "--levels", "600", "--oracle-points", "500", "--out", "bad.csv"]
        assert run_cli(tmp_path, monkeypatch, argv) == 1
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "600 levels" in err and "501 interior points" in err and "--oracle-points" in err

    def test_e_min_zero_is_config_error(self, tmp_path, monkeypatch, capsys):
        assert run_cli(tmp_path, monkeypatch, self.E_MIN_ARGV + ["0"]) == 1
        assert list(tmp_path.iterdir()) == []
        assert "e_min must be positive" in capsys.readouterr().err

    def test_gate_failure_is_three(self, tmp_path, monkeypatch):
        code = run_cli(
            tmp_path, monkeypatch,
            ["compare", "--model", "m1", "--v0", "10", "--a", "2", "--b", "2",
             "--levels", "2", "--oracle-points", "500", "--no-richardson",
             "--tolerance", "1e-9", "--out", "gate.csv"],
        )
        assert code == 3
        assert (tmp_path / "gate.csv").exists()


class TestSolveOutput:
    def test_preset_point_solve(self, tmp_path, monkeypatch):
        # presets carry the symmetric configuration as the base point
        code = run_cli(tmp_path, monkeypatch, ["solve", "--preset", "fig3", "--out", "p.csv"])
        assert code == 0
        lines = (tmp_path / "p.csv").read_text().strip().split("\n")
        energies = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(energies) == 4
        assert energies == sorted(energies)
        assert energies[1] == pytest.approx((math.pi / 2.0) ** 2, abs=1e-8)

    def test_preset_effective_sweep_with_chart(self, tmp_path, monkeypatch):
        code = run_cli(
            tmp_path, monkeypatch,
            ["sweep", "--preset", "fig4", "--lambda-steps", "40", "--effective",
             "--out", "w.csv", "--svg", "w.svg"],
        )
        assert code == 0
        lines = (tmp_path / "w.csv").read_text().strip().split("\n")
        assert lines[0] == "lambda,E1,E2,E3,E4,Ep1,Ep2,Ep3,Ep4"
        assert len(lines) == 41
        assert (tmp_path / "w.svg").read_text().count("<polyline") == 4

    def test_csv_contract(self, tmp_path, monkeypatch):
        run_cli(
            tmp_path, monkeypatch,
            ["solve", "--model", "m3", "--v0", "0", "--hw1", "2", "--hw2", "2",
             "--levels", "3", "--out", "levels.csv"],
        )
        raw = (tmp_path / "levels.csv").read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").strip().split("\n")
        assert lines[0] == "level,energy_ev"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        energies = [float(r[1]) for r in rows]
        assert np.allclose(energies, [1.0, 3.0, 5.0], atol=1e-8)


class TestSweepOutput:
    ARGS = [
        "sweep", "--model", "m1", "--v0", "0", "--a", "2", "--u", "1",
        "--lambda-min", "0.5", "--lambda-max", "2.5", "--lambda-steps", "5",
        "--levels", "3",
    ]

    def test_header_and_closed_form(self, tmp_path, monkeypatch):
        run_cli(tmp_path, monkeypatch, self.ARGS + ["--out", "sw.csv"])
        lines = (tmp_path / "sw.csv").read_text().strip().split("\n")
        assert lines[0] == "lambda,E1,E2,E3"
        assert len(lines) == 6
        for line in lines[1:]:
            vals = [float(tok) for tok in line.split(",")]
            b = vals[0]
            for n in (1, 2, 3):
                assert vals[n] == pytest.approx((n * math.pi / (2.0 + b)) ** 2, abs=1e-8)

    def test_effective_columns(self, tmp_path, monkeypatch):
        run_cli(tmp_path, monkeypatch, self.ARGS + ["--effective", "--out", "eff.csv"])
        lines = (tmp_path / "eff.csv").read_text().strip().split("\n")
        assert lines[0] == "lambda,E1,E2,E3,Ep1,Ep2,Ep3"
        for line in lines[1:]:
            vals = [float(tok) for tok in line.split(",")]
            for n in (1, 2, 3):
                assert vals[3 + n] == pytest.approx((n * math.pi) ** 2, rel=1e-9)

    def test_significant_digits_round_trip(self, tmp_path, monkeypatch):
        run_cli(tmp_path, monkeypatch, self.ARGS + ["--out", "rt.csv"])
        text = (tmp_path / "rt.csv").read_text()
        for token in text.strip().split("\n")[1].split(","):
            assert f"{float(token):.12g}" == token

    def test_svg_one_polyline_per_level(self, tmp_path, monkeypatch):
        run_cli(tmp_path, monkeypatch, self.ARGS + ["--out", "s.csv", "--svg", "s.svg"])
        svg = (tmp_path / "s.svg").read_text()
        assert svg.count("<polyline") == 3
        assert svg.startswith("<svg")

    @pytest.mark.parametrize("tag", ["m1", "M1"])
    def test_config_file_sweep_needs_no_swept_value(self, tmp_path, monkeypatch, tag):
        # the swept b is seeded from the window, whatever the tag's case
        (tmp_path / "sw.cfg").write_text(
            f"model={tag}\nv0=0\na=2\nlambda_min=0.5\nlambda_max=2.5\nsteps=5\nlevels=3\n",
            encoding="utf-8",
        )
        code = run_cli(tmp_path, monkeypatch, ["sweep", "--config", "sw.cfg", "--out", "f.csv"])
        assert code == 0
        run_cli(tmp_path, monkeypatch, self.ARGS + ["--out", "flags.csv"])
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()

    def test_sweep_leaves_the_config_unchanged(self, tmp_path, monkeypatch):
        # the swept b is seeded from the window on a copy of the settings
        monkeypatch.chdir(tmp_path)
        cfg = parse_config(self.ARGS)
        assert cfg.b is None
        assert cmd_sweep(cfg) == 0
        assert cfg.b is None

    def test_byte_identical_across_runs(self, tmp_path, monkeypatch):
        run_cli(tmp_path, monkeypatch, self.ARGS + ["--out", "a.csv"])
        run_cli(tmp_path, monkeypatch, self.ARGS + ["--out", "b.csv"])
        run_cli(tmp_path, monkeypatch, self.ARGS + ["--out", "c.csv"])
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        assert a == (tmp_path / "c.csv").read_bytes()


class TestDetectOutput:
    def test_csv_and_edge_file(self, tmp_path, monkeypatch):
        code = run_cli(
            tmp_path, monkeypatch,
            ["detect", "--model", "m1", "--v0", "10", "--a", "2", "--u", "1",
             "--lambda-min", "1.5", "--lambda-max", "2.5", "--lambda-steps", "31",
             "--levels", "2", "--gap-ceiling", "1.0", "--out", "ac.csv"],
        )
        assert code == 0
        lines = (tmp_path / "ac.csv").read_text().strip().split("\n")
        assert lines[0] == "gap_index,lambda_star,gap_ev,e_mid_ev"
        assert len(lines) == 2
        idx, lam, gap, mid = lines[1].split(",")
        assert int(idx) == 1
        assert float(lam) == pytest.approx(2.0276, abs=5e-3)
        assert float(gap) > 0.0
        assert (tmp_path / "ac.edges.csv").exists()

    def test_empty_detection_writes_header_only(self, tmp_path, monkeypatch):
        code = run_cli(
            tmp_path, monkeypatch,
            ["detect", "--model", "m1", "--v0", "0", "--a", "2", "--u", "1",
             "--lambda-min", "0.5", "--lambda-max", "1.5", "--lambda-steps", "11",
             "--levels", "2", "--gap-ceiling", "0.1", "--out", "none.csv"],
        )
        assert code == 0
        assert (tmp_path / "none.csv").read_text() == "gap_index,lambda_star,gap_ev,e_mid_ev\n"


class TestCompareOutput:
    def test_gate_passes_at_default_tolerance(self, tmp_path, monkeypatch):
        code = run_cli(
            tmp_path, monkeypatch,
            ["compare", "--model", "m1", "--v0", "10", "--a", "2", "--b", "2",
             "--levels", "3", "--oracle-points", "1000", "--out", "cmp.csv"],
        )
        assert code == 0
        lines = (tmp_path / "cmp.csv").read_text().strip().split("\n")
        assert lines[0] == "level,analytic_ev,oracle_ev,abs_diff_ev"
        assert len(lines) == 4
        for line in lines[1:]:
            _, ana, ora, diff = line.split(",")
            # columns are quantized to 12 significant digits
            assert abs(float(ana) - float(ora)) == pytest.approx(float(diff), abs=2e-11)
            assert float(diff) <= 2e-3


def test_import_does_not_load_multiprocessing():
    # nothing in the package runs processes; the import must not pay for them
    code = "import sys, dwcross.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False"


def _run_module(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "dwcross", *args], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


def test_module_entry_point_runs_main(tmp_path, monkeypatch):
    # python -m dwcross is cli.main: the same CSV, and its exit codes
    out = _run_module(["solve", "--preset", "fig3", "--out", "module.csv"], tmp_path)
    assert out.returncode == 0, out.stderr
    assert run_cli(tmp_path, monkeypatch, ["solve", "--preset", "fig3", "--out", "main.csv"]) == 0
    assert (tmp_path / "module.csv").read_text() == (tmp_path / "main.csv").read_text()
    bad = _run_module(["solve", "--preset", "fig3", "--no-such-flag", "--out", "bad.csv"], tmp_path)
    assert bad.returncode == 1 and bad.stderr.startswith("config error:")
    assert not (tmp_path / "bad.csv").exists()
