"""Command-line surface: parsing, outputs, exit codes, determinism."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausspml import DomainError
from gausspml.cli import (
    _fuse_leading_dash_values,
    _parse_grid,
    _validate_args,
    main,
    parse_config,
    run,
)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestGridParsing:
    def test_colon_spec_inclusive(self):
        got = _parse_grid("0.1:0.4:0.1", "deltas")
        assert got == pytest.approx([0.1, 0.2, 0.3, 0.4])

    def test_comma_list(self):
        assert _parse_grid("0.05,0.2", "deltas") == [0.05, 0.2]

    def test_negative_bounds(self):
        got = _parse_grid("-1:1:0.5", "y-grid")
        assert got == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])

    @pytest.mark.parametrize("bad", ["0.4:0.1:0.1", "0:1:0", "a,b", "1:2", ""])
    def test_bad_specs(self, bad):
        with pytest.raises(DomainError):
            _parse_grid(bad, "deltas")

    def test_point_count_capped(self, capsys):
        # the count is checked before a list is built: a 1e-12 step must not
        # allocate 10^12 floats
        assert len(_parse_grid("0:999999:1", "y-grid")) == 10**6
        for spec in ("0:1000000:1", "0:1:1e-12", "0:inf:1", "0:1:1e-320"):
            with pytest.raises(DomainError, match="more than 1000000 points"):
                _parse_grid(spec, "y-grid")
        code, out, err = _run(capsys, "posterior", "--y-grid", "0:1:1e-9")
        assert (code, out) == (2, "")
        assert "--y-grid" in err

    def test_fuse_leading_dash(self):
        argv = ["posterior", "--y-grid", "-4:4:0.5", "--seed", "3"]
        fused = _fuse_leading_dash_values(argv)
        assert fused == ["posterior", "--y-grid=-4:4:0.5", "--seed", "3"]

    def test_fuse_leaves_flags_alone(self):
        argv = ["posterior", "--y-grid", "--format"]
        assert _fuse_leading_dash_values(argv) == argv


class TestEnvelopeCommand:
    def test_values_and_columns(self, capsys):
        code, out, _ = _run(capsys, "envelope", "--deltas", "0.05,0.1,0.2,0.4")
        assert code == 0
        rows = _rows(out)
        assert [r["delta"] for r in rows] == ["0.05", "0.1", "0.2", "0.4"]
        for row in rows:
            expected = math.log(2.0 / float(row["delta"]))
            assert float(row["epsilon_d_nats"]) == pytest.approx(expected, rel=1e-9)
            assert row["regime"] == "ClosedForm"
            witness = json.loads(row["witness_json"])
            assert witness["cells"][0]["lo"] == "-inf"

    def test_json_format(self, capsys):
        code, out, _ = _run(capsys, "envelope", "--deltas", "0.1", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert isinstance(records, list)
        assert records[0]["epsilon_d_nats"] == pytest.approx(math.log(20.0))
        assert records[0]["witness_json"]["cells"][-1]["hi"] == "inf"


class TestPosteriorCommand:
    def test_conjugate_table(self, capsys):
        code, out, _ = _run(capsys, "posterior", "--y-grid", "-4:4:0.5")
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 17
        for row in rows:
            y = float(row["y"])
            assert float(row["posterior_mean"]) == pytest.approx(y / 2.0, abs=1e-10)
            assert float(row["posterior_variance"]) == pytest.approx(0.5, abs=1e-9)


class TestLeakageCommand:
    def test_interval(self, capsys):
        code, out, _ = _run(capsys, "leakage", "--interval", "-0.5,1.2")
        assert code == 0
        row = _rows(out)[0]
        event = json.loads(row["event_json"])
        assert event == [{"lo": -0.5, "hi": 1.2}]
        assert float(row["leakage_nats"]) > 0.0
        assert 0.0 < float(row["mass"]) < 1.0

    def test_tail_interval(self, capsys):
        code, out, _ = _run(capsys, "leakage", "--interval", "1,inf")
        assert code == 0
        row = _rows(out)[0]
        assert float(row["leakage_nats"]) == pytest.approx(
            -math.log(float(row["mass"])), rel=1e-9
        )

    def test_union_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "prior": {"type": "gaussian", "sigma_x": 1.0},
                    "sigma_n": 1.0,
                    "command": "leakage",
                    "command_args": {"union": [[-2.0, -1.0], [1.0, 2.0]]},
                }
            )
        )
        code, out, _ = _run(capsys, "--config", str(cfg))
        assert code == 0
        row = _rows(out)[0]
        assert len(json.loads(row["event_json"])) == 2


class TestSearchCommand:
    def test_row_shape(self, capsys):
        code, out, _ = _run(capsys, "search", "--deltas", "0.2", "--max-cells", "2")
        assert code == 0
        row = _rows(out)[0]
        assert row["max_cells"] == "2"
        assert float(row["epsilon_lb_nats"]) == pytest.approx(math.log(10.0), abs=1e-4)
        json.loads(row["witness_json"])


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "all", "--seed", "7")
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 5
        assert all(r["passed"] == "true" for r in rows)

    def test_json_report_is_record_list(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "--suite", "concavity_identity", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert isinstance(report, list)
        assert set(report[0]) >= {"name", "passed", "worst_violation", "location"}

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from gausspml.verify import CheckResult
        import gausspml.cli as cli_mod

        def fake_suite(m, suite="all", seed=0):
            return [
                CheckResult(
                    name="concavity_identity",
                    passed=False,
                    worst_violation=1.0,
                    location=None,
                    details="planted failure",
                    tolerance=1e-4,
                )
            ]

        monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
        code, out, _ = _run(capsys, "verify", "--suite", "all")
        assert code == 1
        assert _rows(out)[0]["passed"] == "false"

    def test_json_report_is_strict_json_when_a_check_errors(self, capsys, monkeypatch):
        import gausspml.verify as verify_mod

        def broken(*args, **kwargs):
            raise DomainError("planted domain error")

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        monkeypatch.setattr(verify_mod, "check_tail_worst_bound", broken)
        code, out, _ = _run(capsys, "verify", "--suite", "tail_worst_bound", "--format", "json")
        assert code == 1
        (rec,) = json.loads(out, parse_constant=reject)
        assert (rec["passed"], rec["worst_violation"]) == (False, "inf")
        code, out, _ = _run(capsys, "verify", "--suite", "tail_worst_bound")
        assert _rows(out)[0]["worst_violation"] == "inf"

    def test_suite_list_parsed_like_run_suite(self, capsys):
        # a trailing comma selects the named check, as run_suite reads it
        code, out, err = _run(capsys, "verify", "--suite", "concavity_identity,")
        assert code == 0, err
        assert [r["name"] for r in _rows(out)] == ["concavity_identity"]
        code, out, err = _run(capsys, "verify", "--suite", ",")
        assert (code, out) == (2, "")
        assert "pml: config error: /command_args/suite: suite selects no checks" in err
        code, out, err = _run(capsys, "verify", "--suite", "concavity_identity,nope")
        assert (code, out) == (2, "")
        assert "/command_args/suite: unknown check 'nope'" in err

    def test_determinism(self, capsys):
        _, out1, _ = _run(capsys, "verify", "--suite", "all", "--seed", "7")
        _, out2, _ = _run(capsys, "verify", "--suite", "all", "--seed", "7")
        assert out1 == out2


class TestConfigFile:
    def test_minimal_flat_config_fills_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "prior": {"type": "gaussian", "sigma_x": 1.0},
                    "sigma_n": 1.0,
                    "command": "envelope",
                }
            )
        )
        rc = parse_config(str(cfg))
        assert rc.quadrature.truncation_halfwidth == 10.0
        assert rc.quadrature.panel_count == 2048
        assert rc.format == "csv"
        assert rc.seed == 0

    def test_nested_mechanism_schema(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "mechanism": {
                        "prior": {"type": "slc", "beta": 1.0, "c": 1.0, "p": 4.0},
                        "sigma_n": 0.5,
                        "quadrature": {"panel_count": 4096},
                    },
                    "command": "posterior",
                    "command_args": {"y_grid": [0.0, 1.0]},
                    "seed": 3,
                }
            )
        )
        rc = parse_config(str(cfg))
        assert rc.sigma_n == 0.5
        assert rc.quadrature.panel_count == 4096
        assert rc.command == "posterior"

    @pytest.mark.parametrize(
        "patch, fragment",
        [
            ({"sigma_n": 0}, "sigma_n"),
            ({"sigma_n": "one"}, "sigma_n"),
            ({"format": "xml"}, "/format"),
            ({"seed": 1.5}, "/seed"),
            ({"command": "plot"}, "/command"),
            ({"unknown_key": 1}, "/unknown_key"),
            ({"quadrature": {"panel_count": 3000.0}}, "/quadrature"),
        ],
    )
    def test_schema_violations_name_the_field(self, tmp_path, patch, fragment):
        base = {
            "prior": {"type": "gaussian", "sigma_x": 1.0},
            "sigma_n": 1.0,
            "command": "envelope",
        }
        base.update(patch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base))
        with pytest.raises(DomainError) as err:
            parse_config(str(cfg))
        assert fragment in str(err.value)

    def test_bad_weights_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "prior": {
                        "type": "mixture",
                        "weights": [0.5, 0.4],
                        "means": [-1, 1],
                        "sigmas": [1, 1],
                    },
                    "sigma_n": 1.0,
                    "command": "envelope",
                }
            )
        )
        with pytest.raises(DomainError) as err:
            parse_config(str(cfg))
        assert "weights" in str(err.value)

    def test_json_error_reports_line(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{\n  "prior": oops\n}')
        with pytest.raises(DomainError) as err:
            parse_config(str(cfg))
        assert "line 2" in str(err.value)

    def test_missing_file(self):
        with pytest.raises(DomainError) as err:
            parse_config("/nonexistent/cfg.json")
        assert "not found" in str(err.value)


class TestRunParsedConfig:
    @pytest.mark.parametrize(
        "command, args",
        [
            ("envelope", {"deltas": [0.05, 0.2]}),  # max_cells left at its default
            ("leakage", {"interval": ["-inf", 1.0]}),  # an endpoint spelled as a string
        ],
    )
    def test_run_matches_main(self, capsys, tmp_path, command, args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "prior": {"type": "gaussian", "sigma_x": 1.0},
                    "sigma_n": 1.0,
                    "command": command,
                    "command_args": args,
                }
            )
        )
        text, ok = run(parse_config(str(cfg)))
        assert ok
        assert _run(capsys, "--config", str(cfg)) == (0, text, "")

    def test_no_command_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": {"type": "gaussian", "sigma_x": 1.0}, "sigma_n": 1.0}))
        with pytest.raises(DomainError, match="no command"):
            run(parse_config(str(cfg)))


class TestExitCodes:
    def test_config_error_is_two(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{")
        code, _, err = _run(capsys, "envelope", "--config", str(cfg))
        assert code == 2
        assert "config error" in err

    def test_missing_command_is_two(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"prior": {"type": "gaussian", "sigma_x": 1.0}, "sigma_n": 1.0})
        )
        code, _, err = _run(capsys, "--config", str(cfg))
        assert code == 2
        assert "command" in err

    def test_non_numeric_prior_parameter_is_two(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "prior": {"type": "gaussian", "sigma_x": "abc"},
                    "sigma_n": 1.0,
                    "command": "posterior",
                    "command_args": {"y_grid": [0.0]},
                }
            )
        )
        code, _, err = _run(capsys, "--config", str(cfg))
        assert code == 2
        assert "/prior/sigma_x" in err

    def test_bad_command_args_are_two(self, capsys):
        code, _, err = _run(capsys, "envelope", "--deltas", "0.0,0.1")
        assert code == 2
        assert "deltas" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("envelope", "--deltas", "0:a:0.1"), "--deltas: non-numeric component in '0:a:0.1'"),
            (("leakage", "--interval", "1,x"), "--interval: bad endpoint in '1,x'"),
        ],
    )
    def test_bad_flag_value_is_two(self, capsys, argv, message):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_config_naming_a_directory_is_two(self, capsys, tmp_path):
        code, out, err = _run(capsys, "envelope", "--config", str(tmp_path))
        assert (code, out) == (2, "")
        assert f"cannot read config file {tmp_path}" in err

    def test_leakage_without_event_is_two(self, capsys):
        code, _, err = _run(capsys, "leakage")
        assert code == 2

    def test_numerical_failure_is_three(self, capsys, tmp_path):
        xs = np.linspace(-6.0, 6.0, 2001)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "prior": {
                        "type": "grid",
                        "xs": list(xs),
                        "log_density": list(-0.1 * xs**2 + 2.0 * np.sin(4.0 * xs)),
                    },
                    "sigma_n": 0.05,
                    "command": "posterior",
                    "command_args": {"y_grid": [0.0]},
                }
            )
        )
        code, _, err = _run(capsys, "--config", str(cfg))
        assert code == 3
        assert "numerical failure" in err

    def test_unwritable_out_is_two(self, capsys, tmp_path):
        code, _, err = _run(
            capsys,
            "envelope",
            "--deltas",
            "0.1",
            "--out",
            str(tmp_path / "nodir" / "x.csv"),
        )
        assert code == 2
        assert "cannot write output" in err


class TestOutputFile:
    def test_file_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = _run(capsys, "envelope", "--deltas", "0.1,0.2")
        out_file = tmp_path / "envelope.csv"
        code, out, _ = _run(
            capsys, "envelope", "--deltas", "0.1,0.2", "--out", str(out_file)
        )
        assert code == 0
        assert out == ""
        assert out_file.read_text() == stdout_text

    def test_no_temp_residue(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        _run(capsys, "verify", "--suite", "brascamp_lieb_bound", "--out", str(out_file))
        leftovers = [p for p in tmp_path.iterdir() if p.name != "report.csv"]
        assert leftovers == []


class TestFlagOverrides:
    def test_subcommand_overrides_config_command(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "prior": {"type": "gaussian", "sigma_x": 1.0},
                    "sigma_n": 1.0,
                    "command": "posterior",
                    "command_args": {"y_grid": [0.0]},
                }
            )
        )
        code, out, _ = _run(
            capsys, "envelope", "--config", str(cfg), "--deltas", "0.1"
        )
        assert code == 0
        assert "epsilon_d_nats" in out.splitlines()[0]

    def test_seed_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "prior": {"type": "gaussian", "sigma_x": 1.0},
                    "sigma_n": 1.0,
                    "command": "verify",
                    "command_args": {"suite": "concavity_identity"},
                    "seed": 1,
                }
            )
        )
        _, out_cfg_seed, _ = _run(capsys, "--config", str(cfg))
        _, out_flag_seed, _ = _run(capsys, "verify", "--config", str(cfg), "--seed", "99")
        assert "seed 2" in out_cfg_seed  # check seeds derive from the run seed
        assert "seed 100" in out_flag_seed
        assert out_cfg_seed != out_flag_seed

    def test_negative_seed_is_a_config_error(self, capsys, tmp_path):
        for argv in (("verify", "--seed", "-5"),
                     ("verify", "--suite", "tail_worst_bound", "--seed", "-3")):
            code, out, err = _run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "pml: config error: --seed: must be an integer >= 0" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": {"type": "gaussian", "sigma_x": 1.0},
                                   "sigma_n": 1.0, "command": "verify", "seed": -1}))
        code, out, err = _run(capsys, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "/seed: must be an integer >= 0" in err

    def test_grid_log_density_offset(self, capsys, tmp_path):
        outs = []
        for offset in (-800, 0, 800):
            cfg = tmp_path / f"grid{offset}.json"
            prior = {"type": "grid", "xs": [0, 1, 2],
                     "log_density": [offset, offset, offset - 1]}
            cfg.write_text(json.dumps({"prior": prior, "sigma_n": 1.0}))
            code, out, err = _run(capsys, "posterior", "--config", str(cfg), "--y-grid", "0:2:0.5")
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("xs, logd", [([-3, 3], [0, -1]), ([-3, 0, 3], [-2, 0, -2])])
    def test_small_grid_envelope_exits_zero(self, capsys, tmp_path, xs, logd):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": {"type": "grid", "xs": xs, "log_density": logd},
                                   "sigma_n": 1}))
        code, out, err = _run(capsys, "envelope", "--config", str(cfg), "--deltas", "0.1",
                              "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)[0]["regime"] == "LowerBoundOnly"

    def test_wide_gaussian_verify_exits_zero(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": {"type": "gaussian", "sigma_x": 2.0},
                                   "sigma_n": 1.0}))
        code, out, _ = _run(capsys, "verify", "--config", str(cfg), "--suite",
                            "interval_monotonicity", "--format", "json")
        assert code == 0
        (rec,) = json.loads(out)
        assert rec["passed"] is True
        assert "sigma_x^2 <= 3 sigma_n^2" in rec["details"]

    def test_config_before_or_after_subcommand(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "prior": {"type": "gaussian", "sigma_x": 2.0},
                    "sigma_n": 1.0,
                    "command": "posterior",
                    "command_args": {"y_grid": [1.0]},
                }
            )
        )
        _, before, _ = _run(capsys, "--config", str(cfg), "posterior", "--y-grid", "1")
        _, after, _ = _run(capsys, "posterior", "--config", str(cfg), "--y-grid", "1")
        _, alone, _ = _run(capsys, "--config", str(cfg))
        assert before == after == alone
        row = _rows(alone)[0]
        assert float(row["posterior_mean"]) == pytest.approx(0.8, abs=1e-10)
        assert float(row["posterior_variance"]) == pytest.approx(0.8, abs=1e-9)

    @pytest.mark.parametrize("hi", ["Infinity", "+inf", "inf"])
    def test_endpoint_spellings_agree(self, capsys, tmp_path, hi):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "prior": {"type": "gaussian", "sigma_x": 1.0},
                    "sigma_n": 1.0,
                    "command": "leakage",
                    "command_args": {"interval": [1, hi]},
                }
            )
        )
        code, from_config, _ = _run(capsys, "--config", str(cfg))
        _, from_flag, _ = _run(capsys, "leakage", "--interval", "1,Infinity")
        assert code == 0
        assert from_config == from_flag


# One valid config per command; the property test below breaks one node.
_VALID_CONFIGS = [
    {
        "prior": {"type": "gaussian", "sigma_x": 1.0},
        "sigma_n": 1.0,
        "quadrature": {"truncation_halfwidth": 10.0, "panel_count": 2048, "abs_tol": 1e-10},
        "command": "envelope",
        "command_args": {"deltas": [0.1, 0.2], "max_cells": 2},
        "format": "csv",
        "seed": 0,
    },
    {
        "mechanism": {
            "prior": {"type": "slc", "beta": 1.0, "c": 1.0, "p": 4.0},
            "sigma_n": 0.5,
            "quadrature": {"panel_count": 4096},
        },
        "command": "search",
        "command_args": {"deltas": [0.1], "max_cells": 1},
        "output_path": "out.csv",
    },
    {
        "prior": {"type": "mixture", "weights": [0.5, 0.5], "means": [-2, 2], "sigmas": [1, 1]},
        "sigma_n": 1.0,
        "command": "leakage",
        "command_args": {"union": [["-inf", -1.0], [1.0, "inf"]]},
    },
    {
        "prior": {"type": "gaussian", "sigma_x": 1.0},
        "sigma_n": 1.0,
        "command": "leakage",
        "command_args": {"interval": [-0.5, "Infinity"]},
    },
    {
        "mechanism": {
            "prior": {"type": "grid", "xs": [0.0, 1.0, 2.0], "log_density": [0.0, -1.0, -2.0]},
            "sigma_n": 1.0,
        },
        "command": "posterior",
        "command_args": {"y_grid": [0.0, 1.0]},
        "format": "json",
    },
    {
        "prior": {"type": "gaussian", "sigma_x": 1.0},
        "sigma_n": 1.0,
        "command": "verify",
        "command_args": {"suite": "concavity_identity"},
        "seed": 3,
    },
]


def _paths(node, here=()):
    """Paths to every node below the root of a JSON value."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield here + (key,)
        yield from _paths(child, here + (key,))


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["inf", "-inf", "Infinity", "all", "gaussian", "json", "posterior", 10**400]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


class TestMalformedConfig:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_only_config_errors(self, tmp_path_factory, data):
        cfg = json.loads(json.dumps(data.draw(st.sampled_from(_VALID_CONFIGS))))
        path = data.draw(st.sampled_from(list(_paths(cfg))))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(_JSON_VALUES)
        cfg_file = tmp_path_factory.getbasetemp() / "malformed.json"
        cfg_file.write_text(json.dumps(cfg))
        try:
            rc = parse_config(str(cfg_file))
            if rc.command is not None:
                _validate_args(rc.command, dict(rc.command_args))
        except DomainError:
            pass
