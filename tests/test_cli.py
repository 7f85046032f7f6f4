import argparse
import dataclasses
import hashlib
import json
import os
import stat

import pytest

from vanetmarket import Bounds, EconParams, LossModel, UtilityModel
from vanetmarket.cli import build_parser, main
from vanetmarket.config import RunConfig, load_config


def run(args):
    return main([str(a) for a in args])


class TestGenIngest:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "g"
        assert run(["gen", "--out", out, "--vehicles", 5, "--duration", 20, "--seed", 3]) == 0
        traces = out / "traces.csv"
        assert traces.exists()
        ing = tmp_path / "i"
        assert run(["ingest", "--traces", traces, "--out", ing]) == 0
        summary = json.loads((ing / "ingest_summary.json").read_text())
        assert summary["n_vehicles"] == 5
        assert summary["n_samples"] == 100
        assert (ing / "map.csv").read_text().startswith("cell_x,cell_y,time_idx,count\n")

    def test_ingest_requires_traces(self, tmp_path, capsys):
        assert run(["ingest", "--out", tmp_path / "x"]) == 1
        assert "traces" in capsys.readouterr().err

    def test_bad_trace_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("vehicle_id,timestamp,lat,lon\na,0,95,116\n")
        assert run(["ingest", "--traces", bad, "--out", tmp_path / "x"]) == 1
        assert "line 2" in capsys.readouterr().err


class TestCalibrateCommands:
    def test_loss_requires_some_input(self, tmp_path, capsys):
        assert run(["calibrate-loss", "--out", tmp_path / "c"]) == 1
        assert "--synthetic" in capsys.readouterr().err

    def test_loss_outputs_are_deterministic(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synthetic_vehicles": 15, "synthetic_duration": 40}))
        for d in ("a", "b"):
            assert (
                run(
                    [
                        "calibrate-loss",
                        "--config",
                        cfg,
                        "--synthetic",
                        "--seed",
                        7,
                        "--out",
                        tmp_path / d,
                    ]
                )
                == 0
            )
        for name in ("loss_calibration.csv", "loss_calibration.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_utility_surface_artifacts(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "synthetic_vehicles": 12,
                    "synthetic_duration": 30,
                    "surface_vehicle_counts": [0, 6, 12],
                    "surface_freqs": [1.0, 0.5],
                }
            )
        )
        out = tmp_path / "u"
        assert run(["calibrate-utility", "--config", cfg, "--synthetic", "--out", out]) == 0
        lines = (out / "utility_surface.csv").read_text().strip().splitlines()
        assert lines[0] == "n_vehicles,f_d,avg_utility"
        assert len(lines) == 1 + 3 * 2
        fit = json.loads((out / "utility_fit.json").read_text())
        assert set(fit) >= {"alpha", "beta", "residual_rms", "converged", "valid"}


class TestOptimizeCommand:
    def test_solution_and_reference_block(self, tmp_path):
        out = tmp_path / "o"
        assert run(["optimize", "--out", out, "--n-starts", 8, "--seed", 1]) == 0
        payload = json.loads((out / "solution.json").read_text())
        assert {"solution", "reference_comparison", "scale_warnings"} <= set(payload)
        ref = payload["reference_comparison"]["reference"]
        assert (ref["c1"], ref["f_d"], ref["s"]) == (3.57e-6, 7.31, 15.12)
        rows = (out / "profit_decomposition.csv").read_text().strip().splitlines()
        assert rows[0] == "c1,f_d,s,utility,server_cost,payments,profit"
        assert len(rows) == 3  # optimum + reference point

    def test_certify_flag_adds_grid_certificate(self, tmp_path):
        out = tmp_path / "oc"
        assert (
            run(
                [
                    "optimize",
                    "--out",
                    out,
                    "--n-starts",
                    4,
                    "--certify",
                    "--grid-resolution",
                    11,
                ]
            )
            == 0
        )
        payload = json.loads((out / "solution.json").read_text())
        assert payload["grid_certificate"]["resolution"] == 11
        assert payload["grid_certificate"]["optimizer_dominates_oracle"] is True

    def test_mode_flags_propagate(self, tmp_path):
        out = tmp_path / "om"
        assert (
            run(
                [
                    "optimize",
                    "--out",
                    out,
                    "--n-starts",
                    4,
                    "--mode-participation",
                    "pdf",
                    "--mode-cost",
                    "times-s",
                ]
            )
            == 0
        )
        payload = json.loads((out / "solution.json").read_text())
        assert payload["solution"]["participation_model"] == "pdf_as_written"
        assert payload["solution"]["server_cost_model"] == "total_times_s"


class TestSweepCommand:
    def test_row_per_value(self, tmp_path):
        out = tmp_path / "s"
        assert (
            run(
                [
                    "sweep",
                    "--param",
                    "c2",
                    "--values",
                    "1e-7,1e-6,1e-5",
                    "--n-starts",
                    2,
                    "--out",
                    out,
                ]
            )
            == 0
        )
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == "param_value,c1,f_d,s,profit"

    def test_missing_values_is_config_error(self, tmp_path, capsys):
        assert run(["sweep", "--param", "c2", "--out", tmp_path / "s"]) == 1
        assert "--values" in capsys.readouterr().err


class TestSimulateCommand:
    def test_artifacts_and_partition(self, tmp_path):
        out = tmp_path / "sim"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synthetic_vehicles": 10, "synthetic_duration": 30}))
        assert (
            run(
                [
                    "simulate",
                    "--config",
                    cfg,
                    "--synthetic",
                    "--out",
                    out,
                    "--s-values",
                    "1,2",
                    "--trials",
                    1,
                ]
            )
            == 0
        )
        summary = json.loads((out / "simulation_summary.json").read_text())
        assert summary["routing_partition_ok"] is True
        curve = (out / "privacy_curve.csv").read_text().strip().splitlines()
        assert curve[0] == "f_d,s,mean_similarity,model_prediction"
        assert len(curve) == 1 + 9 * 2  # default ladder x two server counts
        transcript = json.loads((out / "transcript.json").read_text())
        assert "reconstructed" in transcript

    def test_keep_shares_flag(self, tmp_path):
        out = tmp_path / "ks"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synthetic_vehicles": 4, "synthetic_duration": 20}))
        assert (
            run(
                [
                    "simulate",
                    "--config",
                    cfg,
                    "--synthetic",
                    "--keep-shares",
                    "--out",
                    out,
                    "--s-values",
                    "2",
                    "--trials",
                    1,
                ]
            )
            == 0
        )
        transcript = json.loads((out / "transcript.json").read_text())
        assert transcript["shares_elided"] is False
        assert transcript["share_matrix"] is not None


class TestReportCommand:
    def test_bundles_previous_run(self, tmp_path):
        out = tmp_path / "r"
        assert run(["optimize", "--out", out, "--n-starts", 4]) == 0
        assert run(["report", "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["source_manifest"]["command"] == "optimize"
        assert "solution.json" in report["artifacts"]
        decomposition = report["profit_decomposition"]
        assert decomposition["profit"] == pytest.approx(
            decomposition["utility"] - decomposition["server_cost"] - decomposition["payments"],
            abs=1e-12,
        )
        assert isinstance(report["scale_warnings"], list)

    def test_decomposes_with_the_settings_of_the_reported_run(self, tmp_path):
        out = tmp_path / "r"
        modes = ["--mode-participation", "pdf", "--mode-cost", "times-s"]
        assert run(["optimize", *modes, "--out", out]) == 0
        solution = json.loads((out / "solution.json").read_text())
        assert run(["report", "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["profit_decomposition"]["profit"] == solution["solution"]["profit"]
        assert report["scale_warnings"] == solution["scale_warnings"]

    def test_repeated_report_reports_on_the_same_run(self, tmp_path):
        out = tmp_path / "r"
        modes = ["--mode-participation", "pdf", "--mode-cost", "times-s"]
        assert run(["optimize", *modes, "--n-starts", 4, "--out", out]) == 0
        solution = json.loads((out / "solution.json").read_text())
        assert run(["report", "--out", out]) == 0
        first = (out / "report.json").read_bytes()
        assert run(["report", "--out", out]) == 0
        assert (out / "report.json").read_bytes() == first
        report = json.loads(first)
        assert report["source_manifest"]["command"] == "optimize"
        assert report["profit_decomposition"]["profit"] == solution["solution"]["profit"]

    def test_report_without_run_fails(self, tmp_path, capsys):
        assert run(["report", "--out", tmp_path / "empty"]) == 1
        assert "no prior run" in capsys.readouterr().err


class TestManifestAndConfig:
    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m"
        assert run(["optimize", "--out", out, "--n-starts", 2, "--seed", 9]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["root_seed"] == 9
        assert manifest["command"] == "optimize"
        assert len(manifest["config_hash"]) == 64
        assert sorted(manifest["artifacts"]) == ["profit_decomposition.csv", "solution.json"]
        assert "vanetmarket" in manifest["versions"]

    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "t"
        assert run(["optimize", "--out", out, "--n-starts", 2]) == 0
        assert not [f for f in os.listdir(out) if f.startswith(".tmp")]

    @pytest.mark.parametrize(
        "command",
        [
            ["gen", "--vehicles", 3, "--duration", 10],
            ["simulate", "--synthetic", "--s-values", "2", "--trials", 1],
        ],
    )
    def test_written_files_get_the_umask_mode(self, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synthetic_vehicles": 4, "synthetic_duration": 20}))
        out = tmp_path / "out"
        previous = os.umask(0o027)
        try:
            assert run([*command, "--config", cfg, "--out", out]) == 0
        finally:
            os.umask(previous)
        written = sorted(os.listdir(out))
        assert "manifest.json" in written and len(written) > 1
        for name in written:
            assert stat.S_IMODE(os.stat(out / name).st_mode) == 0o640, name

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"not_a_real_knob": 1}))
        assert run(["optimize", "--config", cfg, "--out", tmp_path / "x"]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"econ": {"bogus": 1}}, "unknown config keys: ['econ.bogus']"),
            ({"econ": {"loss": {"kk": 1}}}, "unknown config keys: ['econ.loss.kk']"),
            ({"bounds": {"c1": [1e-8, 1e-3], "fd": [1, 2]}}, "unknown config keys: ['bounds.fd']"),
            ({"econ": 1}, "config econ must be a JSON object"),
            ({"bounds": {"s": [0.5, 10.0]}}, "bounds for s must satisfy 1 <= lo < hi, got (0.5, 10.0)"),
        ],
    )
    def test_bad_nested_config_is_a_config_error(self, tmp_path, capsys, data, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        assert run(["gen", "--config", cfg, "--out", tmp_path / "x"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"bbox": 5}, "config bbox must be a JSON array, got 5"),
            ({"econ": {"sigma": "x"}}, "config econ.sigma must be of type float, got 'x'"),
            ({"econ": {"loss": {"k": [1]}}}, "config econ.loss.k must be of type float, got [1]"),
            ({"seed": "1"}, "config seed must be of type int, got '1'"),
            ({"synthetic": "no"}, "config synthetic must be of type bool, got 'no'"),
            ({"traces": 5}, "config traces must be of type str | None, got 5"),
            ({"bounds": {"c1": ["a", 1]}}, "config bounds.c1[0] must be of type float, got 'a'"),
            ({"sim_s_values": ["a", "b"]}, "config sim_s_values[0] must be of type int, got 'a'"),
            (
                {"calibration_freqs": ["x", 0.5]},
                "config calibration_freqs[0] must be of type float, got 'x'",
            ),
            ({"bbox": ["a", "b", "c", "d"]}, "config bbox[0] must be of type float, got 'a'"),
            (
                {"surface_vehicle_counts": [1.5, 2]},
                "config surface_vehicle_counts[0] must be of type int, got 1.5",
            ),
            ({"bbox": [39.8, 40.0, 116.25]}, "config bbox must have 4 elements, got 3"),
            (
                {"reference_point": [1e-6, 7.0, 15.0, 1.0]},
                "config reference_point must have 3 elements, got 4",
            ),
            ({"bounds": {"s": [1.0]}}, "config bounds.s must have 2 elements, got 1"),
            ({"seed": True}, "config seed must be of type int, got True"),
            ({"econ": {"sigma": True}}, "config econ.sigma must be of type float, got True"),
            (
                {"bbox": [True, 40.0, 116.25, 116.5]},
                "config bbox[0] must be of type float, got True",
            ),
        ],
    )
    def test_wrongly_typed_config_value_is_a_config_error(self, tmp_path, capsys, data, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        assert run(["gen", "--config", cfg, "--out", tmp_path / "x"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_nested_keys_take_their_defaults(self, tmp_path):
        cfg = tmp_path / "partial.json"
        cfg.write_text(json.dumps({"bounds": {"c1": [1e-8, 1e-3]}, "econ": {"loss": {"k": 11.0}}}))
        config = load_config(str(cfg))
        assert config.bounds == Bounds(c1=(1e-8, 1e-3))
        assert config.econ == EconParams(loss=LossModel(k=11.0))
        out = tmp_path / "g"
        assert run(["gen", "--vehicles", 2, "--duration", 5, "--config", cfg, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        bounds = {"c1": [1e-8, 1e-3], "f_d": [0.1, 60.0], "s": [1.0, 100.0]}
        assert manifest["config"]["bounds"] == bounds

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "n_starts": 2}))
        out = tmp_path / "o"
        assert run(["optimize", "--config", cfg, "--seed", 5, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["root_seed"] == 5
        assert manifest["config"]["n_starts"] == 2

    def test_config_round_trip(self, tmp_path):
        config = RunConfig(
            seed=4,
            bbox=(39.8, 116.2, 40.0, 116.5),
            calibration_freqs=(0.5, 0.25),
            surface_vehicle_counts=(0, 5, 10),
            surface_freqs=(1.0, 0.5),
            reference_point=(1e-6, 2.0, 3.0),
            sweep_values=(1.0, 2.0),
            sim_s_values=(1, 3),
            econ=EconParams(
                c1=2e-6,
                sigma=0.8,
                participation_model="pdf_as_written",
                server_cost_model="total_times_s",
                loss=LossModel(k=10.0, q=8.0),
                utility=UtilityModel(alpha=0.8, beta=0.3),
            ),
            bounds=Bounds(c1=(1e-8, 1e-4), f_d=(0.2, 30.0), s=(2.0, 50.0)),
        )
        # every tuple-typed setting takes part in the round trip
        defaults = RunConfig()
        for f in dataclasses.fields(RunConfig):
            if isinstance(getattr(defaults, f.name), tuple):
                assert getattr(config, f.name) != getattr(defaults, f.name), f.name
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config.to_json_dict()))
        assert load_config(str(path)) == config

    def test_default_config_hash_is_pinned(self):
        # manifests written by earlier versions carry this hash for the default config
        assert RunConfig().config_hash() == (
            "a8f1fccb5e3fe9a49b5b61db354e73e03f3f0dd7f8c65aafc17a1428585d51f3"
        )

    def test_every_flag_overrides_a_config_field(self):
        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {
            action.dest
            for p in [parser, *subparsers.choices.values()]
            for action in p._actions
            if action.default is not argparse.SUPPRESS
        }
        settings = {f.name for f in dataclasses.fields(RunConfig)}
        assert dests - settings == {
            "config",
            "command",
            "certify",
            "mode_participation",
            "mode_cost",
        }

    def test_identical_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "x"
        assert run(["optimize", "--out", out, "--n-starts", 4, "--seed", 2]) == 0
        names = ("solution.json", "profit_decomposition.csv", "manifest.json")
        first = {name: (out / name).read_bytes() for name in names}
        assert run(["optimize", "--out", out, "--n-starts", 4, "--seed", 2]) == 0
        assert {name: (out / name).read_bytes() for name in names} == first
        # numeric outputs are also independent of where the run lands
        other = tmp_path / "y"
        assert run(["optimize", "--out", other, "--n-starts", 4, "--seed", 2]) == 0
        for name in ("solution.json", "profit_decomposition.csv"):
            assert (other / name).read_bytes() == first[name]

    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1


# sha256 of the gridding and utility-surface outputs for a 40-vehicle, 30-minute
# `gen --seed 5` fleet. Refactors of build_map, build_utility_surface and their
# callers must keep these bytes.
PINNED_OUTPUTS = {
    "traces.csv": "ef1d1c1bd6620dff4db29248626ecb751559aaf78d42da9d0438aab8754b015a",
    "vehicles/map.csv": "d8d89438e16f427ac19dbacb4c93d4e26bf53eebd207f19c6dc3657a6a284b33",
    "vehicles/map.json": "b06efd362e55ddae013fbb1bd6337ec9b48704cc5165491596fbd020414a0687",
    "vehicles/utility_surface.csv": (
        "bc032112d7d8deae972cc33eb5615b9540caf7b5942f664d8164906a8e04d9d7"
    ),
    "samples/map.csv": "eddbdd7061a64b125a2854b58d9aec9373a58b4ca243b9ad4d09e04eaae3e036",
    "samples/map.json": "062365f510f274ff804296d8e0dbff6385e0233af79ebc2ef4139d9dcdc07eb8",
    "samples/utility_surface.csv": (
        "f70238de4989e3b52715c2e3291fccdaeee9fe972fcccd8792e6ec23782554ce"
    ),
}


def test_ingest_and_utility_outputs_are_pinned(tmp_path):
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    gen_argv = ["gen", "--vehicles", 40, "--duration", 30, "--seed", 5]
    assert run([*gen_argv, "--out", tmp_path / "g"]) == 0
    traces = tmp_path / "g" / "traces.csv"
    got = {"traces.csv": digest(traces)}
    for mode in ("vehicles", "samples"):
        cfg = tmp_path / f"{mode}.json"
        cfg.write_text(json.dumps({"count_mode": mode}))
        ingest, surface = tmp_path / f"i-{mode}", tmp_path / f"u-{mode}"
        assert run(["ingest", "--config", cfg, "--traces", traces, "--out", ingest]) == 0
        utility_argv = ["calibrate-utility", "--config", cfg, "--traces", traces, "--seed", 5]
        assert run([*utility_argv, "--out", surface]) == 0
        got[f"{mode}/map.csv"] = digest(ingest / "map.csv")
        got[f"{mode}/map.json"] = digest(ingest / "map.json")
        got[f"{mode}/utility_surface.csv"] = digest(surface / "utility_surface.csv")
    assert got == PINNED_OUTPUTS


# sha256 of the market outputs at the default config: `optimize --certify` in
# both mode combinations and a three-value sigma sweep. The search runs on
# Python floats and libm only, so these bytes move only when the search or the
# profit model does.
PINNED_MARKET_OUTPUTS = {
    "cdf/solution.json": "9331249a054ba3876f9018c8ea4f91ef3411c5e6f404816c172060e8fd777a5b",
    "cdf/profit_decomposition.csv": (
        "0f9451ef74460d6481b2e2f57720e18733d532be627b2b8b15fe1ee889c8ca0d"
    ),
    "pdf/solution.json": "b1480edaea64b8829d73ff4b760b667830e0249cd2403895aeac6363d30d0956",
    "pdf/profit_decomposition.csv": (
        "e795231b7d839ad07980f0e272ddf4f05cc5a805ed62a4f1a93eb77db7313b51"
    ),
    "sweep/sweep.json": "25da7d5cd4c0a3a47b99ef654e8fbfb74259871acd00f0edbeb7af8fe76bfcf0",
    "sweep/sweep.csv": "4629f6ddeb93397ad92f588910beed345ac68046840d112df5fc809692e0e049",
}


def test_optimize_and_sweep_outputs_are_pinned(tmp_path):
    modes = ["--mode-participation", "pdf", "--mode-cost", "times-s"]
    assert run(["optimize", "--certify", "--out", tmp_path / "cdf"]) == 0
    assert run(["optimize", "--certify", *modes, "--out", tmp_path / "pdf"]) == 0
    sweep_argv = ["sweep", "--param", "sigma", "--values", "0.3,0.5,0.8"]
    assert run([*sweep_argv, "--out", tmp_path / "sweep"]) == 0
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_MARKET_OUTPUTS
    }
    assert got == PINNED_MARKET_OUTPUTS
