import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from derivkit import Signal, apply_method, power_spectrum
from derivkit.cli import _digits17, _write_csv, main
from derivkit.methods import method_names


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def write_signal_csv(path, t, y):
    with open(path, "w") as fh:
        fh.write("t,y\n")
        for a, b in zip(t, y):
            fh.write(f"{float(a)!r},{float(b)!r}\n")


@pytest.fixture
def sine_csv(tmp_path):
    t = 0.01 * np.arange(400)
    rng = np.random.default_rng(0)
    y = np.sin(2 * np.pi * t) + 0.05 * rng.standard_normal(400)
    path = tmp_path / "in.csv"
    write_signal_csv(path, t, y)
    return path


class TestDiff:
    def test_savgol_shape_contract(self, tmp_path, sine_csv):
        out = tmp_path / "out.csv"
        code = main(["diff", str(sine_csv), "--method", "savgol",
                     "--param", "window=21", "--param", "degree=3",
                     "--out", str(out)])
        assert code == 0
        header, data = read_csv(out)
        assert header == ["t", "y", "x_hat", "dxdt"]
        assert data.shape == (400, 4)
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["command"] == "diff"
        assert manifest["phi"]["window"] == 21

    def test_fourier_on_irregular_exits_3(self, tmp_path):
        rng = np.random.default_rng(1)
        t = np.cumsum(rng.uniform(0.005, 0.02, 200))
        path = tmp_path / "irr.csv"
        write_signal_csv(path, t, np.sin(t))
        code = main(["diff", str(path), "--method", "fourier",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 3

    def test_unknown_param_exits_2_with_schema(self, tmp_path, sine_csv, capsys):
        code = main(["diff", str(sine_csv), "--method", "savgol",
                     "--param", "bogus=3", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "window" in err and "degree" in err

    def test_out_of_bounds_param_prints_schema_on_the_input_signal(self, tmp_path, sine_csv,
                                                                   capsys):
        code = main(["diff", str(sine_csv), "--method", "fourier",
                     "--param", "keep_modes=250", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "keep_modes=250 outside bounds [2, 199]" in err
        assert "keep_modes=30 (integer in [2, 199])" in err and "pad=50" in err

    def test_kernel_window_param_exits_2_with_a_sigma_only_schema(self, tmp_path, sine_csv,
                                                                    capsys):
        code = main(["diff", str(sine_csv), "--method", "kernel", "--param", "window=11",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown parameter 'window' for method 'kernel'; expected one of ['sigma']" in err
        assert "parameters: sigma=3 (log in [0.5, 49.75])" in err
        assert "window=" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("method, name", [("savgol", "window"), ("tvr", "gamma")])
    def test_non_finite_param_exits_2(self, tmp_path, sine_csv, capsys, method, name, value):
        code = main(["diff", str(sine_csv), "--method", method,
                     "--param", f"{name}={value}", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"parameter {name}={value} outside bounds" in capsys.readouterr().err

    def test_signal_too_short_for_the_bounds_exits_3(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        write_signal_csv(path, 0.01 * np.arange(6), np.arange(6.0))
        code = main(["diff", str(path), "--method", "poly", "--param", "window=8",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "needs at least 8 samples, got 6" in capsys.readouterr().err

    @pytest.mark.parametrize("method", method_names())
    def test_manifest_phi_replays_byte_identically(self, tmp_path, sine_csv, method):
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        assert main(["diff", str(sine_csv), "--method", method, "--out", str(first)]) == 0
        phi = json.loads((tmp_path / "first.csv.manifest.json").read_text())["phi"]
        params = [arg for name, value in phi.items() for arg in ("--param", f"{name}={value}")]
        assert main(["diff", str(sine_csv), "--method", method, *params,
                     "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("nu", ["0", "-1"])
    def test_fd_order_below_one_exits_3(self, tmp_path, sine_csv, capsys, nu):
        code = main(["diff", str(sine_csv), "--method", "fd", "--nu", nu,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert f"derivative order must be >= 1, got {nu}" in capsys.readouterr().err

    @pytest.mark.parametrize("method, keys", [
        ("tvr", ["converged", "duality_gap", "iterations", "lu_steps", "objective"]),
        ("smooth_accel_tvr", ["converged", "duality_gap", "iterations", "lu_steps",
                              "objective"]),
        ("robust", ["converged", "iterations", "objective"]),
        ("spline", []),  # its one flag is the fit itself, which phi reproduces
        ("fd", []),
        ("savgol", [])])
    def test_manifest_records_the_solver_flags(self, tmp_path, sine_csv, method, keys):
        out = tmp_path / "o.csv"
        assert main(["diff", str(sine_csv), "--method", method, "--out", str(out)]) == 0
        flags = json.loads((tmp_path / "o.csv.manifest.json").read_text())["flags"]
        assert sorted(flags) == keys
        signal = Signal.from_arrays(*read_csv(sine_csv)[1].T)
        want = apply_method(method, signal).flags
        assert flags == {k: want[k] for k in keys}
        if "converged" in keys:
            assert flags["converged"] is True and flags["iterations"] >= 1

    def test_unsorted_t_exits_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("t,y\n0.0,1.0\n0.2,1.0\n0.1,1.0\n")
        code = main(["diff", str(path), "--method", "fd",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 3

    @pytest.mark.parametrize("text", [
        "",                              # empty file
        "t,x\n0.0,1.0\n0.1,2.0\n",    # no y column
        "t,y\n0.0,1.0\n0.1,abc\n",    # non-numeric cell
        "t,y\n0.0,1.0\n0.1,2.0,3.0\n",  # ragged row
    ], ids=["empty", "missing_column", "non_numeric", "ragged"])
    def test_malformed_csv_exits_3(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code = main(["diff", str(path), "--method", "fd", "--out", str(tmp_path / "o.csv")])
        assert code == 3

    def test_unreadable_path_exits_2(self, tmp_path):
        code = main(["diff", str(tmp_path / "absent.csv"), "--method", "fd",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_round_trip_smoothed_fd(self, tmp_path, sine_csv):
        out1 = tmp_path / "o1.csv"
        main(["diff", str(sine_csv), "--method", "butter",
              "--param", "cutoff_hz=3", "--out", str(out1)])
        _, data = read_csv(out1)
        # re-ingest x_hat and differentiate with plain fd
        again = tmp_path / "o2.csv"
        write_signal_csv(again, data[:, 0], data[:, 2])
        out2 = tmp_path / "o3.csv"
        main(["diff", str(again), "--method", "fd", "--out", str(out2)])
        _, data2 = read_csv(out2)
        np.testing.assert_allclose(data2[:, 3], data[:, 3], atol=1e-8)

    def test_outputs_form_a_closed_pipeline(self, tmp_path, sine_csv):
        # diff output feeds straight back into diff and spectrum untouched
        out1 = tmp_path / "o1.csv"
        main(["diff", str(sine_csv), "--method", "savgol", "--out", str(out1)])
        assert main(["diff", str(out1), "--method", "fd",
                     "--out", str(tmp_path / "o2.csv")]) == 0
        assert main(["spectrum", str(out1),
                     "--out", str(tmp_path / "o3.csv")]) == 0


class TestInputCsv:
    def test_byte_order_mark_is_dropped(self, tmp_path, sine_csv):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + sine_csv.read_bytes())
        outs = [tmp_path / "plain_out.csv", tmp_path / "bom_out.csv"]
        for path, out in zip([sine_csv, bom], outs):
            assert main(["diff", str(path), "--method", "savgol", "--out", str(out)]) == 0
        assert outs[1].read_bytes() == outs[0].read_bytes()

    @pytest.mark.parametrize("header, name", [("t,y,y", "y"), ("t,t,y", "t")])
    @pytest.mark.parametrize("command", [["diff", "--method", "fd", "--out", "o.csv"],
                                         ["tune", "--method", "savgol"],
                                         ["spectrum", "--out", "o.csv"]],
                             ids=["diff", "tune", "spectrum"])
    def test_repeated_column_exits_3_and_names_it(self, tmp_path, capsys, command, header,
                                                  name):
        path = tmp_path / "in.csv"
        t = 0.01 * np.arange(100)
        path.write_text(header + "\n" + "".join(f"{a!r},{a!r},{np.sin(a)!r}\n" for a in t))
        args = [command[0], str(path)] + [str(tmp_path / a) if a == "o.csv" else a
                                          for a in command[1:]]
        assert main(args) == 3
        assert f"header names column {name!r} twice" in capsys.readouterr().err


class TestTune:
    def test_deterministic_json(self, tmp_path, sine_csv):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["tune", str(sine_csv), "--method", "savgol",
                         "--cutoff-hz", "3", "--seed", "7",
                         "--starts", "2", "--max-evals", "15",
                         "--out", str(out)])
            assert code == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("method", method_names())
    def test_json_identical_with_and_without_a_worker_cap(self, tmp_path, sine_csv,
                                                          monkeypatch, method):
        texts = []
        for workers in ("1", None):
            if workers is None:
                monkeypatch.delenv("DERIVKIT_WORKERS", raising=False)
            else:
                monkeypatch.setenv("DERIVKIT_WORKERS", workers)
            out = tmp_path / f"{workers}.json"
            assert main(["tune", str(sine_csv), "--method", method, "--starts", "3",
                         "--max-evals", "20", "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_worker_variable_below_one_exits_3(self, tmp_path, sine_csv, capsys,
                                               monkeypatch):
        monkeypatch.setenv("DERIVKIT_WORKERS", "0")
        assert main(["tune", str(sine_csv), "--method", "savgol",
                     "--out", str(tmp_path / "t.json")]) == 3
        assert "DERIVKIT_WORKERS must be >= 1, got '0'" in capsys.readouterr().err

    def test_gamma_recorded(self, tmp_path, sine_csv):
        out = tmp_path / "t.json"
        main(["tune", str(sine_csv), "--method", "savgol", "--cutoff-hz", "3",
              "--starts", "2", "--max-evals", "15", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["gamma"] == pytest.approx(2.77e-2, abs=1e-4)
        assert payload["huber_m"] == 6.0

    def test_evaluation_counts_recorded(self, tmp_path, sine_csv):
        out = tmp_path / "t.json"
        main(["tune", str(sine_csv), "--method", "savgol", "--starts", "2",
              "--max-evals", "15", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert 0 < payload["distinct_evaluations"] <= payload["evaluations"]
        assert payload["failed_evaluations"] == 0
        assert payload["failure_reasons"] == []

    @pytest.mark.parametrize("method, search", [("butter", "grid+brent"),
                                                ("fd", "nelder-mead"),
                                                ("savgol", "nelder-mead")])
    def test_search_recorded(self, tmp_path, sine_csv, method, search):
        out = tmp_path / "t.json"
        main(["tune", str(sine_csv), "--method", method, "--starts", "2",
              "--max-evals", "15", "--out", str(out)])
        assert json.loads(out.read_text())["search"] == search

    def test_tiny_cutoff_exits_3_and_names_it(self, tmp_path, sine_csv, capsys):
        out = tmp_path / "t.json"
        code = main(["tune", str(sine_csv), "--method", "butter", "--cutoff-hz", "1e-300",
                     "--out", str(out)])
        assert code == 3
        assert "f_hz=1e-300" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_cutoff_exits_3_and_names_it(self, tmp_path, sine_csv, capsys):
        # gamma would underflow: the tuner would run with no TV penalty
        out = tmp_path / "t.json"
        code = main(["tune", str(sine_csv), "--method", "butter", "--cutoff-hz", "1e300",
                     "--out", str(out)])
        assert code == 3
        assert "f_hz=1e+300 is too large" in capsys.readouterr().err
        assert not out.exists()

    def test_outliers_flag_switches_m(self, tmp_path, sine_csv):
        out = tmp_path / "t.json"
        main(["tune", str(sine_csv), "--method", "savgol", "--outliers",
              "--starts", "2", "--max-evals", "15", "--out", str(out)])
        assert json.loads(out.read_text())["huber_m"] == 2.0


class TestSimulate:
    def test_columns_and_clean_scale_zero(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--case", "cruise_control", "--scale", "0",
                     "--out", str(out)])
        assert code == 0
        header, data = read_csv(out)
        assert header == ["t", "x_true", "dxdt_true", "y"]
        np.testing.assert_array_equal(data[:, 1], data[:, 3])
        assert data[0, 1] == 0.0

    def test_same_seed_identical_files(self, tmp_path):
        texts = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            main(["simulate", "--case", "sine_sum", "--seed", "3",
                  "--out", str(out)])
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_noise_changes_y_not_truth(self, tmp_path):
        out = tmp_path / "sim.csv"
        main(["simulate", "--case", "logistic_growth", "--seed", "1",
              "--out", str(out)])
        _, data = read_csv(out)
        assert not np.allclose(data[:, 1], data[:, 3])

    @pytest.mark.parametrize("flag, value, field", [
        ("--t-span", "nan", "T"), ("--t-span", "inf", "T"), ("--dt", "nan", "dt"),
        ("--dt", "inf", "dt"), ("--scale", "nan", "scale"), ("--scale", "inf", "scale"),
        ("--cutoff-hz", "nan", "cutoff_hz"), ("--cutoff-hz", "inf", "cutoff_hz")])
    def test_non_finite_input_exits_3(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "sim.csv"
        if flag == "--cutoff-hz":  # a tune setting: tune a simulated file
            data = tmp_path / "data.csv"
            assert main(["simulate", "--case", "sine_sum", "--out", str(data)]) == 0
            command = ["tune", str(data), "--method", "fd"]
        else:
            command = ["simulate", "--case", "sine_sum"]
        code = main(command + [flag, value, "--out", str(out)])
        assert code == 3
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_single_cell_and_determinism(self, tmp_path):
        config = {"methods": ["savgol"], "cases": ["sine_sum"],
                  "axis": "noise_scale", "values": [1.0], "seeds": 1,
                  "starts": 2, "max_evals": 12}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        outputs = []
        for d in ("run1", "run2"):
            out_dir = tmp_path / d
            code = main(["bench", "--config", str(cfg_path),
                         "--out-dir", str(out_dir), "--workers", "1"])
            assert code == 0
            outputs.append((out_dir / "bench.csv").read_text())
        assert outputs[0] == outputs[1]
        lines = outputs[0].strip().splitlines()
        assert len(lines) == 2  # header + one cell
        summary = json.loads((tmp_path / "run1" / "summary.json").read_text())
        assert summary["cells"] == 1
        assert "rmse_monotone_increasing" in summary

    def test_optional_keys_default_to_sweep_defaults(self, tmp_path):
        required = {"methods": ["savgol"], "cases": ["sine_sum"],
                    "axis": "noise_scale", "values": [1.0], "seeds": 1}
        spelled = {**required, "cutoff_hz": 3.0, "T": 4.0, "dt": 0.01,
                   "starts": 3, "max_evals": 30}
        tables = []
        for name, config in (("bare", required), ("spelled", spelled)):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(config))
            out_dir = tmp_path / name
            assert main(["bench", "--config", str(cfg_path),
                         "--out-dir", str(out_dir), "--workers", "1"]) == 0
            tables.append((out_dir / "bench.csv").read_text())
        assert tables[0] == tables[1]

    def test_missing_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["savgol"]}))
        assert main(["bench", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("methods", "savgol"), ("methods", []), ("cases", "sine_sum"), ("values", 1.0),
        ("values", []), ("seeds", "x"), ("seeds", 0), ("seeds", 1.5), ("seeds", True),
        ("cutoff_hz", "abc"), ("cutoff_hz", float("nan")), ("T", None), ("T", float("inf")),
        ("dt", [0.01]), ("starts", 2.5), ("max_evals", "30")])
    def test_malformed_key_exits_2_and_names_it(self, tmp_path, capsys, key, value):
        config = {"methods": ["savgol"], "cases": ["sine_sum"], "axis": "noise_scale",
                  "values": [1.0], "seeds": 1, key: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out_dir = tmp_path / "o"
        assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"methods"', "null"])
    def test_non_object_config_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
        assert "bench config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("starts", 0, "starts must be >= 1, got 0"),
        ("max_evals", 0, "max_evals must be >= 1, got 0"),
        ("cutoff_hz", -3, "cutoff_hz must be positive")])
    def test_bad_tuner_setting_exits_3(self, tmp_path, capsys, key, value, message):
        # refused once, up front, rather than recorded as a failure in every cell (exit 5)
        config = {"methods": ["savgol"], "cases": ["sine_sum"], "axis": "noise_scale",
                  "values": [1.0, 2.0], "seeds": 2, key: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out_dir = tmp_path / "o"
        assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir),
                     "--workers", "1"]) == 3
        assert f"validation error: {message}" in capsys.readouterr().err
        assert not (out_dir / "summary.json").exists()

    @pytest.mark.parametrize("axis, value, message", [
        ("cutoff_f", -3, "cutoff_f value -3: cutoff_hz must be positive"),
        ("noise_type", "bogus", "noise_type value 'bogus': unknown noise family 'bogus'"),
        ("noise_scale", -1, "noise_scale value -1: scale must be >= 0"),
        ("dt", -0.01, "dt value -0.01: dt must be positive"),
        ("outliers", [1], "outliers value [1]: must be a number, string, boolean or None"),
        ("outliers", "false", "outliers value 'false': outliers must be a boolean, 0 or 1"),
        ("outliers", 2, "outliers value 2: outliers must be a boolean, 0 or 1"),
        ("noise_scale", 1.0, "noise_scale value 1.0: repeats the earlier value 1"),
        ("outliers", 0, "outliers value 0: repeats the earlier value False")])
    def test_bad_axis_value_exits_3_and_names_it(self, tmp_path, capsys, axis, value, message):
        # before, each failed every replicate of its cell and the sweep exited 5; a list
        # value ran its cells and then raised TypeError (exit 1)
        good = {"cutoff_f": 3, "noise_type": "normal", "noise_scale": 1, "dt": 0.01,
                "outliers": False}[axis]
        config = {"methods": ["savgol"], "cases": ["sine_sum"], "axis": axis,
                  "values": [good, value], "seeds": 2, "starts": 1, "max_evals": 4}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out_dir = tmp_path / "o"
        assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir),
                     "--workers", "1"]) == 3
        assert f"validation error: {message}" in capsys.readouterr().err
        assert not (out_dir / "summary.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_3(self, tmp_path, capsys, workers):
        # before, both ran the sweep in one process
        config = {"methods": ["savgol"], "cases": ["sine_sum"], "axis": "noise_scale",
                  "values": [1.0], "seeds": 1, "starts": 1, "max_evals": 4}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out_dir = tmp_path / "o"
        assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir),
                     "--workers", workers]) == 3
        assert (f"validation error: workers must be >= 1, got {workers}"
                in capsys.readouterr().err)
        assert not (out_dir / "summary.json").exists()

    def test_outliers_on_a_short_span_exits_3(self, tmp_path, capsys):
        # before, every replicate recorded the refusal and the sweep exited 5
        config = {"methods": ["savgol"], "cases": ["sine_sum"], "axis": "outliers",
                  "values": [True], "seeds": 1, "T": 0.5}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out_dir = tmp_path / "o"
        assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir),
                     "--workers", "1"]) == 3
        assert ("validation error: outliers value True: outlier injection needs at least "
                "100 samples, got 50") in capsys.readouterr().err
        assert not (out_dir / "summary.json").exists()

    def test_non_integer_worker_variable_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DERIVKIT_WORKERS", "abc")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["savgol"], "cases": ["sine_sum"],
                                   "axis": "noise_scale", "values": [1.0], "seeds": 1}))
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3
        assert "DERIVKIT_WORKERS must be an integer, got 'abc'" in capsys.readouterr().err


class TestSpectrum:
    def test_header_and_nyquist(self, tmp_path):
        t = 0.01 * np.arange(400)
        path = tmp_path / "in.csv"
        write_signal_csv(path, t, np.sin(2 * np.pi * 3.0 * t))
        out = tmp_path / "spec.csv"
        code = main(["spectrum", str(path), "--out", str(out)])
        assert code == 0
        header, data = read_csv(out)
        assert header == ["freq_hz", "power_db"]
        assert data[-1, 0] == pytest.approx(50.0)
        assert data[np.argmax(data[:, 1]), 0] == pytest.approx(3.0, abs=0.25)

    def test_irregular_exits_3(self, tmp_path):
        rng = np.random.default_rng(2)
        t = np.cumsum(rng.uniform(0.005, 0.02, 120))
        path = tmp_path / "in.csv"
        write_signal_csv(path, t, np.sin(t))
        assert main(["spectrum", str(path), "--out", str(tmp_path / "o.csv")]) == 3


class TestCsvWriter:
    """Output files hold the bytes ``np.savetxt(fmt="%.17g")`` writes."""

    @staticmethod
    def savetxt_bytes(path, header, columns):
        np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
                   header=",".join(header), comments="")
        return path.read_bytes()

    def test_special_values_across_blocks(self, tmp_path):
        rng = np.random.default_rng(9)
        columns = [rng.standard_normal(20_000) * 10.0 ** rng.integers(-300, 300, 20_000)
                   for _ in range(3)]
        columns[1][:6] = [-np.inf, np.inf, -0.0, 1e-300, np.nan, 0.0]
        _write_csv(str(tmp_path / "out.csv"), ["a", "b", "c"], columns)
        assert (tmp_path / "out.csv").read_bytes() == self.savetxt_bytes(
            tmp_path / "ref.csv", ["a", "b", "c"], columns)

    def test_diff_output(self, tmp_path, sine_csv):
        out = tmp_path / "out.csv"
        assert main(["diff", str(sine_csv), "--method", "poly", "--out", str(out)]) == 0
        _, data = read_csv(sine_csv)
        r = apply_method("poly", Signal.from_arrays(data[:, 0], data[:, 1]))
        assert out.read_bytes() == self.savetxt_bytes(
            tmp_path / "ref.csv", ["t", "y", "x_hat", "dxdt"],
            [data[:, 0], data[:, 1], r.smoothed, r.derivative])

    def test_spectrum_with_minus_inf_bins(self, tmp_path):
        t = 0.01 * np.arange(64)
        path = tmp_path / "in.csv"
        write_signal_csv(path, t, np.where(np.arange(64) % 2, -1.0, 1.0))
        out = tmp_path / "spec.csv"
        assert main(["spectrum", str(path), "--out", str(out)]) == 0
        _, data = read_csv(path)
        freqs, db = power_spectrum(Signal.from_arrays(data[:, 0], data[:, 1]))
        assert np.isneginf(db).any()
        assert out.read_bytes() == self.savetxt_bytes(tmp_path / "ref.csv",
                                                      ["freq_hz", "power_db"], [freqs, db])


class TestCsvWriterFastPath:
    """The array formatter writes ``np.savetxt``'s bytes on edge cases and keeps almost
    every value off its ``%.17g`` fallback."""

    def assert_savetxt_bytes(self, tmp_path, columns):
        header = [f"c{i}" for i in range(len(columns))]
        _write_csv(str(tmp_path / "out.csv"), header, columns)
        assert (tmp_path / "out.csv").read_bytes() == TestCsvWriter.savetxt_bytes(
            tmp_path / "ref.csv", header, columns)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @example(bits=[0, 2**63, 0x7FF << 52, 0xFFF << 52, 0x7FF8 << 48, 0xFFF8 << 48,  # +-0 +-inf
                   1, 2**52 - 1, 2**63 + 1])  # nan, -nan, subnormals
    def test_arbitrary_bit_patterns(self, tmp_path_factory, bits):
        values = np.array(bits, np.uint64).view(np.float64)
        self.assert_savetxt_bytes(tmp_path_factory.mktemp("bits"), [values, values[::-1]])

    def test_targeted_values(self, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
        integers = np.array([2.0**k + d for k in range(54, 64) for d in (-2**(k - 52), 0)]
                            + [9007199254740993.0, 12345678901234567.0, 2.0**63])
        values = np.concatenate([
            powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
            [1e-5, 1e-4, 1e16, 1e17, 99999999999999999.0, 9999999999999999.0,
             0.99999999999999994, 0.000099999999999999991],
            np.nextafter([1e23, 1e-5, 1e-4, 1e16, 1e17], 0),  # carries into the next decade
            [1.5e-300, 2.5e300, 1e-100, 123.456e200, 5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, 2.0**-1074 * 3],  # three-digit exponents
            integers, 1.7e9 + 1e-3 * np.arange(2000),
            # exact ties at the 17th digit, which round to even
            2.0**50 + 0.25 + np.arange(200), np.ldexp(np.arange(1, 64, 2.0), -24)])
        self.assert_savetxt_bytes(tmp_path, [values, -values[::-1]])

    def test_fast_path_certifies_almost_every_value(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(100_000) * 10.0 ** rng.uniform(-30, 30, 100_000)
        assert _digits17(np.abs(values))[2].mean() >= 0.99
        zeros = np.array([0.0, -0.0] * 500)
        assert _digits17(np.abs(zeros))[2].all()
        assert _digits17(2.0**50 + 0.25 + np.arange(200))[2].all()  # exact ties
