import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coincide
from coincide import cli, errors
from coincide.cli import main
from coincide.config import (
    ConfigError,
    config_from_dict,
    gallery_config,
    gallery_names,
    load_config,
    save_config,
)


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return str(path)


def scalar_config(c, **overrides):
    cfg = {
        "kind": "quadratic",
        "method": "majorant",
        "quadratic": {
            "tensor": [[[1.0]]],
            "matrix": [[2.0]],
            "offset": [c],
            "a": 1.0,
            "b": 2.0,
            "c": c,
        },
    }
    cfg.update(overrides)
    return cfg


class TestSolveCommand:
    def test_transversal_scalar_exits_zero(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "pos.json", scalar_config(0.75))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        fields = dict(line.split(": ", 1) for line in summary.strip().splitlines())
        assert fields["status"] == "converged"
        assert float(fields["x_star"]) == pytest.approx(-0.5, abs=1e-9)
        assert float(fields["rate_value"]) == pytest.approx(0.5, abs=0.05)
        assert fields["rate_regime"] == "geometric"

    def test_negative_discriminant_exits_one(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "neg.json", scalar_config(1.25))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "NegativeDiscriminant" in capsys.readouterr().err

    def test_capped_degenerate_run_exits_two_with_certificate(self, tmp_path):
        cfg = write_json(tmp_path / "zero.json", scalar_config(1.0))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--max-steps", "100"]) == 2
        rows = (out / "trace.csv").read_text().strip().splitlines()
        assert rows[0] == "j,tau,deviation,step_norm,residual"
        assert len(rows) == 102  # header + steps 0..100
        # Partial certificate: deviation <= tau_100, and tau_100 matches the
        # scalar recurrence oracle.
        taus = [0.0]
        for _ in range(100):
            taus.append((taus[-1] ** 2 + 1.0) / 2.0)
        last = rows[-1].split(",")
        assert float(last[1]) == pytest.approx(taus[100], abs=1e-12)
        assert float(last[2]) <= float(last[1]) + 1e-8

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_baseline_method_runs_from_config(self, tmp_path):
        cfg = write_json(tmp_path / "base.json", scalar_config(0.75, method="baseline"))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "alpha: 2" in summary

    def test_multiple_configs_with_jobs(self, tmp_path):
        c1 = write_json(tmp_path / "one.json", scalar_config(0.75))
        c2 = write_json(tmp_path / "two.json", scalar_config(0.5))
        out = tmp_path / "multi"
        assert main(["solve", "--config", c1, c2, "--out", str(out),
                     "--jobs", "2"]) == 0
        assert (out / "one" / "trace.csv").exists()
        assert (out / "two" / "trace.csv").exists()

    def test_strict_h2_rejects_undersized_majorant(self, tmp_path, capsys):
        custom = {
            "kind": "custom-scalar",
            "custom_scalar": {
                "phi_poly": [0.75, 0.0, 1.0],
                "psi_slope": 2.0,
                "majorant_poly": [0.75, 0.0, 0.9],
                "x0": 0.0,
                "horizon": 2.0,
            },
        }
        # A quadratic whose a is below the spectral overestimate 1 of its
        # tensor is sampled, not proven.
        below = scalar_config(0.75)
        below["quadratic"]["a"] = 0.5
        for name, payload, counts in (("under", custom, "13/100 times (max excess 4.406e-02)"),
                                      ("below", below, "50/100 times (max excess 3.155e-01)")):
            cfg = write_json(tmp_path / f"{name}.json", payload)
            code = main(["solve", "--config", cfg, "--out", str(tmp_path / name),
                         "--strict-h2"])
            assert code == 1
            assert capsys.readouterr().err == (
                f"hypothesis violation (H2): H2: sampled derivative bound violated {counts}\n")


class TestGalleryCommand:
    def test_list_prints_five_names(self, capsys):
        assert main(["gallery", "list"]) == 0
        names = capsys.readouterr().out.strip().splitlines()
        assert len(names) == 5
        assert set(names) == {"scalar-d-pos", "scalar-d-zero", "kantorovich-affine",
                              "matrix-2d", "random-quadratic"}

    def test_emit_degenerate_scalar(self, tmp_path, capsys):
        assert main(["gallery", "emit", "scalar-d-zero", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "scalar-d-zero.json").read_text())
        assert data["quadratic"]["a"] == 1.0
        assert data["quadratic"]["b"] == 2.0
        assert data["quadratic"]["c"] == 1.0

    def test_emit_unknown_name_exits_one(self, tmp_path, capsys):
        assert main(["gallery", "emit", "no-such-thing", "--out", str(tmp_path)]) == 1
        assert "unknown gallery instance" in capsys.readouterr().err

    def test_every_emitted_config_solves_unchanged(self, tmp_path):
        for name in gallery_names():
            assert main(["gallery", "emit", name, "--out", str(tmp_path)]) == 0
            code = main(["solve", "--config", str(tmp_path / f"{name}.json"),
                         "--out", str(tmp_path / name), "--max-steps", "2000"])
            assert code in (0, 2), name


class TestCompareCommand:
    def test_degenerate_instance_reports_dichotomy(self, tmp_path):
        cfg = write_json(tmp_path / "zero.json", scalar_config(1.0))
        out = tmp_path / "cmp"
        code = main(["compare", "--config", cfg, "--out", str(out), "--tol", "1e-4"])
        assert code in (0, 2)
        rows = (out / "comparison.csv").read_text().strip().splitlines()
        assert rows[0] == "method,steps,status,rate_regime,rate_value"
        table = {r.split(",")[0]: r.split(",") for r in rows[1:]}
        assert table["baseline"][2] == "not_contractive"
        assert table["majorant"][2] in ("converged", "max_steps")
        assert (out / "trace_majorant.csv").exists()
        assert not (out / "trace_baseline.csv").exists()

    def test_transversal_instance_converges_for_both(self, tmp_path):
        cfg = write_json(tmp_path / "pos.json", scalar_config(0.75))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "comparison.csv").read_text().strip().splitlines()
        table = {r.split(",")[0]: r.split(",") for r in rows[1:]}
        assert table["majorant"][2] == "converged"
        assert table["baseline"][2] == "converged"
        assert (out / "trace_baseline.csv").exists()

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "k.json", {"kind": "kantorovich", "kantorovich": {
            "linear": [[0.5]], "shift": [0.5], "x0": [0.0], "lipschitz": 0.5}})
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "quadratic" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self, tmp_path):
        for name in ("scalar-d-pos", "random-quadratic"):
            cfg = gallery_config(name)
            path = tmp_path / f"{name}.json"
            save_config(cfg, path)
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{name}-{tag}"
                assert main(["solve", "--config", str(path), "--out", str(out),
                             "--max-steps", "2000"]) in (0, 2)
                outs.append((out / "trace.csv").read_bytes())
            assert outs[0] == outs[1]


class TestConfigRoundTrip:
    def test_float_literals_survive_round_trip(self, tmp_path):
        payload = scalar_config(0.75)
        payload["residual_tol"] = 1.2345678901234567e-09  # 17 significant digits
        path = tmp_path / "cfg.json"
        write_json(path, payload)
        cfg1 = load_config(path)
        save_config(cfg1, tmp_path / "cfg2.json")
        cfg2 = load_config(tmp_path / "cfg2.json")
        assert cfg1.to_dict() == cfg2.to_dict()
        assert cfg2.residual_tol == 1.2345678901234567e-09

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="kind"):
            config_from_dict({"kind": "nope"})
        with pytest.raises(ConfigError, match="method"):
            config_from_dict({"kind": "quadratic", "method": "nope"})
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict({"kind": "quadratic"})
        with pytest.raises(ConfigError, match="norms"):
            config_from_dict({"kind": "quadratic", "quadratic": {},
                              "norms": {"x": "l3", "y": "l2"}})


class TestBatch:
    def test_exit_code_is_the_worst_outcome(self, tmp_path, capsys):
        fail = write_json(tmp_path / "fail.json", scalar_config(1.25))
        cap = write_json(tmp_path / "cap.json", scalar_config(1.0, max_steps=50))
        ok = write_json(tmp_path / "ok.json", scalar_config(0.75))
        out = str(tmp_path / "out")
        for batch, code in (([fail, cap], 1), ([cap, fail], 1), ([ok, cap], 2)):
            assert main(["solve", "--config", *batch, "--out", out]) == code, batch
        assert (tmp_path / "out" / "cap" / "trace.csv").exists()
        assert "NegativeDiscriminant" in capsys.readouterr().err

    def test_colliding_stems_are_refused_before_any_run(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = write_json(tmp_path / "a" / "x.json", scalar_config(0.75))
        second = write_json(tmp_path / "b" / "x.json", scalar_config(0.5))
        out = tmp_path / "out"
        assert main(["solve", "--config", first, second, "--out", str(out),
                     "--jobs", "2"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: ")
        assert first in err[0] and second in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [("a", "big"), ("b", [1.0]), ("c", None)])
    def test_non_numeric_quadratic_constant_is_a_config_error(self, tmp_path, capfd,
                                                              field, value):
        payload = scalar_config(0.75)
        payload["quadratic"][field] = value
        bad = write_json(tmp_path / "bad.json", payload)
        ok = write_json(tmp_path / "ok.json", scalar_config(0.75))
        out = tmp_path / "out"
        for batch in ([bad], [bad, ok]):
            assert main(["solve", "--config", *batch, "--out", str(out),
                         "--jobs", "2"]) == 1
            # Workers write to the inherited stderr descriptor.
            err = capfd.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("config error: "), err
        assert (out / "ok" / "trace.csv").exists()
        assert (out / "ok" / "summary.txt").exists()
        assert (out / "ok" / "summary.txt").exists()

    def test_tiny_a_is_a_config_error(self, tmp_path, capfd):
        # b / a overflows the scan window to inf.
        payload = scalar_config(0.75)
        payload["quadratic"]["a"] = 1e-320
        bad = write_json(tmp_path / "bad.json", payload)
        ok = write_json(tmp_path / "ok.json", scalar_config(0.75))
        out = tmp_path / "out"
        for args in (["solve", "--config", bad], ["compare", "--config", bad],
                     ["solve", "--config", bad, ok, "--jobs", "2"]):
            assert main([*args, "--out", str(out)]) == 1
            err = capfd.readouterr().err.strip().splitlines()
            assert err == ["config error: invalid quadratic problem: "
                           "the scan window b/a = inf must be finite and positive"], err
        assert (out / "ok" / "summary.txt").exists()


class TestNonFiniteInputs:
    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_literal_is_a_config_error(self, tmp_path, capsys, literal):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(scalar_config(0.75)).replace(
            '"kind"', f'"residual_tol": {literal}, "kind"'), encoding="utf-8")
        with pytest.raises(ConfigError, match="non-finite"):
            load_config(path)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out" / "trace.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("override", [["--tol", "nan"], ["--tol", "inf"],
                                          ["--tol", "-1"], ["--tol", "0"],
                                          ["--max-steps", "0"]],
                             ids=lambda o: "=".join(o))
    def test_bad_override_is_a_config_error(self, tmp_path, capsys, command, override):
        cfg = write_json(tmp_path / "pos.json", scalar_config(0.75))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), *override]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not any(out.iterdir())


def _subclasses(cls):
    return [cls] + [s for sub in cls.__subclasses__() for s in _subclasses(sub)]


# The stderr prefix each CoincidenceError is reported under.
EXPECTED_PREFIX = {
    errors.CoincidenceError: "config error",
    errors.DimensionMismatch: "config error",
    errors.RankDeficient: "config error",
    errors.InsufficientData: "config error",
    ConfigError: "config error",
    errors.NegativeDiscriminant: "NegativeDiscriminant",
    errors.NotContractive: "NotContractive",
    errors.BudgetExceeded: "hypothesis violation (H1)",
    errors.NoCrossing: "hypothesis violation (crossing)",
    errors.BracketFailure: "hypothesis violation (crossing)",
}


def test_every_error_type_has_an_expected_prefix():
    assert set(_subclasses(errors.CoincidenceError)) == set(EXPECTED_PREFIX)


@pytest.mark.parametrize("command", ["solve", "compare"])
@pytest.mark.parametrize("error", list(EXPECTED_PREFIX), ids=lambda e: e.__name__)
def test_exit_table_names_every_error(tmp_path, capsys, monkeypatch, command, error):
    def raise_error(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(cli, "coincidence_solve", raise_error)
    monkeypatch.setattr(cli, "compare_methods", raise_error)
    cfg = write_json(tmp_path / "pos.json", scalar_config(0.75))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"{EXPECTED_PREFIX[error]}: injected failure\n"
    assert "Traceback" not in err


def _child_env() -> dict:
    # The child imports coincide from where this process found it, which may
    # be on a path pytest added rather than on PYTHONPATH.
    src = str(Path(coincide.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "coincide.cli", "gallery", "list"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "scalar-d-pos" in proc.stdout


def test_cli_import_leaves_the_process_pool_unloaded():
    # Only `solve --jobs N` with N > 1 needs it; loading it costs resident memory.
    code = "import sys, coincide.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
