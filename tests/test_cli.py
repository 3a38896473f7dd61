import concurrent.futures
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coincide
from coincide import cli, config as config_module, errors
from coincide.baseline import compare_methods
from coincide.cli import _write_lines, main
from coincide.config import (
    ConfigError,
    config_from_dict,
    gallery_config,
    gallery_names,
    load_config,
    save_config,
)
from coincide.covering import LinearSurjectiveCovering
from coincide.majorant import MajorantPair
from coincide.problems import QuadraticMap, scalar_quadratic
from coincide.solver import IterateTrace


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


def planar_config(c):
    """scalar_config(c) on the first axis of R^2 (conftest.planar_quadratic)."""
    return {"kind": "quadratic", "method": "majorant", "quadratic": {
        "tensor": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "matrix": [[2.0, 0.0], [0.0, 2.0]], "offset": [c, 0.0], "a": 1.0, "b": 2.0, "c": c}}


# A config of each kind and the field that gets an overflowing literal.
OVERFLOW_FIELDS = {
    "custom-scalar": ({"kind": "custom-scalar", "custom_scalar": {
        "phi_poly": [0.75, 0.0, 1.0], "psi_slope": 2.0, "majorant_poly": [0.75, 0.0, 1.0],
        "x0": 0.0, "horizon": 2.0}}, "custom_scalar", "x0"),
    "quadratic": (scalar_config(0.75), "quadratic", "a"),
    "kantorovich": ({"kind": "kantorovich", "kantorovich": {
        "linear": [[0.5]], "shift": [0.5], "x0": [0.0], "lipschitz": 0.5,
        "domain_radius": 8.0}}, "kantorovich", "domain_radius"),
}


def overflowing_config(path, kind, literal):
    """Write the kind's config with `literal` (which json cannot emit) in its field."""
    payload, section, key = OVERFLOW_FIELDS[kind]
    payload = json.loads(json.dumps(payload))
    payload[section][key] = "@overflow@"
    path.write_text(json.dumps(payload).replace('"@overflow@"', literal), encoding="utf-8")
    return str(path)


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

    def test_a_d_just_below_zero_without_crossing_is_one_named_line(self, tmp_path, capsys):
        # D = 100 - 4 (25 + 1e-11) passes the builder's rounding tolerance,
        # but psi - phi has no crossing: refused, not failed as `crossing`.
        c = 25.0 + 1e-11
        cfg = write_json(tmp_path / "below.json", {
            "kind": "quadratic", "method": "compare",
            "quadratic": {"tensor": [[[1.0]]], "matrix": [[10.0]], "offset": [c],
                          "a": 1.0, "b": 10.0, "c": c}})
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("NegativeDiscriminant: D = b^2 - 4ac = -4.0")
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("config, tau_star", [
        (scalar_config(1e-12, residual_tol=1e-15), "5.00000000000125e-13"),
        ({"kind": "custom-scalar", "residual_tol": 1e-15, "custom_scalar": {
            "phi_poly": [1e-12, 0, 0, 1], "majorant_poly": [1e-12, 0, 0, 1],
            "psi_slope": 2, "horizon": 1}}, "4.9999999999999999e-13"),
    ], ids=["quadratic", "cubic"])
    def test_an_offset_within_the_root_tolerance_is_solved_to_the_root(self, tmp_path,
                                                                        config, tau_star):
        # |psi(0) - phi(0)| = 1e-12 is within the root tolerance at tau0, but
        # psi - phi has a root about 5e-13 away (2c / (b + sqrt(D)) for the
        # quadratic) and the residual 1e-12 is above residual_tol: one step,
        # not a certificate at x0.
        cfg = write_json(tmp_path / "tiny.json", config)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        fields = dict(line.split(": ", 1) for line in summary.strip().splitlines())
        assert fields["status"] == "converged"
        assert fields["steps"] == "1"
        assert fields["tau_star"] == tau_star
        assert float(fields["residual"]) <= 1e-15
        assert "detail" not in fields

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

    def test_baseline_method_is_refused_at_an_exact_zero_discriminant(self, tmp_path, capsys):
        # D is exactly 0 though 2 a tau_* rounds an ulp below b: beta is b.
        a, b, c = 6.9925383670345385, 2.9979354152236226, 0.3213288323244334
        cfg = write_json(tmp_path / "zero.json", {
            "kind": "quadratic", "method": "baseline", "quadratic": {
                "tensor": [[[a]]], "matrix": [[b]], "offset": [c], "a": a, "b": b, "c": c}})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "NotContractive: beta = 2.9979354152236226 >= alpha = 2.9979354152236226: "
            "the linear-rate scheme does not apply\n")

    def test_baseline_method_builds_one_covering(self, tmp_path, monkeypatch):
        built = []
        init = LinearSurjectiveCovering.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LinearSurjectiveCovering, "__init__", counted)
        cfg = write_json(tmp_path / "base.json", scalar_config(0.75, method="baseline"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(built) == 1

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
        # tensor is sampled, not proven; so is a cubic that starts off 0.
        below = scalar_config(0.75)
        below["quadratic"]["a"] = 0.5
        k = 1.25
        t_min = math.sqrt(2.0 / (3.0 * k))
        cubic = [0.5 * (4.0 / 3.0) * t_min, 0.0, 0.0, k]
        off_origin = {"kind": "custom-scalar", "custom_scalar": {
            "phi_poly": cubic, "psi_slope": 2.0, "majorant_poly": cubic,
            "x0": -0.0625, "horizon": 2.0 * t_min}}
        for name, payload, counts in (("under", custom, "13/100 times (max excess 4.406e-02)"),
                                      ("below", below, "50/100 times (max excess 3.155e-01)"),
                                      ("off-origin", off_origin,
                                       "42/100 times (max excess 8.611e-02)")):
            cfg = write_json(tmp_path / f"{name}.json", payload)
            code = main(["solve", "--config", cfg, "--out", str(tmp_path / name),
                         "--strict-h2"])
            assert code == 1
            assert capsys.readouterr().err == (
                f"hypothesis violation (H2): H2: sampled derivative bound violated {counts}\n")

    def test_strict_h2_rejects_a_planar_quadratic_below_its_overestimate(self, tmp_path,
                                                                         capsys):
        # The "below" quadratic above in 2-d, which runs on the array methods
        # (1-d configs run on the float forms); both write x0 as x_star.
        below = planar_config(0.75)
        below["quadratic"]["a"] = 0.5
        cfg = write_json(tmp_path / "below.json", below)
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "out"), "--strict-h2"])
        assert code == 1
        assert capsys.readouterr().err == (
            "hypothesis violation (H2): H2: sampled derivative bound violated "
            "23/100 times (max excess 2.608e-01)\n")
        assert "\nx_star: 0 0\n" in (tmp_path / "out" / "summary.txt").read_text()

    def test_overflowing_map_ends_in_one_named_line(self, tmp_path, capsys):
        # Phi(x) = 0.5 + 1e306 x^3 and its Jacobian overflow away from x0 = 0.
        # H2 sampling counts each inf Jacobian as a violation with excess inf;
        # in warn mode the loop goes on until Phi(x_1) = -inf is refused.
        cfg = write_json(tmp_path / "overflow.json", {
            "kind": "custom-scalar", "method": "majorant",
            "custom_scalar": {"phi_poly": [0.5, 0, 0, 1e306], "psi_slope": 1e-3,
                              "majorant_poly": [0.5, 0, 5e-7], "horizon": 2000}})
        violated = "H2: sampled derivative bound violated 100/100 times (max excess inf)"
        with pytest.warns(RuntimeWarning, match=re.escape(violated)):
            code = main(["solve", "--config", cfg, "--out", str(tmp_path / "warn")])
        assert code == 1
        assert capsys.readouterr().err == "non-finite value: Phi(x) has a non-finite entry\n"
        assert not (tmp_path / "warn" / "trace.csv").exists()

        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "strict"),
                     "--strict-h2"])
        assert code == 1
        assert capsys.readouterr().err == f"hypothesis violation (H2): {violated}\n"
        assert "status: hypothesis_violation" in (
            tmp_path / "strict" / "summary.txt").read_text()

    def test_phi_overflowing_mid_loop_is_a_non_finite_value(self, tmp_path, capsys,
                                                             monkeypatch):
        # Phi turns inf at step 4: a non-finite value, not an H2 defect that
        # exceeds the admissible increment. A 2-d config runs on the array
        # methods.
        evaluate, calls = QuadraticMap.evaluate, []

        def overflowing(self, x):
            calls.append(1)
            return evaluate(self, x) if len(calls) < 5 else np.array([math.inf, 0.0])

        monkeypatch.setattr(QuadraticMap, "evaluate", overflowing)
        cfg = write_json(tmp_path / "pos.json", planar_config(0.75))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "non-finite value: Phi(x_4) - Psi(x_4) is not finite (residual inf)\n")
        assert not (tmp_path / "out" / "trace.csv").exists()

    def test_phi_overflowing_mid_float_loop_is_a_non_finite_value(self, tmp_path, capsys,
                                                                  monkeypatch):
        # The same on a 1-d config, which runs on the float forms.
        float_form, calls = QuadraticMap.float_form, []

        def overflowing_form(self):
            evaluate = float_form(self)

            def overflowing(x):
                calls.append(1)
                return evaluate(x) if len(calls) < 5 else math.inf

            return overflowing

        monkeypatch.setattr(QuadraticMap, "float_form", overflowing_form)
        cfg = write_json(tmp_path / "pos.json", scalar_config(0.75))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "non-finite value: Phi(x_4) - Psi(x_4) is not finite (residual inf)\n")
        assert not (tmp_path / "out" / "trace.csv").exists()


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


def count_svds(tmp_path, monkeypatch, command, name) -> int:
    """np.linalg.svd calls of one `command` request on the gallery entry `name`."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    path = tmp_path / f"{name}.json"
    save_config(gallery_config(name), path)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    return len(calls)


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

    @pytest.mark.parametrize("name", ["scalar-d-zero", "matrix-2d"])
    def test_compare_factors_b_once(self, tmp_path, monkeypatch, name):
        # The tensor's overestimate and one covering, which gives sigma_min(B)
        # for b and which both schemes share.
        assert count_svds(tmp_path, monkeypatch, "compare", name) == 2

    def test_solve_factors_b_once(self, tmp_path, monkeypatch):
        assert count_svds(tmp_path, monkeypatch, "solve", "matrix-2d") == 2

    @pytest.mark.parametrize("command", ["compare", "solve"])
    def test_a_request_builds_one_instance(self, tmp_path, monkeypatch, command):
        # The config build makes q.instance and compare_methods solves that
        # same instance: one pair validation per request.
        calls = []
        validate = MajorantPair.validate

        def counted(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(MajorantPair, "validate", counted)
        path = tmp_path / "zero.json"
        save_config(gallery_config("scalar-d-zero"), path)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_an_in_loop_h2_violation_is_one_named_line(self, tmp_path, capsys, command):
        # a = 0.5 undersizes the majorant: H2 sampling warns, then the defect
        # at step 1 exceeds its admissible increment.
        below = scalar_config(0.75)
        below["quadratic"]["a"] = 0.5
        cfg = write_json(tmp_path / "below.json", below)
        with pytest.warns(RuntimeWarning, match="sampled derivative bound violated"):
            code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "hypothesis violation (H2): H2: defect 1.406250e-01 exceeds admissible "
            "increment 7.031250e-02 at step 1\n")

    def test_a_majorant_row_without_crossing_is_one_named_line(self, tmp_path, capsys,
                                                               monkeypatch):
        def no_crossing(*args, **kwargs):
            raise errors.NoCrossing("injected failure")

        monkeypatch.setattr(coincide.baseline, "majorant_loop_args", no_crossing)
        cfg = write_json(tmp_path / "pos.json", scalar_config(0.75))
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "hypothesis violation (crossing): injected failure\n"
        assert "majorant,0,no_crossing," in (out / "comparison.csv").read_text()

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


# sha256 of the trace files of three gallery entries, which run on the 1-d
# float kernels: a change that moves a bit of a budget, an iterate or a norm
# moves a digest. A change meant to alter these outputs updates the digests
# and says so. summary.txt is not pinned: its rate lines come from np.polyfit,
# whose last bits depend on the LAPACK build.
TRACE_DIGESTS = {
    ("solve", "scalar-d-pos"): {
        "trace.csv": "aa42057d0707b9cecc999cd3f982acf6939f7aab5e5d85adea1991c3865bcf44"},
    ("solve", "scalar-d-zero"): {
        "trace.csv": "bebac935e79fad92d0c0d697375d2c91e1b396f265f299e19327bac0f6717044"},
    ("solve", "kantorovich-affine"): {
        "trace.csv": "be1287f510c1967ce8c30c45d304224b1aae6157d56d914d0b6b248188fa049b"},
    # The two schemes take the same steps at D > 0; the baseline is refused at D = 0.
    ("compare", "scalar-d-pos"): {
        "trace_majorant.csv": "aa42057d0707b9cecc999cd3f982acf6939f7aab5e5d85adea1991c3865bcf44",
        "trace_baseline.csv": "aa42057d0707b9cecc999cd3f982acf6939f7aab5e5d85adea1991c3865bcf44"},
    ("compare", "scalar-d-zero"): {
        "trace_majorant.csv": "bebac935e79fad92d0c0d697375d2c91e1b396f265f299e19327bac0f6717044"},
}


@pytest.mark.parametrize("command, name", TRACE_DIGESTS)
def test_gallery_traces_keep_their_bytes(tmp_path, command, name):
    path = tmp_path / f"{name}.json"
    save_config(gallery_config(name), path)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    traces = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in out.glob("trace*.csv")}
    assert traces == TRACE_DIGESTS[command, name]


def _copied(x: float) -> float:
    """A new float object with the bits of x."""
    return struct.unpack("<d", struct.pack("<d", x))[0]


def _written_alone_and_paired(directory: Path, trace_a, trace_b):
    """(bytes write_trace_csv writes for each trace alone, bytes it writes for
    trace_a with trace_b as its twin)."""
    cli.write_trace_csv(trace_a, directory / "alone_a.csv")
    cli.write_trace_csv(trace_b, directory / "alone_b.csv")
    cli.write_trace_csv(trace_a, directory / "pair_a.csv", (trace_b, directory / "pair_b.csv"))
    return tuple(tuple((directory / f"{kind}_{side}.csv").read_bytes() for side in "ab")
                 for kind in ("alone", "pair"))


def _trace(rows):
    return IterateTrace(rows=rows)


class TestWriteTraceTwin:
    @pytest.mark.parametrize("c, tol", [(1.0 - 10 ** -2.75, 1e-10), (0.75, 0.0)],
                             ids=["equal-lengths", "majorant-ends-first"])
    def test_a_compare_pair_writes_each_trace_alone(self, tmp_path, c, tol):
        report = compare_methods(scalar_quadratic(1.0, 2.0, c), tol=tol)
        trace_a, trace_b = report.majorant_trace, report.baseline_trace
        assert (len(trace_a.rows) == len(trace_b.rows)) == (tol > 0.0)
        alone, paired = _written_alone_and_paired(tmp_path, trace_a, trace_b)
        assert paired == alone

    def test_a_differing_shared_column_is_written_apart(self, tmp_path):
        shared = (0.5, 0.25, 0.125)
        trace_a = _trace([(0, 0.0, *shared), (1, 1.0, 0.5, 0.25, 0.125)])
        trace_b = _trace([(0, 0.0, *shared), (1, 2.0, 0.5, 0.25, 0.0625), (2, 3.0, 1.0, 1.0, 1.0)])
        alone, paired = _written_alone_and_paired(tmp_path, trace_a, trace_b)
        assert paired == alone
        assert paired[1].splitlines()[2] == b"1,2,0.5,0.25,0.0625"

    def test_a_negative_zero_against_a_zero_keeps_its_sign(self, tmp_path):
        # The rows compare equal as tuples, but %.17g prints -0 and 0.
        trace_a = _trace([(0, 0.0, -0.0, 0.0, 1.0)])
        trace_b = _trace([(0, 0.0, 0.0, -0.0, 1.0)])
        assert trace_a.rows == trace_b.rows
        alone, paired = _written_alone_and_paired(tmp_path, trace_a, trace_b)
        assert paired == alone
        assert paired[0].splitlines()[1] == b"0,0,-0,0,1"
        assert paired[1].splitlines()[1] == b"0,0,0,-0,1"

    def test_a_shared_nan_and_a_shared_negative_zero(self, tmp_path):
        nan, zero = math.nan, -0.0
        trace_a = _trace([(0, 0.0, zero, nan, math.inf)])
        trace_b = _trace([(0, 1.0, zero, nan, math.inf), (1, 2.0, _copied(nan), zero, nan)])
        alone, paired = _written_alone_and_paired(tmp_path, trace_a, trace_b)
        assert paired == alone
        assert paired[1].splitlines()[1:] == [b"0,1,-0,nan,inf", b"1,2,nan,-0,nan"]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_pair_writes_each_trace_alone(self, tmp_path_factory, data):
        values = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                                            5e-324, 1e308]), st.floats())
        n_a, n_b = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        rows_a, rows_b = [], []
        for j in range(max(n_a, n_b)):
            head_a = (j, data.draw(values))
            tail_a = data.draw(st.tuples(values, values, values))
            # The same objects, new objects with the same bits, or others.
            how = data.draw(st.sampled_from(["same", "copied", "drawn"]))
            tail_b = {"same": tail_a, "copied": tuple(map(_copied, tail_a)),
                      "drawn": data.draw(st.tuples(values, values, values))}[how]
            rows_a.append(head_a + tail_a)
            rows_b.append((j, data.draw(values)) + tail_b)
        directory = tmp_path_factory.mktemp("pair")
        alone, paired = _written_alone_and_paired(
            directory, _trace(rows_a[:n_a]), _trace(rows_b[:n_b]))
        assert paired == alone


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

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    @pytest.mark.parametrize("count", [1, 2])
    def test_jobs_below_one_is_a_config_error(self, tmp_path, capsys, jobs, count):
        paths = [write_json(tmp_path / f"c{i}.json", scalar_config(0.75))
                 for i in range(count)]
        out = tmp_path / "out"
        assert main(["solve", "--config", *paths, "--out", str(out), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == f"config error: --jobs must be at least 1, got {jobs}\n"
        assert not out.exists()

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


    @pytest.mark.parametrize("count,jobs,pools", [(2, "10000", [2]), (3, "2", [2]),
                                                  (2, "1", [])])
    def test_pool_has_at_most_one_worker_per_config(self, tmp_path, monkeypatch,
                                                     count, jobs, pools):
        # The pool forks all its workers at the first submit, so its size is
        # what a large --jobs costs. The fake runs the jobs in this process.
        made = []

        class SerialPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        paths = [write_json(tmp_path / f"c{i}.json", scalar_config(0.5 + 0.1 * i))
                 for i in range(count)]
        out = tmp_path / "out"
        assert main(["solve", "--config", *paths, "--out", str(out), "--jobs", jobs]) == 0
        assert made == pools
        assert all((out / f"c{i}" / "trace.csv").exists() for i in range(count))


class TestKantorovichShapes:
    # Each used to fail late or not at all: a matmul traceback mid-solve, or a
    # shift broadcast over W's rows that solved a different problem.
    @pytest.mark.parametrize("linear,shift", [
        ([[0.5, 0.1]], [0.5]),              # f: R^2 -> R^1
        ([[0.5, 0.1], [0.0, 0.5]], [0.5]),  # shift shorter than W's rows
        ([0.5, 0.1], [0.5, 0.5]),           # a 1-d W is one row
    ])
    def test_mismatched_shapes_are_a_config_error(self, tmp_path, capsys, linear, shift):
        cfg = write_json(tmp_path / "k.json", {"kind": "kantorovich", "kantorovich": {
            "linear": linear, "shift": shift, "x0": [0.0, 0.0], "lipschitz": 0.6}})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert not (out / "trace.csv").exists()


class TestUnusableOut:
    @pytest.mark.parametrize("command", [
        ["solve", "--config", "{ok}"],
        ["compare", "--config", "{ok}"],
        ["gallery", "emit", "scalar-d-pos"],
        ["solve", "--config", "{ok}", "{other}", "--jobs", "2"],
    ], ids=["solve", "compare", "gallery-emit", "batch"])
    def test_regular_file_as_out_is_one_output_error(self, tmp_path, capfd, command):
        ok = write_json(tmp_path / "ok.json", scalar_config(0.75))
        other = write_json(tmp_path / "other.json", scalar_config(0.5))
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n", encoding="utf-8")
        argv = [arg.format(ok=ok, other=other) for arg in command]
        assert main([*argv, "--out", str(taken)]) == 1
        err = capfd.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("output error: "), err
        assert taken.read_text(encoding="utf-8") == "not a directory\n"

    @pytest.mark.parametrize("command,name", [
        (["solve", "--config", "{ok}"], "trace.csv"),
        (["solve", "--config", "{ok}"], "summary.txt"),
        (["compare", "--config", "{ok}"], "comparison.csv"),
    ])
    def test_an_output_file_that_is_a_directory_is_one_output_error(self, tmp_path, capfd,
                                                                     command, name):
        # The line write_text's open gave: the errno, its text and the path.
        ok = write_json(tmp_path / "ok.json", scalar_config(0.75))
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        argv = [arg.format(ok=ok) for arg in command]
        assert main([*argv, "--out", str(out)]) == 1
        err = capfd.readouterr().err.strip().splitlines()
        assert err == [f"output error: [Errno 21] Is a directory: '{out / name}'"]


def test_written_files_have_the_bytes_of_write_text(tmp_path):
    lines = ["status: converged", "detail: \u03c4 tail \u2265 0", "", "a\tb"]
    want = tmp_path / "want.txt"
    want.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_lines(tmp_path / "got.txt", lines)
    assert (tmp_path / "got.txt").read_bytes() == want.read_bytes()
    # An existing file is truncated, not appended to.
    _write_lines(want, ["x"])
    assert want.read_bytes() == b"x\n"


GENERATE = {"dim_x": 3, "dim_y": 2, "margin": 0.5, "seed": 1}


class _Generated(Exception):
    """Raised by the stand-in for random_quadratic: the section got through."""


class TestGenerateSection:
    @pytest.fixture(autouse=True)
    def no_generation(self, monkeypatch):
        def generate(**kwargs):
            raise _Generated(kwargs)

        monkeypatch.setattr(config_module, "random_quadratic", generate)

    @pytest.mark.parametrize("fields", [
        {"dim_x": 2.9}, {"dim_x": True}, {"dim_x": "3"}, {"dim_y": 1.0}, {"dim_y": False},
        {"seed": 1.5}, {"seed": True}, {"seed": None},
        {"dim_y": 0}, {"dim_x": 0, "dim_y": 0}, {"dim_y": -1}, {"dim_y": 4},
        {"dim_x": 5000, "dim_y": 5}, {"dim_x": 4096, "dim_y": 3}, {"dim_x": 2 ** 40},
    ], ids=str)
    def test_bad_section_is_refused_before_generation(self, tmp_path, capsys, fields):
        cfg = write_json(tmp_path / "gen.json",
                         {"kind": "quadratic", "generate": {**GENERATE, **fields}})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: bad generate section: "), err

    @pytest.mark.parametrize("dim_x,dim_y", [(4096, 2), (300, 300), (1, 1)])
    def test_section_within_limits_is_generated(self, tmp_path, dim_x, dim_y):
        # 4096^2 * 2 = 2^25 tensor entries, the limit.
        section = {**GENERATE, "dim_x": dim_x, "dim_y": dim_y}
        cfg = write_json(tmp_path / "gen.json", {"kind": "quadratic", "generate": section})
        with pytest.raises(_Generated) as info:
            main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert info.value.args[0] == {"dim_x": dim_x, "dim_y": dim_y, "target_margin": 0.5,
                                      "seed": 1}


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

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400],
                             ids=["1e400", "-1e400", "401-digit-int"])
    @pytest.mark.parametrize("kind", OVERFLOW_FIELDS)
    def test_overflowing_literal_is_a_config_error(self, tmp_path, capsys, kind, literal):
        # Each of these once got through: a traceback for x0, a reported
        # D = -inf for a, and an unbounded domain for domain_radius.
        bad = overflowing_config(tmp_path / "bad.json", kind, literal)
        with pytest.raises(ConfigError, match="non-finite number"):
            load_config(bad)
        out = tmp_path / "out"
        assert main(["solve", "--config", bad, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: config {bad} is not valid JSON: non-finite number {literal}\n")
        assert not (out / "trace.csv").exists()

    @staticmethod
    def _decoded(decode, text):
        """("ok", repr of the value: -0.0, int and float told apart) or ("raise", message)."""
        try:
            return "ok", repr(decode(text))
        except ValueError as err:
            return "raise", str(err)

    @staticmethod
    def _hooked(text):
        return json.loads(text, parse_constant=config_module._reject_constant,
                          parse_float=config_module._finite_float,
                          parse_int=config_module._finite_int)

    @pytest.mark.parametrize("text,want,hooked", [
        ('{"a": 1e400}', "raise", True),
        ('{"a": 1E+400}', "raise", True),
        ('{"a": -1e0400}', "raise", True),
        ('1e400', "raise", True),                           # the exponent ends the text
        ('{"a": %s}' % ("4" * 400), "raise", True),
        ('{"a": 1e-400}', "{'a': 0.0}", True),             # underflows on both paths
        ('{"label": "1e400", "a": 2.5}', "{'label': '1e400', 'a': 2.5}", True),
        ('{"a": [1e30, -0.0, 7, 99E+99, %s]}' % ("9" * 209), None, False),
    ])
    def test_decode_gives_the_hooked_result(self, monkeypatch, text, want, hooked):
        calls = []
        finite_float = config_module._finite_float

        def counted(literal):
            calls.append(literal)
            return finite_float(literal)

        monkeypatch.setattr(config_module, "_finite_float", counted)
        got = self._decoded(config_module._decode, text)
        assert bool(calls) is hooked
        assert got == self._decoded(self._hooked, text)
        if want == "raise":
            assert got[0] == "raise"
        elif want is not None:
            assert got == ("ok", want)

    @settings(max_examples=300, deadline=None)
    @given(sign=st.sampled_from(["", "-"]), digits=st.integers(1, 330),
           lead=st.integers(1, 9), fraction=st.sampled_from(["", ".5", ".000", "." + "9" * 30]),
           exponent=st.sampled_from(["", "e", "E", "e+", "e-", "E-", "E+"]),
           power=st.integers(0, 500), zeros=st.integers(0, 2))
    def test_decode_of_any_literal_is_the_hooked_decode(self, sign, digits, lead, fraction,
                                                        exponent, power, zeros):
        literal = sign + str(lead) + "3" * (digits - 1) + fraction
        if exponent:
            literal += exponent + "0" * zeros + str(power)
        text = '{"x": [%s, 1.5]}' % literal
        assert self._decoded(config_module._decode, text) == self._decoded(self._hooked, text)

    def test_overflowing_literals_in_a_batch_spare_the_sibling(self, tmp_path, capfd):
        bad = [overflowing_config(tmp_path / f"{kind}.json", kind, "1e400")
               for kind in OVERFLOW_FIELDS]
        ok = write_json(tmp_path / "ok.json", scalar_config(0.75))
        out = tmp_path / "out"
        assert main(["solve", "--config", *bad, ok, "--out", str(out), "--jobs", "2"]) == 1
        # Workers write to the inherited stderr descriptor.
        err = capfd.readouterr().err.strip().splitlines()
        assert sorted(err) == sorted(
            f"config error: config {path} is not valid JSON: non-finite number 1e400"
            for path in bad)
        assert (out / "ok" / "trace.csv").exists()
        assert (out / "ok" / "summary.txt").exists()

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


@pytest.mark.parametrize("section", [
    # Rank one with c > 0: b defaulted to about 1e-17, and the config was
    # refused as D < 0.
    {"tensor": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
     "matrix": [[1.0, 2.0], [2.0, 4.0]], "offset": [0.3, 0.4]},
    # Tall: two equations in one unknown.
    {"tensor": [[[1.0]], [[0.0]]], "matrix": [[1.0], [2.0]], "offset": [0.3, 0.4]},
], ids=["rank-deficient", "tall"])
def test_a_matrix_that_is_not_onto_is_a_config_error(tmp_path, capsys, section):
    cfg = write_json(tmp_path / "cfg.json", {"kind": "quadratic", "quadratic": section})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    shape = "x".join(map(str, np.shape(section["matrix"])))
    assert capsys.readouterr().err == (
        f"config error: invalid quadratic problem: matrix {shape} is not surjective\n")


def _with_fields(kind, **fields):
    """The kind's config from OVERFLOW_FIELDS with some section fields replaced."""
    payload, section, _ = OVERFLOW_FIELDS[kind]
    payload = json.loads(json.dumps(payload))
    payload[section].update(fields)
    return payload


# Number fields given something else. Each was once let through: "inf" as two
# numpy warnings and a late config error, "nan" as a non-finite Phi mid-run,
# the strings and booleans as numbers that solved.
NON_NUMBERS = {
    "kantorovich-inf-string": _with_fields("kantorovich", linear=[["inf"]]),
    "custom-scalar-nan-string": _with_fields("custom-scalar", phi_poly=["nan", 0, 0, 1]),
    "quadratic-string-tensor-and-a": _with_fields("quadratic", tensor=[[["1"]]], a="1.0"),
    "quadratic-true-a": _with_fields("quadratic", a=True),
    "quadratic-true-matrix": _with_fields("quadratic", matrix=[[True]]),
    "quadratic-false-among-matrix-numbers": {**planar_config(0.75), "quadratic": {
        **planar_config(0.75)["quadratic"], "matrix": [[2.0, False], [0.0, 2.0]]}},
    "custom-scalar-true-among-coefficients": _with_fields("custom-scalar",
                                                          phi_poly=[0.75, 0.0, True]),
    "kantorovich-true-lipschitz": _with_fields("kantorovich", lipschitz=True),
    "custom-scalar-string-slope": _with_fields("custom-scalar", psi_slope="2"),
    "custom-scalar-null-coefficient": _with_fields("custom-scalar", majorant_poly=[0.75, None]),
    "true-max-steps": scalar_config(0.75, max_steps=True),
    "string-residual-tol": scalar_config(0.75, residual_tol="1e-8"),
}


class TestNonNumbers:
    @pytest.mark.parametrize("name", NON_NUMBERS)
    def test_non_number_is_one_config_error(self, tmp_path, capsys, name):
        cfg = write_json(tmp_path / "cfg.json", NON_NUMBERS[name])
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert not (out / "trace.csv").exists()

    def test_integer_entries_are_numbers(self, tmp_path):
        payload = _with_fields("quadratic", tensor=[[[1]]], matrix=[[3]], offset=[2],
                               a=1, b=3, c=2)
        cfg = write_json(tmp_path / "cfg.json", payload)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


# A misspelled or stray key, and the key the config error names. Each was
# once ignored: the solve ran with the default, or without the field.
UNKNOWN_KEYS = {
    "top-level": (scalar_config(0.75, residual_tolerance=0.1), "residual_tolerance"),
    "norms": (scalar_config(0.75, norms={"x": "l2", "y": "l2", "z": "linf"}), "z"),
    "quadratic": (_with_fields("quadratic", d=5.0), "d"),
    "generate": ({"kind": "quadratic", "generate": {**GENERATE, "dimx": 2}}, "dimx"),
    "kantorovich": (_with_fields("kantorovich", domain_radus=8.0), "domain_radus"),
    "custom-scalar": (_with_fields("custom-scalar", tau_0=0.5), "tau_0"),
}


class TestUnknownKeys:
    @pytest.mark.parametrize("where", UNKNOWN_KEYS)
    def test_an_unknown_key_is_one_config_error_naming_it(self, tmp_path, capsys, where):
        payload, key = UNKNOWN_KEYS[where]
        cfg = write_json(tmp_path / "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert f"unknown key {key!r}" in err[0]
        assert not (out / "trace.csv").exists()

    def test_misspelled_limits_and_a_stray_constant_are_refused(self, tmp_path, capsys):
        # scalar-d-pos with its limits misspelled and a stray d: this solve
        # exited 0 after 31 steps, at the default tolerance and with no cap.
        payload = json.loads(json.dumps(config_module.GALLERY["scalar-d-pos"]))
        payload.update(residual_tolerance=0.1, max_step=1)
        payload["quadratic"]["d"] = 5
        cfg = write_json(tmp_path / "cfg.json", payload)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: unknown key 'residual_tolerance'\n")
        del payload["residual_tolerance"], payload["max_step"]
        write_json(tmp_path / "cfg.json", payload)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "config error: bad quadratic section: unknown key 'd'\n"

    def test_a_section_of_another_kind_is_ignored(self, tmp_path, capsys):
        # Its fields are not read, so not checked either.
        payload = scalar_config(0.75, kantorovich={"typo": 1}, generate=None)
        cfg = write_json(tmp_path / "cfg.json", payload)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""


# A config of each section that has real fields.
REAL_SECTIONS = {"quadratic": scalar_config(0.75),
                 "generate": {"kind": "quadratic", "generate": GENERATE},
                 "kantorovich": OVERFLOW_FIELDS["kantorovich"][0],
                 "custom_scalar": OVERFLOW_FIELDS["custom-scalar"][0]}


@pytest.mark.parametrize("section,key", [
    (section, key) for section, fields in config_module.FIELDS.items()
    for key, parse in fields.items() if parse is config_module._real],
    ids=lambda v: v)
def test_an_oversized_integer_in_a_real_field_is_a_config_error(section, key):
    # A config file cannot hold 10**400 (its literal is refused), but a dict
    # can: float() raised OverflowError past the section's except.
    payload = json.loads(json.dumps(REAL_SECTIONS[section]))
    payload[section][key] = 10 ** 400
    with pytest.raises(ConfigError, match=rf"^bad {section} section: int too large"):
        config_module.build_problem(config_from_dict(payload))


@pytest.mark.parametrize("label", [7, {"not": "a string"}], ids=["int", "object"])
def test_a_label_that_is_no_string_is_one_config_error(tmp_path, capsys, label):
    # Both solved and exited 0, and to_dict wrote the label back.
    payload = {**json.loads(json.dumps(config_module.GALLERY["scalar-d-pos"])), "label": label}
    cfg = write_json(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: label must be a string, got {label!r}\n"
    assert not (out / "trace.csv").exists()


def test_mixed_norm_tags_of_a_huge_derivative_solve_cleanly(tmp_path, capsys):
    # |J| = 1e200: the l2 -> linf and linf -> l2 operator norms squared it
    # unscaled, overflowed, and --strict-h2 refused the solve.
    section = {"phi_poly": [0.5, 1e200], "psi_slope": 2e200,
               "majorant_poly": [0.5, 1e200], "horizon": 1.0}
    for x, y in (("l2", "linf"), ("linf", "l2")):
        cfg = write_json(tmp_path / f"{x}-{y}.json", {
            "kind": "custom-scalar", "norms": {"x": x, "y": y}, "custom_scalar": section})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--config", cfg, "--out", str(tmp_path / f"{x}-{y}"),
                         "--strict-h2"])
        assert code == 0 and caught == []
        assert capsys.readouterr().err == ""


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
    errors.NonFiniteValue: "non-finite value",
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


class TestParser:
    def test_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_successive_calls_share_no_state(self, tmp_path, capsys):
        # The undersized majorant stops at the sampled H2 check under
        # --strict-h2; without it the check only warns and the loop runs (to
        # a defect at step 1). --tol on one call must not carry into the next.
        under = write_json(tmp_path / "under.json", {
            "kind": "custom-scalar", "custom_scalar": {
                "phi_poly": [0.75, 0.0, 1.0], "psi_slope": 2.0,
                "majorant_poly": [0.75, 0.0, 0.9], "x0": 0.0, "horizon": 2.0}})
        pos = write_json(tmp_path / "pos.json", scalar_config(0.75))

        def summary(name):
            return (tmp_path / name / "summary.txt").read_text()

        assert main(["solve", "--config", pos, "--out", str(tmp_path / "first")]) == 0
        assert main(["solve", "--config", under, "--out", str(tmp_path / "strict"),
                     "--strict-h2", "--tol", "1e-3"]) == 1
        assert "sampled derivative bound violated" in capsys.readouterr().err
        with pytest.warns(RuntimeWarning, match="sampled derivative bound violated"):
            assert main(["solve", "--config", under, "--out", str(tmp_path / "warn")]) == 1
        assert "H2: defect" in capsys.readouterr().err
        assert main(["solve", "--config", pos, "--out", str(tmp_path / "loose"),
                     "--tol", "1e-3"]) == 0
        assert main(["solve", "--config", pos, "--out", str(tmp_path / "again")]) == 0
        assert summary("loose") != summary("first") == summary("again")

        parser = cli.build_parser()
        flagged = parser.parse_args(["solve", "--config", pos, "--tol", "1e-3", "--strict-h2"])
        plain = parser.parse_args(["solve", "--config", pos])
        assert (flagged.tol, flagged.strict_h2) == (1e-3, True)
        assert (plain.tol, plain.strict_h2, plain.max_steps) == (None, False, None)

    def test_handler_is_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # The cached parser holds no handler, so one replaced after the first
        # call (a profiler's wrapper, say) is the one that runs.
        cfg = write_json(tmp_path / "pos.json", scalar_config(0.75))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        ran = []
        monkeypatch.setattr(cli, "cmd_solve", lambda args: ran.append(args.config) or 0)
        assert main(["solve", "--config", cfg]) == 0
        assert ran == [[cfg]]

    @pytest.mark.parametrize("argv,message", [
        (["solve", "--config", "x.json", "--max-steps", "abc"], "invalid int value: 'abc'"),
        (["solve"], "the following arguments are required: --config"),
        (["fit"], "invalid choice: 'fit'"),
    ], ids=["unparsed-value", "no-config", "unknown-subcommand"])
    def test_a_usage_error_exits_1_with_the_usage_on_stderr(self, capsys, argv, message):
        # argparse's own code, 2, is the code of a certified partial result.
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: coincide") and message in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["solve", "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: coincide solve")


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


# Mixed norm tags are sampled; the undersized majorant warns, then stops at step 1.
UNDERSIZED_CUSTOM_SCALAR = {
    "kind": "custom-scalar", "norms": {"x": "linf", "y": "l2"}, "custom_scalar": {
        "phi_poly": [0.75, 0.0, 1.0], "psi_slope": 2.0,
        "majorant_poly": [0.75, 0.0, 0.9], "x0": 0.0, "horizon": 2.0}}


def test_the_h2_warning_is_one_stable_line(tmp_path):
    # The line carries no source path or line number.
    cfg = write_json(tmp_path / "under.json", UNDERSIZED_CUSTOM_SCALAR)
    proc = subprocess.run([sys.executable, "-m", "coincide.cli", "solve", "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 1
    assert proc.stderr == (
        "coincide:0: RuntimeWarning: H2: sampled derivative bound violated 9/100 times "
        "(max excess 6.345e-02)\n"
        "hypothesis violation (H2): H2: defect 1.406250e-01 exceeds admissible increment "
        "1.265625e-01 at step 1\n")


WARNING_AS_ERROR = ("warning raised as error: H2: sampled derivative bound violated "
                    "9/100 times (max excess 6.345e-02)\n")


def _solve_with_warnings_as_errors(tmp_path, *configs):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning:coincide.solver", "-m", "coincide.cli",
         "solve", "--config", *configs, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_child_env())


def test_a_warning_raised_as_error_is_one_named_line(tmp_path):
    cfg = write_json(tmp_path / "under.json", UNDERSIZED_CUSTOM_SCALAR)
    proc = _solve_with_warnings_as_errors(tmp_path, cfg)
    assert proc.returncode == 1
    assert proc.stderr == WARNING_AS_ERROR


def test_a_warning_raised_as_error_fails_only_its_config(tmp_path):
    under = write_json(tmp_path / "under.json", UNDERSIZED_CUSTOM_SCALAR)
    good = tmp_path / "good.json"
    save_config(gallery_config("scalar-d-pos"), good)
    proc = _solve_with_warnings_as_errors(tmp_path, under, str(good))
    assert proc.returncode == 1
    assert proc.stderr == WARNING_AS_ERROR
    summary = (tmp_path / "out" / "good" / "summary.txt").read_text(encoding="utf-8")
    assert summary.startswith("status: converged\n")
    assert not (tmp_path / "out" / "under" / "trace.csv").exists()
