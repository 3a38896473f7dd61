"""The three benchmark workloads: inputs, requests and correctness checks.

Every workload is a closed loop with one client: the next request starts
when the previous one has returned. A run is a whole number of passes
("cycles") over a fixed, seeded request list, so every run has the same mix.
Inputs are made from the workload seed; coincide sees only the generated
configs and instances.

- small-batch: in-process `coincide.cli.main(["solve", ...])` over four
  gallery instances, explicit-config random quadratics and custom-scalar
  cubics. The per-solve fixed cost dominates (crossing scan, pair
  validation, H2 sampling on tiny matrices, config and trace I/O).
- degenerate-compare: in-process `coincide.cli.main(["compare", ...])` on
  scalar quadratics at D = 0 (sublinear, baseline refused) and just inside
  (both schemes geometric). The per-step loop dominates.
- dense-quadratic: the library path on one seeded random_quadratic(300, 150)
  instance made in set-up. The dense problems/linalg kernels (Jacobian
  einsum, SVD) dominate.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import coincide
from coincide import cli, config
from coincide.solver import DEFAULT_RESIDUAL_TOL, STATUS_CONVERGED, STEP_TOL


@dataclass
class Request:
    """One request of a cycle; `expect` holds what the checks require."""

    rid: int
    label: str
    out: Path
    tol: float
    args: list = field(default_factory=list)
    instance: object = None
    expect: dict = field(default_factory=dict)


def _stratified(rng, lo: float, hi: float, n: int) -> list[float]:
    """n values in [lo, hi), one per equal-width stratum, in seeded order."""
    order = rng.permutation(n)
    return [lo + (hi - lo) * (int(k) + rng.uniform()) / n for k in order]


def output_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def clear_dir(directory: Path) -> None:
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)


def _read_summary(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def _read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def certificate_problems(path: Path, tau_star: float | None = None) -> list[str]:
    """Trace-certificate bounds on a written trace.csv, within STEP_TOL.

    deviation_j <= tau_j - tau0, step_norm_{j+1} <= tau_{j+1} - tau_j, taus
    strictly increasing, and the final deviation within tau_* - tau0.
    """
    rows = np.array(_read_csv(path), dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 5 or rows.shape[0] < 1:
        return [f"{path.name}: malformed trace"]
    tau, dev, step = rows[:, 1], rows[:, 2], rows[:, 3]
    problems = []
    if dev[0] != 0.0 or step[0] != 0.0:
        problems.append(f"{path.name}: row 0 not at the start point")
    dtau = np.diff(tau)
    if np.any(dtau <= 0.0):
        problems.append(f"{path.name}: tau not strictly increasing")
    if np.any(dev > (tau - tau[0]) + STEP_TOL):
        problems.append(f"{path.name}: deviation bound broken")
    if np.any(step[1:] > dtau + STEP_TOL):
        problems.append(f"{path.name}: step bound broken")
    if tau_star is not None and dev[-1] > (tau_star - tau[0]) + STEP_TOL:
        problems.append(f"{path.name}: final deviation exceeds tau_* - tau0")
    return problems


def steps_in(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines()) - 2


def _summary_problems(req: Request, code: int) -> tuple[list[str], int]:
    """Checks shared by `solve` and the dense library path (summary.txt)."""
    if code != 0:
        return [f"exit code {code}, expected 0"], 0
    summary = _read_summary(req.out / "summary.txt")
    problems = []
    if summary.get("status") != STATUS_CONVERGED:
        problems.append(f"status {summary.get('status')!r}, expected converged")
    problems += certificate_problems(req.out / "trace.csv", float(summary["tau_star"]))
    key = "equation_residual" if req.expect.get("quadratic") else "residual"
    if not float(summary[key]) <= req.tol:
        problems.append(f"{key} {summary[key]} above tolerance {req.tol}")
    return problems, int(summary["steps"])


class CliWorkload:
    """Requests are in-process `coincide.cli.main([command, ...])` calls."""

    command = ""
    rounds = 9

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.cycle: list[Request] = []

    def configs(self) -> list[tuple[str, dict, dict]]:
        """(label, config dict, expectations) for every request of the mix."""
        raise NotImplementedError

    def setup(self) -> None:
        """Generate the mix, write one config file per request, warm up."""
        configs_dir = self.workdir / "configs"
        configs_dir.mkdir(parents=True, exist_ok=True)
        cycle = []
        for i, (label, data, expect) in enumerate(self.configs()):
            cfg = config.config_from_dict(data)
            path = configs_dir / f"{i:03d}.json"
            config.save_config(cfg, path)
            out = self.workdir / "out" / f"{i:03d}"
            cycle.append(Request(
                rid=i, label=label, out=out, tol=cfg.residual_tol,
                args=[self.command, "--config", str(path), "--out", str(out)],
                expect=expect))
        order = np.random.default_rng([self.seed, 0]).permutation(len(cycle))
        self.cycle = [cycle[int(k)] for k in order]
        warm = min(self.cycle, key=lambda req: req.expect.get("cost", 0.0))
        clear_dir(warm.out)
        self.execute(warm)

    def execute(self, req: Request) -> int:
        return cli.main(req.args)


class SmallBatch(CliWorkload):
    name = "small-batch"
    command = "solve"

    # 110 distinct requests, so p90 over the per-request times has ten
    # samples beyond it.
    GALLERY = ("scalar-d-pos", "kantorovich-affine", "matrix-2d", "random-quadratic")
    RANDOM = 70
    CUBIC = 36

    def configs(self) -> list[tuple[str, dict, dict]]:
        rng = np.random.default_rng([self.seed, 1])
        made = []
        for name in self.GALLERY:
            cfg = config.gallery_config(name)
            made.append((name, cfg.to_dict(), {"quadratic": cfg.kind == "quadratic"}))
        margins = _stratified(rng, 0.05, 1.0, self.RANDOM)
        dims = rng.permutation([2 + i % 11 for i in range(self.RANDOM)])  # dim_x 2..12, evenly
        for i, dim_x in enumerate(int(d) for d in dims):
            dim_y = int(rng.integers(1, dim_x + 1))
            q = coincide.random_quadratic(dim_x, dim_y, margins[i],
                                          seed=int(rng.integers(2**31)))
            made.append((f"quadratic-{dim_x}x{dim_y}-m{margins[i]:.3f}", {
                "kind": "quadratic",
                "quadratic": {
                    "tensor": q.bilinear.coeffs.tolist(),
                    "matrix": q.linear.tolist(),
                    "offset": q.offset.tolist(),
                    "a": q.a, "b": q.b, "c": q.c,
                },
            }, {"quadratic": True, "cost": dim_x}))
        fracs = _stratified(rng, 0.2, 0.8, self.CUBIC)
        for i, k in enumerate(_stratified(rng, 0.5, 2.0, self.CUBIC)):
            # psi = 2 tau meets phi = c0 + k tau^3 iff c0 < (4/3) sqrt(2 / (3k)).
            t_min = math.sqrt(2.0 / (3.0 * k))
            c0 = fracs[i] * (4.0 / 3.0) * t_min
            poly = [c0, 0.0, 0.0, k]
            made.append((f"cubic-k{k:.3f}-c{c0:.3f}", {
                "kind": "custom-scalar",
                "custom_scalar": {"phi_poly": poly, "psi_slope": 2.0,
                                  "majorant_poly": poly, "horizon": 2.0 * t_min},
            }, {"quadratic": False}))
        return made

    def check(self, req: Request, code: int) -> tuple[list[str], int]:
        return _summary_problems(req, code)


class DegenerateCompare(CliWorkload):
    name = "degenerate-compare"
    command = "compare"

    # The host's speed changes from second to second, and a request's fastest
    # run is steady across runs only if the request is short and runs many
    # times in a run. In a minute of heavy contention the fastest run of a
    # D = 0 request was above its quiet-host time by 9% at 21 ms, 14% at
    # 46 ms, 29% at 78 ms and up to 33% at 280 ms. So every request here
    # takes 30 to 70 ms (0.4k to 1.1k steps of both schemes together) and
    # a cycle of the seven takes about 0.5 s. Larger instances (10k-20k
    # D = 0 steps, near margins down to 1e-5) took 0.3 to 1.6 s, and their
    # fastest runs spread past 25% across runs.
    #
    # D = 0: b = 2^m, a = 2^(e + 2m - 2), c = 2^-e, so D = b^2 - 4ac = 4^m -
    # 4^m is exactly 0, and the solve takes about 20000 / 2^(e/2) sublinear
    # steps to 1e-8 whatever the scale m: 617 steps at e = 10, 435 at e = 11.
    # Two instances of each size, at distinct seeded scales.
    ZERO_EXPONENTS = (10, 10, 11, 11)
    ZERO_SCALES = (0, 1, 2, 3)
    # Near D = 0: a = 1, b = 2, margin one per stratum of log10 margin in
    # [-3, -2.5] (about 540 down to 320 geometric steps per scheme to 1e-10).
    NEAR = 3
    NEAR_LOG_MARGIN = (-3.0, -2.5)

    def configs(self) -> list[tuple[str, dict, dict]]:
        rng = np.random.default_rng([self.seed, 3])
        made = []
        scales = rng.permutation(self.ZERO_SCALES)
        for e, m in zip(self.ZERO_EXPONENTS, (int(m) for m in scales)):
            a, b, c = 2.0 ** (e + 2 * m - 2), 2.0 ** m, 2.0 ** -e
            made.append((f"d-zero-a{a:g}-b{b:g}", self._scalar(a, b, c, 1e-8),
                         {"degenerate": True, "cost": 1.0}))
        lo, hi = self.NEAR_LOG_MARGIN
        for i in range(self.NEAR):
            # Stratum i, at its centre moved by at most a twentieth of its
            # width: a request's cost moves by about 1% with the seed, so the
            # median and slowest requests cost about the same for every seed.
            log_m = lo + (hi - lo) * (i + 0.5 + 0.1 * (rng.uniform() - 0.5)) / self.NEAR
            margin = 10.0 ** log_m
            # a = 1, b = 2: D = 4 - 4c = 4 * margin, up to the rounding of 1 - margin.
            made.append((f"d-near-m{margin:.2e}",
                         self._scalar(1.0, 2.0, 1.0 - margin, 1e-10),
                         {"degenerate": False, "cost": -margin}))
        return made

    @staticmethod
    def _scalar(a: float, b: float, c: float, tol: float) -> dict:
        return {
            "kind": "quadratic",
            "method": "compare",
            "quadratic": {"tensor": [[[a]]], "matrix": [[b]], "offset": [c],
                          "a": a, "b": b, "c": c},
            "residual_tol": tol,
        }

    def check(self, req: Request, code: int) -> tuple[list[str], int]:
        if code != 0:
            return [f"exit code {code}, expected 0"], 0
        rows = {r[0]: r for r in _read_csv(req.out / "comparison.csv")}
        if req.expect["degenerate"]:
            want = {"majorant": (STATUS_CONVERGED, "sublinear"),
                    "baseline": ("not_contractive", "n/a")}
        else:
            want = {"majorant": (STATUS_CONVERGED, "geometric"),
                    "baseline": (STATUS_CONVERGED, "geometric")}
        problems = []
        steps = 0
        for method, (status, regime) in want.items():
            row = rows.get(method)
            if row is None or (row[2], row[3]) != (status, regime):
                problems.append(f"{method} row {row}, expected {status}/{regime}")
                continue
            if status != STATUS_CONVERGED:
                continue
            trace = req.out / f"trace_{method}.csv"
            problems += certificate_problems(trace)
            final_residual = float(_read_csv(trace)[-1][4])
            if not final_residual <= req.tol:
                problems.append(f"{method} residual {final_residual} above {req.tol}")
            if int(row[1]) != steps_in(trace):
                problems.append(f"{method} steps {row[1]} disagree with its trace")
            steps += int(row[1])
        return problems, steps


class DenseQuadratic:
    name = "dense-quadratic"
    rounds = 3

    DIM_X = 300
    DIM_Y = 150

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.cycle: list[Request] = []

    def setup(self) -> None:
        """One seeded instance; the 108 MB tensor is made here, not per request."""
        rng = np.random.default_rng([self.seed, 5])
        margin = float(rng.uniform(0.1, 0.9))
        q = coincide.random_quadratic(self.DIM_X, self.DIM_Y, margin,
                                      seed=int(rng.integers(2**31)))
        coincide.build_quadratic_instance(q)  # warm-up: the instance builds
        self.cycle = [Request(
            rid=0, label=f"random-{self.DIM_X}x{self.DIM_Y}-m{margin:.3f}",
            out=self.workdir / "out" / "000", tol=DEFAULT_RESIDUAL_TOL, instance=q,
            expect={"quadratic": True})]

    def execute(self, req: Request) -> int:
        q = req.instance
        x_star, trace = coincide.coincidence_solve(coincide.build_quadratic_instance(q))
        cli.write_trace_csv(trace, req.out / "trace.csv")
        cli.write_summary(trace, x_star, req.out / "summary.txt", [
            f"equation_residual: {q.equation_residual(x_star):.17g}",
            f"discriminant: {q.discriminant:.17g}",
        ])
        return 0 if trace.status == STATUS_CONVERGED else 1

    def check(self, req: Request, code: int) -> tuple[list[str], int]:
        return _summary_problems(req, code)


WORKLOADS = {w.name: w for w in (SmallBatch, DegenerateCompare, DenseQuadratic)}


def run_request(workload, req: Request, clock, tracer=None, index: int = 0) -> dict:
    """Run one request and check it; a failure is recorded, never raised.

    Only the call into coincide is timed (and traced, when a tracer is
    given). An exception, an H2 warning or a failed output check makes the
    request fail.
    """
    clear_dir(req.out)
    problems: list[str] = []
    code = None
    counts = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.begin_request(index, "request")
        t0 = clock()
        try:
            code = workload.execute(req)
        except Exception as err:  # the gate counts every failure
            problems.append(f"raised {type(err).__name__}: {err}")
        elapsed = clock() - t0
        if tracer is not None:
            counts = tracer.end_request()
    problems += [f"warning: {w.message}" for w in caught]
    steps = 0
    digest = ""
    rows = 0
    if code is not None:
        try:
            more, steps = workload.check(req, code)
            problems += more
            digest = output_digest(req.out)
            rows = sum(len(p.read_text(encoding="utf-8").splitlines()) - 1
                       for p in req.out.glob("trace*.csv"))
        except (OSError, ValueError, KeyError, IndexError) as err:
            problems.append(f"unreadable output: {type(err).__name__}: {err}")
    return {"rid": req.rid, "label": req.label, "seconds": elapsed, "steps": steps,
            "trace_rows": rows, "problems": problems, "digest": digest, "counts": counts}


def dump_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
