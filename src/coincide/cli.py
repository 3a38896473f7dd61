"""Command-line entry point.

Subcommands:
  solve    run a solver on a config, write trace.csv + summary.txt
  gallery  list built-in instances or emit one as a config file
  compare  run majorant and baseline schemes side by side

Exit codes: 0 converged, 2 certified partial result (max_steps), 1 for
hypothesis violations (named H1/H2/crossing) and parse/validation failures,
each reported as one stderr line named by ERROR_PREFIXES. residual_tol (config
or --tol) must be finite and positive, max_steps (config or --max-steps) at
least 1, and JSON Infinity/NaN literals are refused. A batch (several
--config paths) writes each config to OUT/<file stem>, is refused when two
stems collide, and exits 1 if any config failed, else 2 if any hit its step
cap, else 0.
All floats are printed with 17 significant digits so reruns are bit-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .baseline import AlphaCoveringProblem, _rate_or_na, alpha_iterate, compare_methods
from .config import (
    BuiltProblem,
    ConfigError,
    build_problem,
    checked_limits,
    gallery_config,
    gallery_names,
    load_config,
    save_config,
)
from .errors import (
    BracketFailure,
    BudgetExceeded,
    CoincidenceError,
    NegativeDiscriminant,
    NoCrossing,
    NotContractive,
)
from .problems import QuadraticProblem
from .solver import (
    STATUS_CONVERGED,
    STATUS_HYPOTHESIS,
    STATUS_MAX_STEPS,
    IterateTrace,
    coincidence_solve,
)

TRACE_HEADER = "j,tau,deviation,step_norm,residual"
COMPARE_HEADER = "method,steps,status,rate_regime,rate_value"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARTIAL = 2

# Exit code of a finished run by its status; any other status exits EXIT_FAIL.
STATUS_EXIT = {STATUS_CONVERGED: EXIT_OK, STATUS_MAX_STEPS: EXIT_PARTIAL}

# Stderr prefix of a run that raised; the first matching class wins.
ERROR_PREFIXES = (
    (NegativeDiscriminant, "NegativeDiscriminant"),
    (NotContractive, "NotContractive"),
    (BudgetExceeded, "hypothesis violation (H1)"),
    ((NoCrossing, BracketFailure), "hypothesis violation (crossing)"),
    (CoincidenceError, "config error"),
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_vec(v) -> str:
    return " ".join(_fmt(float(t)) for t in np.atleast_1d(v))


def write_trace_csv(trace: IterateTrace, path: Path) -> None:
    lines = [TRACE_HEADER]
    for r in trace.records:
        lines.append(",".join([
            str(r.j), _fmt(r.tau), _fmt(r.deviation), _fmt(r.step_norm), _fmt(r.residual)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _rate_lines(trace: IterateTrace) -> list[str]:
    regime, value = _rate_or_na(trace)
    return [f"rate_regime: {regime}", f"rate_value: {_fmt(value)}"]


def write_summary(trace: IterateTrace, x_star, path: Path,
                  extra: list[str] | None = None) -> None:
    final = trace.final
    lines = [
        f"status: {trace.status}",
        f"steps: {trace.steps}",
        f"x_star: {_fmt_vec(x_star)}",
        f"tau0: {_fmt(trace.tau0)}",
        f"tau_star: {_fmt(trace.tau_star)}",
        f"residual: {_fmt(final.residual)}",
        f"deviation: {_fmt(final.deviation)}",
        f"deviation_bound: {_fmt(trace.tau_star - trace.tau0)}",
    ]
    lines += _rate_lines(trace)
    if trace.detail:
        lines.append(f"detail: {trace.detail}")
    if extra:
        lines += extra
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _guarded(run, *args) -> int:
    """run(*args), with a CoincidenceError turned into one named stderr line."""
    try:
        return run(*args)
    except CoincidenceError as err:
        prefix = next(name for cls, name in ERROR_PREFIXES if isinstance(err, cls))
        print(f"{prefix}: {err}", file=sys.stderr)
        return EXIT_FAIL


def load_built(config_path, tol, max_steps) -> BuiltProblem:
    """Load and build a config, with --tol/--max-steps checked like its fields."""
    cfg = load_config(config_path)
    cfg.residual_tol, cfg.max_steps = checked_limits(
        cfg.residual_tol if tol is None else tol,
        cfg.max_steps if max_steps is None else max_steps)
    return build_problem(cfg)


def _quadratic(built: BuiltProblem, what: str) -> QuadraticProblem:
    if built.quadratic is None:
        raise ConfigError(f"{what} needs a quadratic instance")
    return built.quadratic


def _run_solve(config_path: str, out_dir: str, tol, max_steps, strict_h2: bool) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    built = load_built(config_path, tol, max_steps)
    cfg, q = built.config, built.quadratic
    if cfg.method == "baseline":
        p = AlphaCoveringProblem.from_quadratic(_quadratic(built, "method 'baseline'"))
        x_star, trace = alpha_iterate(p, np.zeros(q.dim_x), cfg.residual_tol, cfg.max_steps)
        extra = [f"alpha: {_fmt(p.alpha)}", f"beta: {_fmt(p.beta)}"]
    else:
        x_star, trace = coincidence_solve(
            built.instance, residual_tol=cfg.residual_tol, max_steps=cfg.max_steps,
            h2_check="strict" if strict_h2 else "warn")
        extra = [] if q is None else [
            f"equation_residual: {_fmt(q.equation_residual(x_star))}",
            f"discriminant: {_fmt(q.discriminant)}"]
    write_trace_csv(trace, out / "trace.csv")
    write_summary(trace, x_star, out / "summary.txt", extra)
    if trace.status == STATUS_HYPOTHESIS:
        print(f"hypothesis violation (H2): {trace.detail}", file=sys.stderr)
    return STATUS_EXIT.get(trace.status, EXIT_FAIL)


def cmd_solve(args) -> int:
    configs = args.config
    if len(configs) == 1:
        return _run_solve(configs[0], args.out, args.tol, args.max_steps, args.strict_h2)
    # Several configs: isolated output subdirectories, optionally in parallel.
    jobs, owners = [], {}
    for path in configs:
        sub = Path(args.out) / Path(path).stem
        if sub in owners:
            raise ConfigError(f"configs {owners[sub]} and {path} would share the "
                              f"output directory {sub}")
        owners[sub] = path
        jobs.append((path, str(sub), args.tol, args.max_steps, args.strict_h2))
    if args.jobs > 1:
        # Imported here: the pool module costs every other run resident memory.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            codes = list(pool.map(_run_solve_star, jobs))
    else:
        codes = [_run_solve_star(job) for job in jobs]
    # A failure outranks a step cap, which outranks success.
    return EXIT_FAIL if EXIT_FAIL in codes else max(codes)


def _run_solve_star(job) -> int:
    return _guarded(_run_solve, *job)


def cmd_gallery(args) -> int:
    if args.action == "list":
        for name in gallery_names():
            print(name)
        return EXIT_OK
    if not args.name:
        print("gallery emit needs an instance name", file=sys.stderr)
        return EXIT_FAIL
    try:
        cfg = gallery_config(args.name)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return EXIT_FAIL
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    target = out / f"{args.name}.json"
    save_config(cfg, target)
    print(target)
    return EXIT_OK


def cmd_compare(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    built = load_built(args.config[0], args.tol, args.max_steps)
    cfg = built.config
    report = compare_methods(_quadratic(built, "compare"), tol=cfg.residual_tol,
                             max_steps=cfg.max_steps)
    lines = [COMPARE_HEADER]
    for run in report.runs:
        lines.append(f"{run.method},{run.steps},{run.status},{run.rate_regime},"
                     f"{_fmt(run.rate_value)}")
    (out / "comparison.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if report.majorant_trace is not None:
        write_trace_csv(report.majorant_trace, out / "trace_majorant.csv")
    if report.baseline_trace is not None:
        write_trace_csv(report.baseline_trace, out / "trace_baseline.csv")
    return STATUS_EXIT.get(report.run_for("majorant").status, EXIT_FAIL)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coincide",
        description="Solve coincidence-point problems with majorant-certified iterations.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on a problem config")
    solve.add_argument("--config", required=True, nargs="+",
                       help="problem config path(s); several run independently")
    solve.add_argument("--out", default=".", help="output directory")
    solve.add_argument("--tol", type=float, default=None, help="residual tolerance override")
    solve.add_argument("--max-steps", type=int, default=None, help="step cap override")
    solve.add_argument("--strict-h2", action="store_true",
                       help="abort when the sampled derivative bound fails")
    solve.add_argument("--jobs", type=int, default=1,
                       help="parallel workers when several configs are given")
    solve.set_defaults(func=cmd_solve)

    gallery = sub.add_parser("gallery", help="list or emit built-in instances")
    gallery.add_argument("action", choices=["list", "emit"])
    gallery.add_argument("name", nargs="?", default=None)
    gallery.add_argument("--out", default=".", help="directory for emitted configs")
    gallery.set_defaults(func=cmd_gallery)

    compare = sub.add_parser("compare", help="run majorant and baseline side by side")
    compare.add_argument("--config", required=True, nargs=1)
    compare.add_argument("--out", default=".", help="output directory")
    compare.add_argument("--tol", type=float, default=None)
    compare.add_argument("--max-steps", type=int, default=None)
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _guarded(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
