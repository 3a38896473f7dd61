"""Command-line entry point.

Subcommands:
  solve    run a solver on a config, write trace.csv + summary.txt
  gallery  list built-in instances or emit one as a config file
  compare  run majorant and baseline schemes side by side

Exit codes: 0 converged, 2 certified partial result (max_steps), 1 for
hypothesis violations (named H1/H2/crossing), a non-finite value in the
iteration (Phi overflowing, say), parse/validation failures, an --out that
cannot be a directory and a warning that a -W filter turns into an error, each
reported as one stderr line named by ERROR_PREFIXES, or by STATUS_PREFIXES
for a solve or compare's majorant row that ends in a failed hypothesis.
residual_tol (config or --tol) must be finite and positive, max_steps (config
or --max-steps) and --jobs at least 1, and JSON Infinity/NaN literals and
number literals that overflow a double (1e400) are refused. A batch (several
--config paths) writes each config to OUT/<file stem>, is refused when two
stems collide, and exits 1 if any config failed, else 2 if any hit its step
cap, else 0. A usage error exits 1, not argparse's 2, after its usage text.
All floats are printed with 17 significant digits so reruns are bit-identical.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .baseline import (
    STATUS_NO_CROSSING,
    AlphaCoveringProblem,
    _rate_or_na,
    alpha_iterate,
    compare_methods,
)
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
    NonFiniteValue,
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

# Stderr prefix of a run that ended with a failed hypothesis, by its status.
STATUS_PREFIXES = {STATUS_HYPOTHESIS: "hypothesis violation (H2)",
                   STATUS_NO_CROSSING: "hypothesis violation (crossing)"}

# Stderr prefix of a run that raised; the first matching class wins.
ERROR_PREFIXES = (
    (NegativeDiscriminant, "NegativeDiscriminant"),
    (NotContractive, "NotContractive"),
    (BudgetExceeded, "hypothesis violation (H1)"),
    ((NoCrossing, BracketFailure), "hypothesis violation (crossing)"),
    (NonFiniteValue, "non-finite value"),
    (CoincidenceError, "config error"),
    (OSError, "output error"),
    (Warning, "warning raised as error"),
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_vec(v) -> str:
    return " ".join(_fmt(float(t)) for t in np.atleast_1d(v))


# One row of trace.csv: printf-style %.17g prints the bytes _fmt does
# (-0, inf and nan included) in one formatting call per row. Its tail is
# the deviation, step_norm and residual that the traces of one compare
# pass share.
_TRACE_HEAD, _TRACE_TAIL = "%d,%.17g,", "%.17g,%.17g,%.17g"
_TRACE_ROW = _TRACE_HEAD + _TRACE_TAIL


def _write_lines(path: Path, lines: list[str]) -> None:
    """Write each line and a newline to path as UTF-8, the bytes and errors
    of `Path.write_text` on POSIX: one encode, and os.write on one file
    descriptor until every byte is written."""
    data = memoryview(("\n".join(lines) + "\n").encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def write_trace_csv(trace: IterateTrace, path: Path,
                    twin: tuple[IterateTrace, Path] | None = None) -> None:
    """Write trace to path and, given twin = (trace, path), that trace too,
    each with the bytes it has alone. Where rows j of the two hold the very
    same deviation, step_norm and residual objects, as the traces of one
    compare pass do, that tail is formatted once for both; objects that are
    only equal (0.0 and -0.0) are formatted apart."""
    jobs = [(trace, path, [TRACE_HEADER])]
    if twin is not None:
        jobs.append((*twin, [TRACE_HEADER]))
        lines, lines_b = jobs[0][2], jobs[1][2]
        for row, row_b in zip(trace.rows, twin[0].rows):
            if row[2] is row_b[2] and row[3] is row_b[3] and row[4] is row_b[4]:
                tail = _TRACE_TAIL % row[2:]
                lines.append(_TRACE_HEAD % row[:2] + tail)
                lines_b.append(_TRACE_HEAD % row_b[:2] + tail)
            else:
                lines.append(_TRACE_ROW % row)
                lines_b.append(_TRACE_ROW % row_b)
    for job, job_path, lines in jobs:
        lines += map(_TRACE_ROW.__mod__, job.rows[len(lines) - 1:])
        _write_lines(job_path, lines)


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
    _write_lines(path, lines)


def _exit_code(status: str, detail: str) -> int:
    """The exit code of a run that ended with status; a status that names a
    failed hypothesis also prints its one stderr line."""
    prefix = STATUS_PREFIXES.get(status)
    if prefix is not None:
        print(f"{prefix}: {detail}", file=sys.stderr)
    return STATUS_EXIT.get(status, EXIT_FAIL)


def _guarded(run, *args) -> int:
    """run(*args), with a CoincidenceError, an OSError (an --out that is not
    a usable directory) or a Warning (raised as an error under a filter such
    as -W error) turned into one named stderr line."""
    try:
        return run(*args)
    except (CoincidenceError, OSError, Warning) as err:
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
    return _exit_code(trace.status, trace.detail)


def cmd_solve(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
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
    # An unusable OUT fails here once, not once per config.
    Path(args.out).mkdir(parents=True, exist_ok=True)
    workers = min(args.jobs, len(jobs))  # the pool forks all its workers at once
    if workers > 1:
        # Imported here: the pool module costs every other run resident memory.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    _write_lines(out / "comparison.csv", lines)
    # Literal names: pathlib interns each part, and a name built anew per
    # request would be interned and dropped again every time.
    traces = [(trace, out / name) for name, trace in
              (("trace_majorant.csv", report.majorant_trace),
               ("trace_baseline.csv", report.baseline_trace)) if trace is not None]
    if traces:
        write_trace_csv(*traces[0], *traces[1:])
    majorant = report.run_for("majorant")
    return _exit_code(majorant.status, majorant.detail)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    parse_args keeps no state between calls: each makes a new namespace
    from the declared defaults. The parser holds no handler either: main
    picks the command's handler at call time, so a wrapper installed on
    cmd_solve after the first call is the one that runs.
    """
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
                       help="parallel workers when several configs are given "
                            "(at most one per config)")

    gallery = sub.add_parser("gallery", help="list or emit built-in instances")
    gallery.add_argument("action", choices=["list", "emit"])
    gallery.add_argument("name", nargs="?", default=None)
    gallery.add_argument("--out", default=".", help="directory for emitted configs")

    compare = sub.add_parser("compare", help="run majorant and baseline side by side")
    compare.add_argument("--config", required=True, nargs=1)
    compare.add_argument("--out", default=".", help="output directory")
    compare.add_argument("--tol", type=float, default=None)
    compare.add_argument("--max-steps", type=int, default=None)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # --help exits 0, a usage error 2, which is EXIT_PARTIAL
        if stop.code:
            return EXIT_FAIL  # argparse has printed the usage and the error
        raise
    handler = {"solve": cmd_solve, "gallery": cmd_gallery, "compare": cmd_compare}
    return _guarded(handler[args.command], args)


if __name__ == "__main__":
    sys.exit(main())
