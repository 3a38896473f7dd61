"""Benchmark of the coincide solver: one workload per run, one client.

    python3 bench/run.py --workload small-batch --seed 1 --seconds 55 --trace 0

Run from the repository root (it finds the package in ./src). With
``--trace 0`` the run measures the workload untraced and prints the
end-to-end metrics; with ``--trace 1`` it first makes the same untraced
pass, then installs the span tracer and replays exactly the same requests,
and prints the per-layer metrics, the tracing overhead among them. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Without ./src/coincide the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
MIN_CYCLES = 2     # every request runs twice, so reruns and op counts can be compared
TRACED_CYCLES = 4  # cycles the traced pass replays, at most
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One client, one BLAS thread: with two, OpenBLAS stalls whenever the other
# CPU is busy (a 3 s set-up took 53 s next to another process on 2 CPUs).
BLAS_THREADS = 1


def blas_threads() -> int:
    """Pin the BLAS thread count (at most the CPUs available); set before numpy loads."""
    threads = min(len(os.sched_getaffinity(0)), BLAS_THREADS)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def on_cpu(cpus: list[int], cycle: int) -> int:
    """Run the cycle on the next CPU the process may use, so a CPU that another
    tenant of a shared host slows for a minute does not set every fastest run."""
    cpu = cpus[cycle % len(cpus)]
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure(workload, seconds: float, run_request, clock, cpus) -> list[dict]:
    """Whole cycles over the mix until `seconds` have passed, at least MIN_CYCLES."""
    results = []
    start = clock()
    cycle = 0
    while cycle < MIN_CYCLES or clock() - start < seconds:
        cpu = on_cpu(cpus, cycle)
        for req in workload.cycle:
            result = run_request(workload, req, clock)
            result["cycle"] = cycle
            result["cpu"] = cpu
            results.append(result)
        cycle += 1
    return results


def replay_traced(workload, cycles: int, run_request, clock, tracer, cpus) -> list[dict]:
    results = []
    for cycle in range(cycles):
        cpu = on_cpu(cpus, cycle)
        for req in workload.cycle:
            result = run_request(workload, req, clock, tracer, len(results))
            result["cycle"] = cycle
            result["cpu"] = cpu
            results.append(result)
    return results


def rerun_problems(results: list[dict], first: dict) -> None:
    """A request's outputs must be byte-identical each time it runs."""
    for r in results:
        if not r["digest"]:
            continue
        seen = first.setdefault(r["rid"], r["digest"])
        if seen != r["digest"]:
            r["problems"].append("outputs differ from an earlier run of the same request")


def best_times(results: list[dict]) -> dict:
    """Each request's fastest run: filters slowdowns that other tenants of a
    shared host impose, which last seconds and reach +70% on one computation."""
    best: dict = {}
    for r in results:
        best[r["rid"]] = min(best.get(r["rid"], r["seconds"]), r["seconds"])
    return best


def end_to_end(results: list[dict], setup_s: float) -> dict:
    best = best_times(results)
    secs = sorted(best.values())
    steps = {r["rid"]: r["steps"] for r in results}
    total = sum(secs)
    p90 = statistics.quantiles(secs, n=10, method="inclusive")[8] if len(secs) > 1 else secs[0]
    return {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (len(secs) / total, "1/s"),
        "solve_ms_p50": (statistics.median(secs) * 1e3, "ms"),
        "solve_ms_p90": (p90 * 1e3, "ms"),
        "us_per_step": (total / max(sum(steps.values()), 1) * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced: list[dict], untraced: list[dict]) -> dict:
    from tracing import LAYERS

    ids = {name: i for i, name in enumerate(tracer.names)}
    times = tracer.times.get("request", {})
    counts: dict = {}
    for r in traced:
        for key, value in r["counts"].items():
            counts[key] = counts.get(key, 0) + value
    n_req = len(traced)
    wall_ns = sum(r["seconds"] for r in traced) * 1e9

    def calls(name):
        return times.get(ids[name], (0, 0, 0))[0]

    def per_call(name, scale, column=1):
        acc = times.get(ids[name], (0, 0, 0))
        return acc[column] * scale / acc[0] if acc[0] else 0.0

    def evals_per_call(name):
        return counts.get(("evals", ids[name]), 0) / calls(name) if calls(name) else 0.0

    def under(parent, child):
        return counts.get((ids[parent], ids[child]), 0)

    def share(name):
        return 100.0 * times.get(ids[name], (0, 0, 0))[1] / wall_ns

    rq_calls = rq_ns = 0
    for phase_times in tracer.times.values():
        acc = phase_times.get(ids["problems.random_quadratic"])
        if acc:
            rq_calls += acc[0]
            rq_ns += acc[1]
    cli_self = sum(times.get(ids[n], (0, 0, 0))[2]
                   for n in ("cli.main", "cli.cmd_solve", "cli.cmd_compare"))
    replayed = 1 + max(r["cycle"] for r in traced)
    untraced_s = sum(best_times([r for r in untraced if r["cycle"] < replayed]).values())
    traced_s = sum(best_times(traced).values())

    m = {
        "config.load_ms": (per_call("config.load", 1e-6), "ms"),
        "config.build_ms": (per_call("config.build", 1e-6), "ms"),
        "majorant.validate_ms": (per_call("majorant.validate", 1e-6), "ms"),
        "majorant.validate_evals": (evals_per_call("majorant.validate"), "evals/call"),
        "majorant.crossing_ms": (per_call("majorant.crossing", 1e-6), "ms"),
        "majorant.crossing_evals": (evals_per_call("majorant.crossing"), "evals/call"),
        "majorant.next_tau_us": (per_call("majorant.next_tau", 1e-3), "us"),
        "majorant.next_tau_evals": (evals_per_call("majorant.next_tau"), "evals/call"),
        "solver.h2_ms": (per_call("solver.h2", 1e-6), "ms"),
        "solver.h2_samples": ((under("solver.h2", "problems.jacobian") / calls("solver.h2"))
                              if calls("solver.h2") else 0.0, "samples/call"),
        "solver.self_ms": (per_call("solver.coincidence_solve", 1e-6, column=2), "ms"),
        "solver.steps": (under("solver.coincidence_solve", "covering.solve_within") / n_req,
                         "count/req"),
        "solver.rate_estimate_ms": (per_call("solver.rate_estimate", 1e-6), "ms"),
        "covering.solve_within_us": (per_call("covering.solve_within", 1e-3), "us"),
        "covering.solve_within_calls": (calls("covering.solve_within") / n_req, "count/req"),
        "covering.evaluate_us": (per_call("covering.evaluate", 1e-3), "us"),
        "problems.phi_evaluate_us": (per_call("problems.phi_evaluate", 1e-3), "us"),
        "problems.jacobian_ms": (per_call("problems.jacobian", 1e-6), "ms"),
        "problems.einsum_calls": (counts.get("einsum", 0) / n_req, "count/req"),
        "problems.einsum_gflop_computed": (counts.get("einsum_flop", 0) / n_req / 1e9,
                                           "GFLOP/req"),
        "problems.einsum_mb_computed": (counts.get("einsum_bytes", 0) / n_req / 1e6, "MB/req"),
        "problems.random_quadratic_s": (rq_ns / rq_calls / 1e9 if rq_calls else 0.0, "s"),
        "linalg.operator_norm_ms": (per_call("linalg.operator_norm", 1e-6), "ms"),
        "linalg.svd_calls": (counts.get("svd", 0) / n_req, "count/req"),
        "linalg.norm_us": (per_call("linalg.norm", 1e-3), "us"),
        "linalg.norm_calls": (calls("linalg.norm") / n_req, "count/req"),
        "baseline.alpha_iterate_ms": (per_call("baseline.alpha_iterate", 1e-6), "ms"),
        "baseline.steps": (under("baseline.alpha_iterate", "covering.solve_within") / n_req,
                           "count/req"),
        "cli.write_trace_ms": (per_call("cli.write_trace", 1e-6), "ms"),
        "cli.trace_rows": (sum(r["trace_rows"] for r in traced) / n_req, "count/req"),
        "cli.write_summary_ms": (per_call("cli.write_summary", 1e-6), "ms"),
        "cli.self_ms": (cli_self * 1e-6 / n_req, "ms"),
        "majorant.crossing_pct": (share("majorant.crossing"), "%"),
        "majorant.next_tau_pct": (share("majorant.next_tau"), "%"),
        "solver.h2_pct": (share("solver.h2"), "%"),
        "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s, "%"),
    }
    for layer in LAYERS:
        self_ns = sum(acc[2] for nid, acc in times.items()
                      if tracer.names[nid].startswith(layer + "."))
        m[f"{layer}.self_pct"] = (100.0 * self_ns / wall_ns, "%")
    return m


def op_count_problems(traced: list[dict]) -> None:
    """Op counts of a request must repeat exactly in every cycle."""
    first: dict = {}
    for r in traced:
        seen = first.setdefault(r["rid"], r["counts"])
        if seen != r["counts"]:
            r["problems"].append("op counts differ between two traced runs of the request")


def fresh_import():
    """Import coincide and the workload code anew; returns the workloads module."""
    for name in [n for n in sys.modules
                 if n in ("coincide", "workloads") or n.startswith("coincide.")]:
        del sys.modules[name]
    workloads = importlib.import_module("workloads")
    source = Path(sys.modules["coincide"].__file__).resolve().parent
    if source != ROOT / "src" / "coincide":
        raise SystemExit(f"error: imported coincide from {source}")
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coincide" / "__init__.py").is_file():
        print(f"error: no coincide package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = blas_threads()
    clock = time.perf_counter
    t0 = clock()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    workloads = fresh_import()
    import_s = clock() - t0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # Set-up rounds repeat the whole set-up, each from a fresh import of the
    # package; setup_s is their median. numpy's own import happens once per
    # process, before the rounds, and is reported apart as import_s.
    workdir = ROOT / ".bench_run" / args.workload
    workloads.clear_dir(workdir)
    round_s = []
    for _ in range(workloads.WORKLOADS[args.workload].rounds):
        t = clock()
        workloads = fresh_import()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        round_s.append(clock() - t)
    setup_s = statistics.median(round_s)

    first_digest: dict = {}
    cpus = sorted(os.sched_getaffinity(0))
    untraced = measure(workload, args.seconds, workloads.run_request, clock, cpus)
    rerun_problems(untraced, first_digest)
    results = list(untraced)

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        handle = tracing.install(tracer)
        try:
            # One traced set-up, so the set-up layers (random_quadratic) show.
            tracer.begin_request(-1, "setup")
            type(workload)(args.seed, workdir).setup()
            tracer.end_request()
            cycles = min(TRACED_CYCLES, 1 + max(r["cycle"] for r in untraced))
            traced = replay_traced(workload, cycles, workloads.run_request, clock, tracer, cpus)
        finally:
            handle.remove()
        tracer.write(workdir / "trace")
        rerun_problems(traced, first_digest)   # traced outputs match the untraced ones
        op_count_problems(traced)
        results += traced
        metrics = per_layer(tracer, traced, untraced)
    else:
        metrics = end_to_end(untraced, setup_s)

    failed = [r for r in results if r["problems"]]
    best = sorted(best_times(untraced).values())
    p90 = statistics.quantiles(best, n=10, method="inclusive")[8] if len(best) > 1 else best[0]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "blas_threads": threads, "python": sys.version.split()[0],
        "numpy": np.__version__, "cpus": os.cpu_count(),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "import_s": import_s, "setup_round_s": round_s,
        "requests": len(best), "runs": len(untraced),
        "cycles": 1 + max(r["cycle"] for r in untraced),
        "samples_beyond_p90": sum(1 for s in best if s > p90),
        "all_runs_ms_p50": statistics.median(r["seconds"] for r in untraced) * 1e3,
        "attempted": len(results), "failed": len(failed),
        "error_rate": len(failed) / len(results),
        "mix": [{"rid": r.rid, "label": r.label, "tol": r.tol} for r in workload.cycle],
        "cpus_used": cpus,
        "runs_s": [[r["rid"], r["cycle"], r["seconds"], r["steps"], r["cpu"]]
                   for r in untraced],
        "failures": [{"label": r["label"], "cycle": r["cycle"], "problems": r["problems"]}
                     for r in failed],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    workloads.dump_json(workdir / "report.json", report)
    for r in failed[:5]:
        print(f"FAILED {r['label']} (cycle {r['cycle']}): {'; '.join(r['problems'])}",
              file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} blas_threads={threads} "
          f"requests={len(best)} cycles={report['cycles']} timing_samples={len(best)} "
          f"(best of {report['cycles']} runs each) samples_beyond_p90="
          f"{report['samples_beyond_p90']} setup_rounds={len(round_s)} "
          f"error_rate={report['error_rate']:.6g}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
