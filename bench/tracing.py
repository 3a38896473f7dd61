"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of each coincide module from outside
the package: every module namespace that holds a reference to a wrapped
function gets the wrapper, and methods are replaced on their class. Each
wrapped call records a span (name, start, end, parent span, request id) in
compact in-memory arrays that are written out once, when the run ends.

The innermost calls get plain counters instead of spans, because there are
hundreds of thousands of them in one degenerate solve:

- ``ScalarFn.__call__`` (psi/phi evaluations), split by the innermost open
  span, i.e. by the caller (pair validation, crossing scan, next_tau, ...);
- ``numpy.linalg.svd`` calls;
- ``numpy.einsum`` calls, with the flops and bytes a naive evaluation of the
  contraction implies, computed from operand shapes (not measured).

Wrappers are installed only for the traced pass and removed afterwards; the
untraced pass runs the unmodified package.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute, span name). Attributes with a dot are methods replaced
# on their class. Phi evaluations and Jacobians are one layer whatever class
# implements the smooth map, so AffineMap/CallableMap (defined in solver.py)
# share the problems.* span names with QuadraticMap.
SPAN_TARGETS = [
    ("linalg", "norm", "linalg.norm"),
    ("linalg", "operator_norm", "linalg.operator_norm"),
    ("linalg", "smallest_singular_value", "linalg.smallest_singular_value"),
    ("linalg", "min_norm_solve", "linalg.min_norm_solve"),
    ("linalg", "finite_diff_jacobian", "linalg.finite_diff_jacobian"),
    ("majorant", "MajorantPair.validate", "majorant.validate"),
    ("majorant", "smallest_crossing", "majorant.crossing"),
    ("majorant", "next_tau", "majorant.next_tau"),
    ("majorant", "tau_sequence", "majorant.tau_sequence"),
    ("majorant", "validate_h2_start", "majorant.validate_h2_start"),
    ("covering", "IdentityCovering.evaluate", "covering.evaluate"),
    ("covering", "LinearSurjectiveCovering.evaluate", "covering.evaluate"),
    ("covering", "IdentityCovering.solve_within", "covering.solve_within"),
    ("covering", "LinearSurjectiveCovering.solve_within", "covering.solve_within"),
    ("covering", "verify_covering_sampled", "covering.verify_covering_sampled"),
    ("solver", "coincidence_solve", "solver.coincidence_solve"),
    ("solver", "validate_h2_derivative", "solver.h2"),
    ("solver", "rate_estimate", "solver.rate_estimate"),
    ("solver", "check_jacobian", "solver.check_jacobian"),
    ("solver", "AffineMap.evaluate", "problems.phi_evaluate"),
    ("solver", "AffineMap.jacobian", "problems.jacobian"),
    ("solver", "CallableMap.evaluate", "problems.phi_evaluate"),
    ("solver", "CallableMap.jacobian", "problems.jacobian"),
    ("problems", "QuadraticMap.evaluate", "problems.phi_evaluate"),
    ("problems", "QuadraticMap.jacobian", "problems.jacobian"),
    ("problems", "apply_bilinear", "problems.apply_bilinear"),
    ("problems", "spectral_overestimate", "problems.spectral_overestimate"),
    ("problems", "random_quadratic", "problems.random_quadratic"),
    ("problems", "scalar_quadratic", "problems.scalar_quadratic"),
    ("problems", "build_quadratic_instance", "problems.build_quadratic_instance"),
    ("problems", "build_kantorovich_instance", "problems.build_kantorovich_instance"),
    ("problems", "QuadraticProblem.equation_residual", "problems.equation_residual"),
    ("baseline", "alpha_iterate", "baseline.alpha_iterate"),
    ("baseline", "compare_methods", "baseline.compare_methods"),
    ("baseline", "estimate_lipschitz", "baseline.estimate_lipschitz"),
    ("config", "load_config", "config.load"),
    ("config", "save_config", "config.save"),
    ("config", "config_from_dict", "config.from_dict"),
    ("config", "build_problem", "config.build"),
    ("config", "gallery_config", "config.gallery_config"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_solve", "cli.cmd_solve"),
    ("cli", "cmd_compare", "cli.cmd_compare"),
    ("cli", "cmd_gallery", "cli.cmd_gallery"),
    ("cli", "write_trace_csv", "cli.write_trace"),
    ("cli", "write_summary", "cli.write_summary"),
]

LAYERS = ("config", "majorant", "covering", "solver", "problems", "linalg", "baseline", "cli")

NO_SPAN = -1


class Tracer:
    """Spans and counters of one process, kept in memory until `write`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_name = array("h")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []
        self.top = NO_SPAN
        self.active = False
        self.request = -1
        self.phase = "request"
        # Per-phase time totals: name id -> [calls, inclusive ns, self ns].
        self.times: dict[str, dict[int, list[int]]] = {}
        # Counts of the current request; the harness takes and resets them.
        # psi/phi evaluations go to a flat list indexed by the innermost span
        # id (the last slot for "no span"), the cheapest increment there is.
        self.counts: Counter = Counter()
        self.evals: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_request(self, request_id: int, phase: str) -> None:
        self.request = request_id
        self.phase = phase
        self.counts = Counter()
        self.evals = [0] * (len(self.names) + 1)
        self.active = True

    def end_request(self) -> Counter:
        self.active = False
        if self._stack:
            raise RuntimeError("span stack not empty at the end of a request")
        for nid, n in enumerate(self.evals[:-1]):
            if n:
                self.counts[("evals", nid)] = n
        if self.evals[-1]:
            self.counts[("evals", NO_SPAN)] = self.evals[-1]
        return self.counts

    def enter(self, nid: int) -> None:
        sid = len(self.span_start)
        self.span_parent.append(self._stack[-1][0] if self._stack else NO_SPAN)
        self.span_request.append(self.request)
        self.span_name.append(nid)
        self.span_end.append(0)
        start = time.perf_counter_ns()
        self.span_start.append(start)
        self._stack.append([sid, nid, start, 0])
        self.top = nid

    def exit(self) -> None:
        end = time.perf_counter_ns()
        sid, nid, start, child_ns = self._stack.pop()
        self.span_end[sid] = end
        dur = end - start
        phase_times = self.times.setdefault(self.phase, {})
        acc = phase_times.get(nid)
        if acc is None:
            acc = phase_times[nid] = [0, 0, 0]
        acc[0] += 1
        acc[1] += dur
        acc[2] += dur - child_ns
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            self.top = parent[1]
            self.counts[(parent[1], nid)] += 1
        else:
            self.top = NO_SPAN
            self.counts[(NO_SPAN, nid)] += 1

    def write(self, directory: Path) -> None:
        """Write the spans (one .npy of records) and the name table."""
        directory.mkdir(parents=True, exist_ok=True)
        n = len(self.span_start)
        spans = np.zeros(n, dtype=[("parent", "i8"), ("request", "i8"), ("name", "i2"),
                                   ("start_ns", "i8"), ("end_ns", "i8")])
        spans["parent"] = np.frombuffer(self.span_parent, dtype=np.int64)
        spans["request"] = np.frombuffer(self.span_request, dtype=np.int64)
        spans["name"] = np.frombuffer(self.span_name, dtype=np.int16)
        spans["start_ns"] = np.frombuffer(self.span_start, dtype=np.int64)
        spans["end_ns"] = np.frombuffer(self.span_end, dtype=np.int64)
        np.save(directory / "spans.npy", spans)
        (directory / "span_names.json").write_text(json.dumps(self.names) + "\n",
                                                   encoding="utf-8")


def _span_wrapper(tracer: Tracer, nid: int, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def _einsum_cost(subscripts: str, operands) -> tuple[int, int]:
    """Flops and bytes of a naive evaluation, computed from operand shapes.

    Every point of the full index space costs one multiply per extra operand
    plus one add; every operand is read once and the output written once.
    """
    lhs, out = subscripts.replace(" ", "").split("->")
    sizes: dict[str, int] = {}
    for labels, op in zip(lhs.split(","), operands):
        for label, dim in zip(labels, np.shape(op)):
            sizes[label] = dim
    points = math.prod(sizes.values())
    itemsize = np.result_type(*operands).itemsize
    flops = len(operands) * points
    nbytes = sum(np.asarray(op).nbytes for op in operands)
    nbytes += math.prod(sizes[label] for label in out) * itemsize
    return flops, nbytes


class Installed:
    """Handle on installed wrappers; `remove` restores every original."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap coincide's public functions (spans) and innermost calls (counters)."""
    import coincide
    from coincide import majorant

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "coincide" or name.startswith("coincide."))]
    handle = Installed()
    for module_name, attr, span_name in SPAN_TARGETS:
        module = getattr(coincide, module_name)
        nid = tracer.name_id(span_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            handle.replace(cls, meth, _span_wrapper(tracer, nid, cls.__dict__[meth]))
            continue
        original = getattr(module, attr)
        wrapper = _span_wrapper(tracer, nid, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    handle.replace(mod, key, wrapper)

    scalar_call = majorant.ScalarFn.__dict__["__call__"]

    def counted_call(self, tau):
        if tracer.active:
            tracer.evals[tracer.top] += 1
        return scalar_call(self, tau)

    handle.replace(majorant.ScalarFn, "__call__", counted_call)

    svd = np.linalg.svd

    @functools.wraps(svd)
    def counted_svd(*args, **kwargs):
        if tracer.active:
            tracer.counts["svd"] += 1
        return svd(*args, **kwargs)

    handle.replace(np.linalg, "svd", counted_svd)

    einsum = np.einsum
    costs: dict = {}

    @functools.wraps(einsum)
    def counted_einsum(*operands, **kwargs):
        if tracer.active:
            key = (operands[0],) + tuple(np.shape(op) for op in operands[1:])
            cost = costs.get(key)
            if cost is None:
                cost = costs[key] = _einsum_cost(operands[0], operands[1:])
            counts = tracer.counts
            counts["einsum"] += 1
            counts["einsum_flop"] += cost[0]
            counts["einsum_bytes"] += cost[1]
        return einsum(*operands, **kwargs)

    handle.replace(np, "einsum", counted_einsum)
    return handle
