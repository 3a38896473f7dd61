"""Problem configuration files and the built-in gallery.

Configs are JSON: nested key/value objects plus arrays, numbers as decimal
literals. json round-trips binary64 exactly (repr emits shortest round-trip
literals), which keeps solve inputs reproducible bit for bit. The non-standard
literals Infinity and NaN are refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .covering import LinearSurjectiveCovering
from .errors import CoincidenceError
from .linalg import NormTag
from .majorant import DEFAULT_HORIZON, MajorantPair, ScalarFn
from .problems import (
    BilinearMap,
    QuadraticProblem,
    build_kantorovich_instance,
    build_quadratic_instance,
    random_quadratic,
)
from .solver import (
    DEFAULT_MAX_STEPS,
    DEFAULT_RESIDUAL_TOL,
    AffineMap,
    CallableMap,
    ProblemInstance,
)

KINDS = ("quadratic", "kantorovich", "custom-scalar")
METHODS = ("majorant", "baseline", "compare")


class ConfigError(CoincidenceError):
    """Config file fails to parse or validate."""


@dataclass
class ProblemConfig:
    kind: str
    method: str = "majorant"
    norms: tuple = (NormTag.L2, NormTag.L2)
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    max_steps: int = DEFAULT_MAX_STEPS
    quadratic: Optional[dict] = None
    generate: Optional[dict] = None
    kantorovich: Optional[dict] = None
    custom_scalar: Optional[dict] = None
    label: str = ""

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "method": self.method,
            "norms": {"x": self.norms[0].value, "y": self.norms[1].value},
            "residual_tol": self.residual_tol,
            "max_steps": self.max_steps,
        }
        if self.label:
            out["label"] = self.label
        for key in ("quadratic", "generate", "kantorovich", "custom_scalar"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


def config_from_dict(data: dict) -> ProblemConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    method = data.get("method", "majorant")
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    norms_raw = data.get("norms", {"x": "l2", "y": "l2"})
    try:
        norms = (NormTag(norms_raw["x"]), NormTag(norms_raw["y"]))
    except (KeyError, ValueError, TypeError) as err:
        raise ConfigError(f"bad norms section: {norms_raw!r}") from err
    residual_tol, max_steps = checked_limits(data.get("residual_tol", DEFAULT_RESIDUAL_TOL),
                                             data.get("max_steps", DEFAULT_MAX_STEPS))
    cfg = ProblemConfig(
        kind=kind,
        method=method,
        norms=norms,
        residual_tol=residual_tol,
        max_steps=max_steps,
        quadratic=data.get("quadratic"),
        generate=data.get("generate"),
        kantorovich=data.get("kantorovich"),
        custom_scalar=data.get("custom_scalar"),
        label=data.get("label", ""),
    )
    if kind == "quadratic" and (cfg.quadratic is None) == (cfg.generate is None):
        raise ConfigError("quadratic configs need exactly one of 'quadratic' or 'generate'")
    if kind == "kantorovich" and cfg.kantorovich is None:
        raise ConfigError("kantorovich configs need a 'kantorovich' section")
    if kind == "custom-scalar" and cfg.custom_scalar is None:
        raise ConfigError("custom-scalar configs need a 'custom_scalar' section")
    return cfg


def checked_limits(residual_tol, max_steps) -> tuple[float, int]:
    """The stopping fields as (float, int): residual_tol finite and positive,
    max_steps >= 1. Shared by config files and command-line overrides."""
    try:
        residual_tol = float(residual_tol)
        max_steps = int(max_steps)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"bad tolerance fields: {err}") from err
    if not (math.isfinite(residual_tol) and residual_tol > 0) or max_steps < 1:
        raise ConfigError("residual_tol must be finite and positive and max_steps >= 1")
    return residual_tol, max_steps


def _reject_constant(literal: str):
    raise ValueError(f"non-finite number {literal}")


def load_config(path) -> ProblemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_reject_constant)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except ValueError as err:  # malformed JSON, bad encoding, or a non-finite literal
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    return config_from_dict(data)


def save_config(cfg: ProblemConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2)
        fh.write("\n")


@dataclass
class BuiltProblem:
    """A runnable instance plus whatever analytics the config pinned down."""

    instance: ProblemInstance
    quadratic: Optional[QuadraticProblem] = None
    config: Optional[ProblemConfig] = None


def _build_explicit_quadratic(section: dict, norms) -> QuadraticProblem:
    if norms != (NormTag.L2, NormTag.L2):
        raise ConfigError("quadratic instances are built for l2/l2 norms")
    try:
        tensor = np.asarray(section["tensor"], dtype=float)
        matrix = np.asarray(section["matrix"], dtype=float)
        offset = np.asarray(section["offset"], dtype=float)
        # An absent constant is left to the problem, which certifies it.
        a, b, c = (float(section[k]) if k in section else None for k in "abc")
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad quadratic section: {err}") from err
    try:
        return QuadraticProblem(
            bilinear=BilinearMap(coeffs=tensor, bound=a),
            linear=matrix, offset=offset, b=b, c=c)
    except (ValueError, CoincidenceError) as err:
        raise ConfigError(f"invalid quadratic problem: {err}") from err


def _build_generated_quadratic(section: dict) -> QuadraticProblem:
    try:
        return random_quadratic(
            dim_x=int(section["dim_x"]),
            dim_y=int(section["dim_y"]),
            target_margin=float(section["margin"]),
            seed=int(section["seed"]),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad generate section: {err}") from err


def _build_kantorovich(section: dict, norms) -> ProblemInstance:
    if norms[0] != norms[1]:
        raise ConfigError("the fixed-point reduction needs matching X and Y norms")
    try:
        W = np.asarray(section["linear"], dtype=float)
        d = np.asarray(section["shift"], dtype=float)
        x0 = np.asarray(section["x0"], dtype=float)
        lip = float(section["lipschitz"])
        radius = float(section.get("domain_radius", DEFAULT_HORIZON))
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad kantorovich section: {err}") from err
    f = AffineMap(W, d, domain_center=x0, domain_radius=radius)
    try:
        return build_kantorovich_instance(
            f, ScalarFn.linear(lip, label=f"{lip}*tau"), x0, norm_tag=norms[0])
    except ValueError as err:
        raise ConfigError(f"invalid kantorovich problem: {err}") from err


def _build_custom_scalar(section: dict, norms) -> ProblemInstance:
    try:
        phi_poly = [float(v) for v in section["phi_poly"]]
        psi_slope = float(section["psi_slope"])
        majorant_poly = [float(v) for v in section["majorant_poly"]]
        x0 = float(section.get("x0", 0.0))
        tau0 = float(section.get("tau0", 0.0))
        horizon = float(section["horizon"])
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad custom_scalar section: {err}") from err
    if psi_slope <= 0:
        raise ConfigError("psi_slope must be positive")
    poly = ScalarFn.polynomial(phi_poly)
    phi_map = CallableMap(
        f=lambda x: np.array([poly(float(np.asarray(x)[0]))]),
        jac=lambda x: np.array([[poly.derivative(float(np.asarray(x)[0]))]]),
        domain_center=np.array([x0]),
        domain_radius=horizon,
    )
    try:
        pair = MajorantPair(
            psi=ScalarFn.linear(psi_slope),
            phi=ScalarFn.polynomial(majorant_poly),
            tau0=tau0,
            r=math.inf,
            horizon=horizon,
        )
    except ValueError as err:
        raise ConfigError(f"invalid majorant pair: {err}") from err
    return ProblemInstance(
        phi=phi_map,
        cover=LinearSurjectiveCovering(np.array([[psi_slope]]), sign=-1, b=psi_slope,
                                       norm_x=norms[0], norm_y=norms[1]),
        majorants=pair,
        x0=np.array([x0]),
        norms=norms,
    )


def build_problem(cfg: ProblemConfig) -> BuiltProblem:
    """Turn a parsed config into a runnable instance (raises ConfigError,
    NegativeDiscriminant)."""
    if cfg.kind == "quadratic":
        q = (_build_explicit_quadratic(cfg.quadratic, cfg.norms)
             if cfg.quadratic is not None else _build_generated_quadratic(cfg.generate))
        try:
            inst = build_quadratic_instance(q)
        except ValueError as err:  # e.g. a scan window b/a that overflows
            raise ConfigError(f"invalid quadratic problem: {err}") from err
        return BuiltProblem(instance=inst, quadratic=q, config=cfg)
    if cfg.kind == "kantorovich":
        return BuiltProblem(instance=_build_kantorovich(cfg.kantorovich, cfg.norms),
                            config=cfg)
    return BuiltProblem(instance=_build_custom_scalar(cfg.custom_scalar, cfg.norms),
                        config=cfg)


# ---------------------------------------------------------------------------
# Built-in gallery

GALLERY: dict[str, dict] = {
    "scalar-d-pos": {
        "kind": "quadratic",
        "method": "majorant",
        "label": "scalar quadratic, positive discriminant (a=1, b=2, c=0.75)",
        "quadratic": {
            "tensor": [[[1.0]]],
            "matrix": [[2.0]],
            "offset": [0.75],
            "a": 1.0,
            "b": 2.0,
            "c": 0.75,
        },
    },
    "scalar-d-zero": {
        "kind": "quadratic",
        "method": "majorant",
        "label": "scalar quadratic, zero discriminant (a=1, b=2, c=1)",
        "quadratic": {
            "tensor": [[[1.0]]],
            "matrix": [[2.0]],
            "offset": [1.0],
            "a": 1.0,
            "b": 2.0,
            "c": 1.0,
        },
        "residual_tol": 1e-08,
    },
    "kantorovich-affine": {
        "kind": "kantorovich",
        "method": "majorant",
        "label": "affine contraction fixed point (f(x) = 0.5x + 0.5)",
        "kantorovich": {
            "linear": [[0.5]],
            "shift": [0.5],
            "x0": [0.0],
            "lipschitz": 0.5,
            "domain_radius": 8.0,
        },
    },
    "matrix-2d": {
        "kind": "quadratic",
        "method": "majorant",
        "label": "two-dimensional quadratic operator equation",
        "quadratic": {
            "tensor": [
                [[0.3, 0.1], [0.1, 0.2]],
                [[0.1, 0.05], [0.05, 0.25]],
            ],
            "matrix": [[2.0, 0.0], [0.0, 2.0]],
            "offset": [0.3, 0.4],
        },
    },
    "random-quadratic": {
        "kind": "quadratic",
        "method": "majorant",
        "label": "seeded random instance template",
        "generate": {"dim_x": 3, "dim_y": 2, "margin": 0.5, "seed": 12345},
    },
}


def gallery_names() -> list[str]:
    return list(GALLERY.keys())


def gallery_config(name: str) -> ProblemConfig:
    try:
        raw = GALLERY[name]
    except KeyError:
        raise KeyError(f"unknown gallery instance {name!r}; "
                       f"choices: {', '.join(GALLERY)}") from None
    return config_from_dict(json.loads(json.dumps(raw)))
