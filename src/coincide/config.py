"""Problem configuration files and the built-in gallery.

Configs are JSON: nested key/value objects plus arrays, numbers as decimal
literals. json round-trips binary64 exactly (repr emits shortest round-trip
literals), which keeps solve inputs reproducible bit for bit. The non-standard
literals Infinity and NaN are refused, and so is a number literal that
overflows binary64, such as 1e400. A number field holds a JSON number: a
string ("inf", "1.0"), a boolean or null there is refused, so no spelling
gets round the literal checks. Arrays are checked by the dtype numpy gives
them, which refuses an integer beyond 64 bits, and their entries are walked
for a boolean, which numpy reads among numbers as 0 or 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import CoincidenceError
from .linalg import NormTag
from .majorant import DEFAULT_HORIZON, ScalarFn
from .problems import (
    BilinearMap,
    QuadraticProblem,
    build_kantorovich_instance,
    build_polynomial_instance,
    random_quadratic,
)
from .solver import DEFAULT_MAX_STEPS, DEFAULT_RESIDUAL_TOL, AffineMap

if TYPE_CHECKING:  # for BuiltProblem's annotation; the builders make instances
    from .solver import ProblemInstance

# The sections each kind reads; a config holds exactly one of them.
SECTIONS = {
    "quadratic": ("quadratic", "generate"),
    "kantorovich": ("kantorovich",),
    "custom-scalar": ("custom_scalar",),
}
KINDS = tuple(SECTIONS)
# The top-level fields of every kind; any other key must name a kind's section.
COMMON = ("kind", "method", "norms", "residual_tol", "max_steps", "label")
METHODS = ("majorant", "baseline", "compare")
# Largest generated tensor, dim_y * dim_x^2 entries (256 MiB of float64):
# admits dim_x = dim_y = 300.
MAX_TENSOR_ENTRIES = 2 ** 25


class ConfigError(CoincidenceError):
    """Config file fails to parse or validate."""


@dataclass
class ProblemConfig:
    kind: str
    section: str  # the one key of SECTIONS[kind] the config holds
    body: object  # that section's value
    method: str = "majorant"
    norms: tuple = (NormTag.L2, NormTag.L2)
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    max_steps: int = DEFAULT_MAX_STEPS
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
        out[self.section] = self.body
        return out


def config_from_dict(data: dict) -> ProblemConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    for key in data:
        if key not in COMMON and key not in chain(*SECTIONS.values()):
            raise ConfigError(f"unknown key {key!r}")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    method = data.get("method", "majorant")
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    norms = tuple(_fields(data.get("norms", {"x": "l2", "y": "l2"}), "norms"))
    residual_tol, max_steps = checked_limits(data.get("residual_tol", DEFAULT_RESIDUAL_TOL),
                                             data.get("max_steps", DEFAULT_MAX_STEPS))
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ConfigError(f"label must be a string, got {label!r}")
    keys = SECTIONS[kind]
    present = [key for key in keys if data.get(key) is not None]
    if len(present) != 1:
        names = " or ".join(f"'{key}'" for key in keys)
        need = f"exactly one of {names}" if len(keys) > 1 else f"a {names} section"
        raise ConfigError(f"{kind} configs need {need}")
    return ProblemConfig(kind=kind, section=present[0], body=data[present[0]], method=method,
                         norms=norms, residual_tol=residual_tol, max_steps=max_steps,
                         label=label)


def checked_limits(residual_tol, max_steps) -> tuple[float, int]:
    """The stopping fields as (float, int): residual_tol finite and positive,
    max_steps a whole number >= 1. Shared by config files and command-line
    overrides."""
    try:
        residual_tol = _number(residual_tol, "residual_tol")
        steps = _number(max_steps, "max_steps")
        max_steps = int(steps)
        if max_steps != steps:
            raise ValueError(f"max_steps must be a whole number, got {steps!r}")
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"bad tolerance fields: {err}") from err
    if not (math.isfinite(residual_tol) and residual_tol > 0) or max_steps < 1:
        raise ConfigError("residual_tol must be finite and positive and max_steps >= 1")
    return residual_tol, max_steps


_REALS = (int, float, np.integer, np.floating)


def _number(value, key: str):
    """value itself if it is a number (and not a bool); else TypeError.

    The caller's except turns the error into a ConfigError for its section.
    Checked by type, so a string such as "nan" never reaches float().
    """
    if isinstance(value, bool) or not isinstance(value, _REALS):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return value


def _number_array(value, key: str) -> np.ndarray:
    """value as a float array, if numpy reads it as integers or floats.

    A np.asarray and a dtype test refuse strings, booleans, null, objects,
    ragged nesting (TypeError or ValueError) and integers too large for 64
    bits. numpy reads booleans among numbers as numbers, so the entries of a
    numeric array are then walked, one nesting level at a time, for a bool.
    """
    array = np.asarray(value)
    kind = array.dtype.kind
    if kind not in "iuf":
        found = {"b": "booleans", "U": "strings"}.get(
            kind, "null, objects or integers beyond 64 bits")
        raise TypeError(f"{key} must hold numbers only, got {found}")
    entries = value if array.ndim else (value,)
    for _ in range(array.ndim - 1):
        entries = chain.from_iterable(entries)
    if bool in map(type, entries):
        raise TypeError(f"{key} must hold numbers only, got booleans")
    return array.astype(float, copy=False)


def _real(value, key: str) -> float:
    return float(_number(value, key))


def _integer(value, key: str) -> int:
    if type(value) is not int:  # not a float, and not a bool
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def _coefficients(value, key: str) -> list:
    """A polynomial's coefficients: a 1-d array of numbers, as Python floats."""
    array = _number_array(value, key)
    if array.ndim != 1:
        raise TypeError(f"{key} must be a list of numbers, got shape {array.shape}")
    return array.tolist()


# Each section's fields and their parsers, in the order its reader unpacks
# them. OPTIONAL holds the defaults of those that may be absent; an absent
# quadratic constant (None) is left to the problem, which certifies it.
FIELDS = {
    "norms": dict.fromkeys("xy", lambda value, key: NormTag(value)),
    "quadratic": dict(tensor=_number_array, matrix=_number_array, offset=_number_array,
                      a=_real, b=_real, c=_real),
    "generate": dict(dim_x=_integer, dim_y=_integer, margin=_real, seed=_integer),
    "kantorovich": dict(linear=_number_array, shift=_number_array, x0=_number_array,
                        lipschitz=_real, domain_radius=_real),
    "custom_scalar": dict(phi_poly=_coefficients, majorant_poly=_coefficients,
                          psi_slope=_real, x0=_real, tau0=_real, horizon=_real),
}
OPTIONAL = {"norms": {}, "generate": {}, "quadratic": dict(a=None, b=None, c=None),
            "kantorovich": dict(domain_radius=DEFAULT_HORIZON),
            "custom_scalar": dict(x0=0.0, tau0=0.0)}


def _fields(body, section: str) -> list:
    """The section's fields, parsed, in FIELDS[section]'s order; ConfigError for
    a body that is no object, an unknown key, an absent field or a bad value."""
    fields, defaults = FIELDS[section], OPTIONAL[section]
    if not isinstance(body, dict):
        raise ConfigError(f"bad {section} section: expected an object, got {body!r}")
    for key in body:
        if key not in fields:
            raise ConfigError(f"bad {section} section: unknown key {key!r}")
    try:
        return [parse(body[key], key) if key in body or key not in defaults else defaults[key]
                for key, parse in fields.items()]
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"bad {section} section: {err}") from err


def _reject_constant(literal: str):
    raise ValueError(f"non-finite number {literal}")


def _finite_float(literal: str) -> float:
    """json parse_float: a literal that overflows binary64 (1e400) is refused."""
    value = float(literal)
    if not math.isfinite(value):
        _reject_constant(literal)
    return value


def _finite_int(literal: str) -> int:
    """json parse_int: so is an integer literal of more than 308 digits."""
    _finite_float(literal)
    return int(literal)


# A literal overflows binary64 only with an exponent of 3 or more digits or
# with 210 or more digits in a row: with digits read as 0, E as e and the
# signs dropped, a text with neither "e000" nor 210 0s holds no such literal.
_NUMBER_SHAPES = bytes.maketrans(b"0123456789E", b"0000000000e")


def _decode(text: str):
    """json.loads of a config text, refusing every non-finite number; the
    per-number hooks run only when a literal may overflow. The C scanner's
    numbers are the hooks' own: `float` and `int` of the literal."""
    shapes = text.encode().translate(_NUMBER_SHAPES, b"+-")
    # "e000" in shapes, read after each e: a search for it is slow on 0s.
    if any(c[:3] == b"000" for c in shapes.split(b"e")[1:]) or b"0" * 210 in shapes:
        return json.loads(text, parse_constant=_reject_constant,
                          parse_float=_finite_float, parse_int=_finite_int)
    return json.loads(text, parse_constant=_reject_constant)


def load_config(path) -> ProblemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = _decode(fh.read())
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
    tensor, matrix, offset, a, b, c = _fields(section, "quadratic")
    if norms != (NormTag.L2, NormTag.L2):
        raise ConfigError("quadratic instances are built for l2/l2 norms")
    try:
        return QuadraticProblem(
            bilinear=BilinearMap(coeffs=tensor, bound=a),
            linear=matrix, offset=offset, b=b, c=c)
    except (ValueError, CoincidenceError) as err:
        raise ConfigError(f"invalid quadratic problem: {err}") from err


def _build_generated_quadratic(section: dict) -> QuadraticProblem:
    """A seeded random quadratic, its sizes checked before anything is allocated."""
    dim_x, dim_y, margin, seed = _fields(section, "generate")
    if not 1 <= dim_y <= dim_x:
        raise ConfigError(f"bad generate section: need 1 <= dim_y <= dim_x, "
                          f"got dim_y = {dim_y}, dim_x = {dim_x}")
    if dim_y * dim_x ** 2 > MAX_TENSOR_ENTRIES:
        raise ConfigError(f"bad generate section: dim_y * dim_x^2 = {dim_y * dim_x ** 2} "
                          f"tensor entries exceed the limit {MAX_TENSOR_ENTRIES}")
    try:
        return random_quadratic(dim_x=dim_x, dim_y=dim_y, target_margin=margin, seed=seed)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad generate section: {err}") from err


def _build_kantorovich(section: dict, norms) -> ProblemInstance:
    W, d, x0, lip, radius = _fields(section, "kantorovich")
    if norms[0] != norms[1]:
        raise ConfigError("the fixed-point reduction needs matching X and Y norms")
    f = AffineMap(W, d, domain_center=x0, domain_radius=radius)
    try:
        return build_kantorovich_instance(
            f, ScalarFn.linear(lip), x0, norm_tag=norms[0])
    except ValueError as err:
        raise ConfigError(f"invalid kantorovich problem: {err}") from err


def _build_custom_scalar(section: dict, norms) -> ProblemInstance:
    phi_poly, majorant_poly, psi_slope, x0, tau0, horizon = _fields(section, "custom_scalar")
    if psi_slope <= 0:
        raise ConfigError("psi_slope must be positive")
    try:
        return build_polynomial_instance(phi_poly, majorant_poly, psi_slope, horizon,
                                         x0=x0, tau0=tau0, norms=norms)
    except ValueError as err:
        raise ConfigError(f"invalid majorant pair: {err}") from err


def build_problem(cfg: ProblemConfig) -> BuiltProblem:
    """Turn a parsed config into a runnable instance (raises ConfigError,
    NegativeDiscriminant)."""
    if cfg.kind == "quadratic":
        q = (_build_explicit_quadratic(cfg.body, cfg.norms) if cfg.section == "quadratic"
             else _build_generated_quadratic(cfg.body))
        try:
            inst = q.instance
        except ValueError as err:  # e.g. a scan window b/a that overflows
            raise ConfigError(f"invalid quadratic problem: {err}") from err
        return BuiltProblem(instance=inst, quadratic=q, config=cfg)
    build = _build_kantorovich if cfg.kind == "kantorovich" else _build_custom_scalar
    return BuiltProblem(instance=build(cfg.body, cfg.norms), config=cfg)


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
