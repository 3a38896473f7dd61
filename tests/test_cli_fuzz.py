"""Random configs of every kind through `coincide solve`.

A config starts well formed for its kind, with random finite fields, and then
up to two of its fields (or one entry of an array field) are made
overflowing (a literal json cannot emit, written into the text), non-numeric,
missing, wrong-shaped or out of range, and one of its keys may be
misspelled. max_steps stays small so a run that does solve is short.
Whatever the config, the command exits 0, 1 or 2, lets no exception escape,
and prints exactly one stderr line when it exits 1 and none otherwise. A
misspelled key fails the config, and when it is the only fault, its line
names the key. Python warnings (the H2 sampling warning, numpy overflow)
are not stderr lines of the command and are not counted.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coincide.cli import main

MISSING = object()
_OVERFLOW_MARK = re.compile(r'"@overflow:([^"]*)@"')

overflow = st.sampled_from(["1e400", "-1e400", "1" + "0" * 400]).map(
    lambda literal: f"@overflow:{literal}@")
# No digits in the strings: int("999") would be a valid dimension or step cap.
junk = st.one_of(st.none(), st.booleans(), st.text(alphabet="ab x", max_size=3),
                 st.just([]), st.just({}), st.just([[[]]]), st.just({"x": 1.0}))
wild = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.integers(-10**6, 10**6), st.sampled_from([0.0, -0.0, 5e-324, 1e308]))
# Fields whose size sets the work: a generated tensor of dim_y * dim_x^2
# entries, or max_steps steps. Out of range here means a small bad value.
SIZES = {"dim_x": st.integers(-3, 5), "dim_y": st.integers(-3, 5),
         "max_steps": st.integers(-2, 20)}


def number(lo=-2.0, hi=2.0):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def grid(shape, elements=None):
    """A nested list of the given shape."""
    if not shape:
        return number() if elements is None else elements
    return st.lists(grid(shape[1:], elements), min_size=shape[0], max_size=shape[0])


@st.composite
def symmetric_tensor(draw, dim_y, dim_x):
    upper = draw(grid((dim_y, dim_x, dim_x)))
    return [[[s[min(i, j)][max(i, j)] for j in range(dim_x)] for i in range(dim_x)]
            for s in upper]


@st.composite
def section(draw, name):
    """A well formed section: the right keys, shapes and value types."""
    dim_x = draw(st.integers(1, 3))
    dim_y = draw(st.integers(1, dim_x))
    if name == "quadratic":
        out = {"tensor": draw(symmetric_tensor(dim_y, dim_x)),
               "matrix": draw(grid((dim_y, dim_x))), "offset": draw(grid((dim_y,)))}
        # Absent constants are certified by the problem itself.
        for key in draw(st.sets(st.sampled_from("abc"))):
            out[key] = draw(number(1e-3, 4.0))
        return out
    if name == "generate":
        return {"dim_x": dim_x, "dim_y": dim_y, "margin": draw(number(0.0, 1.0)),
                "seed": draw(st.integers(0, 2**32))}
    if name == "kantorovich":
        return {"linear": draw(grid((dim_x, dim_x), number(-0.5, 0.5))),
                "shift": draw(grid((dim_x,))), "x0": draw(grid((dim_x,))),
                "lipschitz": draw(number(0.0, 1.5)), "domain_radius": draw(number(0.1, 1e3))}
    # c0 + k tau^3 against psi = 2 tau, as in the benchmark's cubics, or any
    # short polynomial.
    poly = st.one_of(st.builds(lambda c0, k: [c0, 0.0, 0.0, k], number(0.0, 0.6),
                               number(0.5, 2.0)),
                     st.lists(number(), min_size=1, max_size=4))
    return {"phi_poly": draw(poly), "psi_slope": draw(st.one_of(st.just(2.0), number(0.1, 4.0))),
            "majorant_poly": draw(poly), "x0": draw(number()),
            "tau0": draw(number(-1.0, 1.0)), "horizon": draw(number(0.1, 2.0))}


@st.composite
def corrupted(draw, key, value):
    """value made overflowing, non-numeric, missing, wrong-shaped or wild."""
    options = [overflow, junk, SIZES.get(key, wild), st.just([value])]
    if key != "max_steps":  # missing means 100,000 steps: too slow here
        options.append(st.just(MISSING))
    if isinstance(value, list) and value:
        options.append(st.just(value[:-1]))
        i = draw(st.integers(0, len(value) - 1))
        # One entry corrupted the same ways; a missing entry is dropped.
        options.append(st.builds(
            lambda entry: value[:i] + [entry] * (entry is not MISSING) + value[i + 1:],
            corrupted(None, value[i])))
    return draw(st.one_of(options))


KINDS = (("quadratic", "quadratic"), ("quadratic", "generate"),
         ("kantorovich", "kantorovich"), ("custom-scalar", "custom_scalar"))


@st.composite
def configs(draw):
    kind, name = draw(st.sampled_from(KINDS))
    cfg = {"kind": kind, "method": draw(st.sampled_from(["majorant", "baseline", "compare"])),
           "residual_tol": draw(st.floats(min_value=1e-12, max_value=1e-2)),
           "max_steps": draw(st.integers(1, 20)), name: draw(section(name))}
    if draw(st.booleans()):
        cfg["norms"] = {"x": draw(st.sampled_from(["l2", "linf"])),
                        "y": draw(st.sampled_from(["l2", "linf"]))}
    slots = [(cfg, key) for key in cfg] + [(cfg[name], key) for key in cfg[name]]
    faults = 0
    for _ in range(draw(st.integers(0, 2))):
        owner, key = draw(st.sampled_from(slots))
        if key not in owner:
            continue
        faults += 1
        value = draw(corrupted(key, owner[key]))
        if value is MISSING:
            del owner[key]
        else:
            owner[key] = value
    typo = None
    if draw(st.integers(0, 3)) == 0:
        owner, key = draw(st.sampled_from(slots))
        if key in owner:
            # A letter added or dropped, which spells no other key.
            typo = draw(st.sampled_from([key + "s", key[:-1]]))
            owner[typo] = owner.pop(key)
    return cfg, typo, faults


def config_text(cfg) -> str:
    return _OVERFLOW_MARK.sub(lambda m: m.group(1), json.dumps(cfg))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(configs(), st.booleans())
def test_solve_exits_cleanly_on_any_config(drawn, strict_h2):
    cfg, typo, faults = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(config_text(cfg), encoding="utf-8")
        err = io.StringIO()
        args = ["solve", "--config", str(path), "--out", str(Path(tmp) / "out")]
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(args + ["--strict-h2"] * strict_h2)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert len(lines) == (1 if code == 1 else 0), lines
    if typo is not None:
        assert code == 1
        assert faults or f"unknown key {typo!r}" in lines[0], lines
