"""Experiment configuration: JSON schema, loading, and validation.

A config selects a domain (builder shorthand or explicit scatterer list),
initial conditions (one explicit phase point plus covector, or a seeded
sampler), a horizon, tolerances, and the checks to run.  Validation errors
carry a JSON-path-style location; JSON syntax errors keep their line/column.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BilliardError, ConfigError
from .geometry import (
    Box,
    Cylinder,
    Domain,
    Halfspace,
    Sphere,
    Torus,
    build_hardball_gas,
    build_sinai,
    reduce_pair_to_sinai,
)
from .tolerances import (
    DEFAULT_INTERIOR_SAMPLES,
    DEFAULT_TOL_CHECK,
    EPS_GRAZE,
    MAX_EVENTS_DEFAULT,
)

VALID_CHECKS = ("monotonicity", "growth", "adjoint")


@dataclass(eq=False)
class SamplerSpec:
    count: int
    seed: int
    c0: float | None = None


@dataclass(eq=False)
class ExplicitSpec:
    q: np.ndarray
    v: np.ndarray
    z: np.ndarray
    w: np.ndarray


@dataclass(eq=False)
class ExperimentConfig:
    domain: Domain
    domain_spec: dict
    horizon: float
    sampler: SamplerSpec | None = None
    explicit: ExplicitSpec | None = None
    checks: tuple[str, ...] = ("monotonicity",)
    tol_check: float = DEFAULT_TOL_CHECK
    eps_graze: float = EPS_GRAZE
    grid_interior: int = DEFAULT_INTERIOR_SAMPLES
    max_events: int = MAX_EVENTS_DEFAULT
    out_dir: str | None = None
    c0: float | None = None           # bound used by the growth check


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _is_number(x) -> bool:
    """A finite JSON number; ``true``/``false`` are not numbers."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_keys(obj, path: str, allowed: tuple[str, ...]):
    """An object whose keys all lie in ``allowed``; a misspelt field must not pass."""
    _expect(isinstance(obj, dict), path, "must be an object")
    for key in obj:
        _expect(key in allowed, f"{path}.{key}",
                f"unknown field (expected one of {', '.join(allowed)})")


def _get(obj: dict, key: str, path: str, kind, required: bool = True, default=None):
    if key not in obj:
        _expect(not required, f"{path}.{key}", "missing required field")
        return default
    val = obj[key]
    if kind is float:
        _expect(_is_number(val), f"{path}.{key}", "must be a finite number")
        return float(val)
    if kind is int:
        _expect(isinstance(val, int) and not isinstance(val, bool),
                f"{path}.{key}", "must be an integer")
        return val
    _expect(isinstance(val, kind), f"{path}.{key}", f"must be of type {kind.__name__}")
    return val


def _vector(obj, path: str, d: int | None = None) -> np.ndarray:
    _expect(isinstance(obj, list) and all(_is_number(x) for x in obj),
            path, "must be a list of finite numbers")
    v = np.asarray(obj, dtype=float)
    if d is not None:
        _expect(v.shape[0] == d, path, f"must have {d} components, got {v.shape[0]}")
    return v


def domain_from_spec(spec: dict, path: str = "domain") -> Domain:
    """Build a domain from its JSON description.

    Kinds: ``sinai`` (d, r, L, centers), ``hardball_gas`` (N, d, r, L),
    ``pair_reduced`` (d, r, L), or ``custom`` (d, ambient, scatterers).
    """
    _expect(isinstance(spec, dict), path, "must be an object")
    kind = _get(spec, "kind", path, str)
    try:
        if kind == "sinai":
            _check_keys(spec, path, ("kind", "d", "r", "L", "centers"))
            d = _get(spec, "d", path, int)
            centers = _get(spec, "centers", path, list)
            return build_sinai(d, _get(spec, "r", path, float), _get(spec, "L", path, float),
                               [_vector(c, f"{path}.centers[{i}]", d) for i, c in enumerate(centers)])
        if kind == "hardball_gas":
            _check_keys(spec, path, ("kind", "N", "d", "r", "L"))
            return build_hardball_gas(_get(spec, "N", path, int), _get(spec, "d", path, int),
                                      _get(spec, "r", path, float), _get(spec, "L", path, float))
        if kind == "pair_reduced":
            _check_keys(spec, path, ("kind", "d", "r", "L"))
            return reduce_pair_to_sinai(_get(spec, "d", path, int), _get(spec, "r", path, float),
                                        _get(spec, "L", path, float))
        if kind == "custom":
            _check_keys(spec, path, ("kind", "d", "ambient", "scatterers", "labels"))
            return _custom_domain(spec, path)
    except BilliardError as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(f"{path}: {e}") from e
    raise ConfigError(f"{path}.kind: unknown domain kind {kind!r}")


def _custom_domain(spec: dict, path: str) -> Domain:
    d = _get(spec, "d", path, int)
    amb = _get(spec, "ambient", path, dict)
    amb_type = _get(amb, "type", f"{path}.ambient", str)
    if amb_type == "torus":
        _check_keys(amb, f"{path}.ambient", ("type", "side"))
        ambient = Torus(_get(amb, "side", f"{path}.ambient", float))
    elif amb_type == "box":
        _check_keys(amb, f"{path}.ambient", ("type", "sides"))
        sides = _get(amb, "sides", f"{path}.ambient", list)
        ambient = Box(tuple(float(s) for s in _vector(sides, f"{path}.ambient.sides")))
    else:
        raise ConfigError(f"{path}.ambient.type: unknown ambient {amb_type!r}")
    raw = _get(spec, "scatterers", path, list)
    scatterers = []
    for i, s in enumerate(raw):
        sp = f"{path}.scatterers[{i}]"
        _expect(isinstance(s, dict), sp, "must be an object")
        skind = _get(s, "kind", sp, str)
        if skind == "sphere":
            _check_keys(s, sp, ("kind", "center", "radius"))
            scatterers.append(Sphere(_vector(s.get("center"), f"{sp}.center", d),
                                     _get(s, "radius", sp, float)))
        elif skind == "cylinder":
            _check_keys(s, sp, ("kind", "axis_point", "axis_directions", "radius"))
            dirs = _get(s, "axis_directions", sp, list)
            axis = np.array([_vector(a, f"{sp}.axis_directions[{k}]", d)
                             for k, a in enumerate(dirs)])
            scatterers.append(Cylinder(_vector(s.get("axis_point"), f"{sp}.axis_point", d),
                                       axis, _get(s, "radius", sp, float)))
        elif skind == "halfspace":
            _check_keys(s, sp, ("kind", "plane_point", "plane_normal"))
            scatterers.append(Halfspace(_vector(s.get("plane_point"), f"{sp}.plane_point", d),
                                        _vector(s.get("plane_normal"), f"{sp}.plane_normal", d)))
        else:
            raise ConfigError(f"{sp}.kind: unknown scatterer kind {skind!r}")
    labels = spec.get("labels")
    _expect(labels is None or isinstance(labels, list) and all(isinstance(x, str) for x in labels),
            f"{path}.labels", "must be a list of strings")
    return Domain(d, ambient, scatterers, labels=labels)


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment config; raises :class:`ConfigError`."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config: {e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    _check_keys(raw, "config", ("domain", "initial", "horizon", "checks", "tolerances",
                                "c0", "grid_interior", "max_events", "output"))
    domain_spec = _get(raw, "domain", "config", dict)
    domain = domain_from_spec(domain_spec)

    horizon = _get(raw, "horizon", "config", float)
    _expect(horizon > 0.0, "config.horizon", "must be positive")

    initial = _get(raw, "initial", "config", dict)
    has_explicit = "q" in initial
    has_sampler = "sampler" in initial
    _expect(has_explicit != has_sampler, "config.initial",
            "exactly one of an explicit phase point or a sampler is required")

    _check_keys(initial, "config.initial", ("sampler",) if has_sampler else ("q", "v", "covector"))
    sampler = explicit = None
    if has_sampler:
        s = _get(initial, "sampler", "config.initial", dict)
        _check_keys(s, "config.initial.sampler", ("count", "seed", "c0"))
        count = _get(s, "count", "config.initial.sampler", int)
        _expect(count >= 1, "config.initial.sampler.count", "must be at least 1")
        seed = _get(s, "seed", "config.initial.sampler", int)
        _expect(seed >= 0, "config.initial.sampler.seed", "must be at least 0")
        c0 = _get(s, "c0", "config.initial.sampler", float, required=False)
        if c0 is not None:
            _expect(0.0 < c0 <= 0.5, "config.initial.sampler.c0", "must lie in (0, 1/2]")
        sampler = SamplerSpec(count, seed, c0)
    else:
        covector = _get(initial, "covector", "config.initial", dict)
        _check_keys(covector, "config.initial.covector", ("z", "w"))
        d = domain.d
        explicit = ExplicitSpec(
            q=_vector(initial.get("q"), "config.initial.q", d),
            v=_vector(initial.get("v"), "config.initial.v", d),
            z=_vector(covector.get("z"), "config.initial.covector.z", d),
            w=_vector(covector.get("w"), "config.initial.covector.w", d),
        )

    checks = raw.get("checks")
    if checks is None:
        checks = ["monotonicity"]
        if (sampler is not None and sampler.c0 is not None) or "c0" in raw:
            checks.append("growth")
    _expect(isinstance(checks, list) and all(c in VALID_CHECKS for c in checks),
            "config.checks", f"must be a list drawn from {VALID_CHECKS}")

    tolerances = raw.get("tolerances", {})
    _check_keys(tolerances, "config.tolerances", ("tol_check", "eps_graze"))
    tol_check = _get(tolerances, "tol_check", "config.tolerances", float,
                     required=False, default=DEFAULT_TOL_CHECK)
    _expect(tol_check >= 0.0, "config.tolerances.tol_check", "must be at least 0")
    eps_graze = _get(tolerances, "eps_graze", "config.tolerances", float,
                     required=False, default=EPS_GRAZE)
    _expect(0.0 < eps_graze < 1.0, "config.tolerances.eps_graze", "must lie in (0, 1)")

    c0 = _get(raw, "c0", "config", float, required=False)
    if c0 is not None:
        _expect(0.0 < c0 <= 0.5, "config.c0", "must lie in (0, 1/2]")
    elif sampler is not None:
        c0 = sampler.c0
    if "growth" in checks:
        _expect(c0 is not None, "config.checks",
                "growth check needs c0 (from the sampler or a top-level c0)")

    grid_interior = _get(raw, "grid_interior", "config", int, required=False,
                         default=DEFAULT_INTERIOR_SAMPLES)
    _expect(grid_interior >= 0, "config.grid_interior", "must be at least 0")
    max_events = _get(raw, "max_events", "config", int, required=False,
                      default=MAX_EVENTS_DEFAULT)
    _expect(max_events >= 1, "config.max_events", "must be at least 1")

    output = raw.get("output", {})
    _check_keys(output, "config.output", ("dir",))
    out_dir = _get(output, "dir", "config.output", str, required=False)

    return ExperimentConfig(
        domain=domain, domain_spec=domain_spec, horizon=horizon,
        sampler=sampler, explicit=explicit, checks=tuple(checks),
        tol_check=tol_check, eps_graze=eps_graze,
        grid_interior=grid_interior, max_events=max_events,
        out_dir=out_dir, c0=c0,
    )
