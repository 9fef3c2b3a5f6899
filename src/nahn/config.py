"""Run-configuration handling: flat key-value files and their JSON twins."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .circuit import CircuitParams
from .errors import ConfigError, ValidationError
from .model import BoundaryCondition, GaugeVector, ModelParams
from .skin import DEFAULT_THRESHOLD, DEFAULT_WINDOW_FRACTION
from .topology import DEFAULT_KPOINTS, EP_TOL

#: Keys of the model block and the circuit block, with the type each value
#: must have; a ``GaugeVector`` key takes a list of three numbers, and
#: ``omega_rad_s`` may be null for the resonance frequency.
MODEL_KEYS = {"t0": float, "tL": float, "tR": float, "dL": GaugeVector, "dR": GaugeVector}
CIRCUIT_KEYS = {
    "C0_nF": float,
    "C1_nF": float,
    "C2_nF": float,
    "L0_uH": float,
    "L1_uH": float,
    "R0_ohm": float,
    "omega_rad_s": float | None,
}

#: Run settings either block may carry, with the type each value must have.
SETTINGS = {
    "kpoints": int,
    "chain_N": int,
    "boundary": BoundaryCondition,
    "t_min": float,
    "t_max": float,
    "resolution": int,
    "seed": int,
    "noise_sigma": float,
    "window_fraction": float,
    "loc_threshold": float,
    "ep_tol": float,
    "zero_r0": bool,
    "threads": int,
}


@dataclass
class RunConfig:
    """Validated parameters of one CLI run.

    Exactly one of ``model`` / ``circuit`` is set; the other fields are
    the ``SETTINGS``.
    """

    model: ModelParams | None = None
    circuit: CircuitParams | None = None
    kpoints: int = DEFAULT_KPOINTS
    chain_N: int | None = None
    boundary: BoundaryCondition = BoundaryCondition.PBC
    t_min: float = 0.0
    t_max: float = 4.0
    resolution: int = 50
    seed: int | None = None
    noise_sigma: float | None = None
    window_fraction: float = DEFAULT_WINDOW_FRACTION
    loc_threshold: float = DEFAULT_THRESHOLD
    ep_tol: float = EP_TOL
    zero_r0: bool = False
    threads: int | None = None


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_kv_text(text: str) -> dict:
    """Parse ``key = value`` lines; values use JSON literals where possible."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _parse_scalar(value)
    return out


def _setting(key: str, kind, value):
    """``value`` of config key ``key`` as ``kind``: ``true``/``false`` only for boolean
    keys, only integral numbers for integer keys (``100.0`` is 100), a list of
    three floats for a ``GaugeVector`` key, and ``None`` only where ``kind`` allows it."""
    if kind == float | None:
        return None if value is None else _setting(key, float, value)
    if kind is GaugeVector:
        if not isinstance(value, list) or len(value) != 3:
            raise ConfigError(f"key {key!r}: expected a list of three numbers, got {value!r}")
        return [_setting(key, float, v) for v in value]
    if kind is BoundaryCondition:
        name = str(value).upper()
        if name not in ("PBC", "OBC"):
            raise ConfigError(f"key {key!r}: expected PBC or OBC, got {value!r}")
        return BoundaryCondition[name]
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) != (kind is bool) or fractional:
        raise ConfigError(f"key {key!r}: expected {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key {key!r}: cannot interpret {value!r} as {kind.__name__}") from exc


def _coerce(raw: dict) -> RunConfig:
    kinds = {**MODEL_KEYS, **CIRCUIT_KEYS, **SETTINGS}
    unknown = sorted(raw.keys() - kinds.keys())
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    model_present = MODEL_KEYS.keys() & raw.keys()
    circuit_present = CIRCUIT_KEYS.keys() & raw.keys()
    if model_present and circuit_present:
        raise ConfigError(
            "config mixes model keys "
            f"({', '.join(sorted(model_present))}) with circuit keys "
            f"({', '.join(sorted(circuit_present))}); provide exactly one block"
        )
    if not model_present and not circuit_present:
        raise ConfigError("config must contain a model block (t0, tL, tR, dL, dR) "
                          "or a circuit block (C0_nF, C1_nF, C2_nF, L0_uH, L1_uH, R0_ohm)")

    values = {key: _setting(key, kinds[key], value) for key, value in raw.items()}
    cfg = RunConfig()
    try:
        if model_present:
            missing = sorted(MODEL_KEYS.keys() - raw.keys())
            if missing:
                raise ConfigError(f"incomplete model block, missing key(s): {', '.join(missing)}")
            cfg.model = ModelParams.from_dict(values)
        else:
            missing = sorted(CIRCUIT_KEYS.keys() - {"omega_rad_s"} - raw.keys())
            if missing:
                raise ConfigError(f"incomplete circuit block, missing key(s): {', '.join(missing)}")
            cfg.circuit = CircuitParams.from_dict(values)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc

    for key in SETTINGS.keys() & values.keys():
        setattr(cfg, key, values[key])
    return cfg


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Read a config file; `.json` files hold the same keys as a JSON object.

    ``overrides`` (command-line values) replace the file's values for the
    same keys and pass the same checks.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if path.suffix == ".json":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top-level JSON value must be an object")
    else:
        raw = parse_kv_text(text)
    return _coerce({**raw, **(overrides or {})})


def config_hash(effective: dict) -> str:
    """Stable digest of the fully resolved run parameters."""
    canonical = json.dumps(effective, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()
