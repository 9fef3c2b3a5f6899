"""Run-configuration handling: flat key-value files and their JSON twins."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .circuit import CircuitParams
from .errors import ConfigError, ValidationError
from .model import BoundaryCondition, ModelParams

MODEL_KEYS = {"t0", "tL", "tR", "dL", "dR"}
CIRCUIT_KEYS = {"C0_nF", "C1_nF", "C2_nF", "L0_uH", "L1_uH", "R0_ohm", "omega_rad_s"}

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
    kpoints: int = 1024
    chain_N: int | None = None
    boundary: BoundaryCondition = BoundaryCondition.PBC
    t_min: float = 0.0
    t_max: float = 4.0
    resolution: int = 50
    seed: int | None = None
    noise_sigma: float | None = None
    window_fraction: float = 0.2
    loc_threshold: float = 0.5
    ep_tol: float = 1e-3
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


def _setting(key: str, kind: type, value):
    """``value`` of setting ``key`` as ``kind``: ``true``/``false`` only for boolean
    settings, and only integral numbers for integer settings (``100.0`` is 100)."""
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
    unknown = sorted(set(raw) - MODEL_KEYS - CIRCUIT_KEYS - set(SETTINGS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    model_present = MODEL_KEYS & set(raw)
    circuit_present = CIRCUIT_KEYS & set(raw)
    if model_present and circuit_present:
        raise ConfigError(
            "config mixes model keys "
            f"({', '.join(sorted(model_present))}) with circuit keys "
            f"({', '.join(sorted(circuit_present))}); provide exactly one block"
        )
    if not model_present and not circuit_present:
        raise ConfigError("config must contain a model block (t0, tL, tR, dL, dR) "
                          "or a circuit block (C0_nF, C1_nF, C2_nF, L0_uH, L1_uH, R0_ohm)")

    cfg = RunConfig()
    try:
        if model_present:
            missing = sorted(MODEL_KEYS - set(raw))
            if missing:
                raise ConfigError(f"incomplete model block, missing key(s): {', '.join(missing)}")
            cfg.model = ModelParams.from_dict(raw)
        else:
            missing = sorted((CIRCUIT_KEYS - {"omega_rad_s"}) - set(raw))
            if missing:
                raise ConfigError(f"incomplete circuit block, missing key(s): {', '.join(missing)}")
            cfg.circuit = CircuitParams.from_dict(raw)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc

    for key, kind in SETTINGS.items():
        if key in raw:
            setattr(cfg, key, _setting(key, kind, raw[key]))
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
