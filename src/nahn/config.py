"""Run-configuration handling: flat key-value files and their JSON twins."""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass
from pathlib import Path

from .circuit import COMPONENT_KEYS, CircuitParams
from .errors import ValidationError
from .model import BoundaryCondition, GaugeVector, ModelParams
from .skin import DEFAULT_THRESHOLD, DEFAULT_WINDOW_FRACTION
from .topology import DEFAULT_KPOINTS, EP_TOL

# CPython's built-in SHA-256, not hashlib's OpenSSL one (see config_hash)
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10, 3.11
    except ImportError:  # built without it, e.g. --with-builtin-hashlib-hashes=blake2
        from hashlib import sha256 as _sha256


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


def _field_kinds(cls) -> dict:
    """Each field of dataclass ``cls`` with its type, ``None`` dropped: there it only means "not given"."""
    hints = typing.get_type_hints(cls)
    return {name: next((a for a in typing.get_args(kind) if a is not type(None)), kind) for name, kind in hints.items()}


#: Keys of the model block and the circuit block, with the type each value
#: must have; a ``GaugeVector`` key takes a list of three numbers, and
#: ``omega_rad_s`` may be null for the resonance frequency.
MODEL_KEYS = _field_kinds(ModelParams)
CIRCUIT_KEYS = {**dict.fromkeys(COMPONENT_KEYS.values(), float), "omega_rad_s": float | None}

#: Run settings either block may carry, with the type each value must have.
SETTINGS = {key: kind for key, kind in _field_kinds(RunConfig).items() if key not in ("model", "circuit")}


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
            raise ValidationError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValidationError(f"line {lineno}: empty key")
        if key in out:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _parse_scalar(value)
    return out


def _setting(key: str, kind, value):
    """``value`` of config key ``key`` as ``kind``: ``true``/``false`` only for boolean
    keys, only integral numbers for integer keys (``100.0`` is 100), never text
    for a number, a list of three floats for a ``GaugeVector`` key, and ``None``
    only where ``kind`` allows it."""
    if kind == float | None:
        return None if value is None else _setting(key, float, value)
    if kind is GaugeVector:
        if not isinstance(value, list) or len(value) != 3:
            raise ValidationError(f"key {key!r}: expected a list of three numbers, got {value!r}")
        return [_setting(key, float, v) for v in value]
    if kind is BoundaryCondition:
        name = str(value).upper()
        if name not in ("PBC", "OBC"):
            raise ValidationError(f"key {key!r}: expected PBC or OBC, got {value!r}")
        return BoundaryCondition[name]
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) != (kind is bool) or isinstance(value, str) or fractional:
        raise ValidationError(f"key {key!r}: expected {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"key {key!r}: cannot interpret {value!r} as {kind.__name__}") from exc


def _coerce(raw: dict) -> RunConfig:
    kinds = {**MODEL_KEYS, **CIRCUIT_KEYS, **SETTINGS}
    unknown = sorted(raw.keys() - kinds.keys())
    if unknown:
        raise ValidationError(f"unknown config key(s): {', '.join(unknown)}")

    model_present = MODEL_KEYS.keys() & raw.keys()
    circuit_present = CIRCUIT_KEYS.keys() & raw.keys()
    if model_present and circuit_present:
        raise ValidationError(
            "config mixes model keys "
            f"({', '.join(sorted(model_present))}) with circuit keys "
            f"({', '.join(sorted(circuit_present))}); provide exactly one block"
        )
    if not model_present and not circuit_present:
        raise ValidationError(f"config must contain a model block ({', '.join(MODEL_KEYS)}) "
                              f"or a circuit block ({', '.join(COMPONENT_KEYS.values())})")

    values = {key: _setting(key, kinds[key], value) for key, value in raw.items()}
    cfg = RunConfig()
    if model_present:
        missing = sorted(MODEL_KEYS.keys() - raw.keys())
        if missing:
            raise ValidationError(f"incomplete model block, missing key(s): {', '.join(missing)}")
        cfg.model = ModelParams.from_dict(values)
    else:
        missing = sorted(set(COMPONENT_KEYS.values()) - raw.keys())
        if missing:
            raise ValidationError(f"incomplete circuit block, missing key(s): {', '.join(missing)}")
        cfg.circuit = CircuitParams.from_dict(values)

    for key in SETTINGS.keys() & values.keys():
        setattr(cfg, key, values[key])
    return cfg


def _unique_keys(pairs: list) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict; a repeated key is an error."""
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ValidationError(f"duplicate key(s): {', '.join(repeated)}")
    return dict(pairs)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Read a config file; `.json` files hold the same keys as a JSON object.

    ``overrides`` (command-line values) replace the file's values for the
    same keys and pass the same checks.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    if path.suffix == ".json":
        try:
            raw = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: top-level JSON value must be an object")
    else:
        raw = parse_kv_text(text)
    return _coerce({**raw, **(overrides or {})})


def config_hash(effective: dict) -> str:
    """Stable digest of the fully resolved run parameters: the SHA-256 hex of their canonical JSON.

    The digest comes from CPython's built-in SHA-256 (``_sha2``, or ``_sha256``
    before 3.12), the same bytes as ``hashlib.sha256``; ``import hashlib``
    would load OpenSSL, about 3.5 MB of a sweep process's resident memory,
    for one short digest. Only an interpreter built without that module
    falls back to ``hashlib``.
    """
    canonical = json.dumps(effective, sort_keys=True, separators=(",", ":"), default=str)
    return _sha256(canonical.encode()).hexdigest()
