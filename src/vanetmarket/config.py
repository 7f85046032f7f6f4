"""Run configuration: one JSON-round-trippable bundle of every knob the CLI exposes."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Any, get_args, get_origin, get_type_hints

from .econ import EconParams
from .optimize import Bounds
from .privacy import DEFAULT_CALIBRATION_FREQS
from .trajectories import DEFAULT_BBOX, GridSpec

# Published operating point the optimizer output is compared against.
REFERENCE_OPTIMUM = (3.57e-6, 7.31, 15.12)


@dataclass
class RunConfig:
    """Paths, grid, model parameters, bounds, and seeds for one workbench run."""

    traces: str | None = None
    out_dir: str = "out"
    seed: int = 0
    synthetic: bool = False
    synthetic_vehicles: int = 200
    synthetic_duration: int = 120
    bbox: tuple[float, float, float, float] = DEFAULT_BBOX
    cell_size: float = 1000.0
    time_bin: float = 10.0
    count_mode: str = "vehicles"
    average_over: str = "ever_occupied"
    calibration_freqs: tuple[float, ...] = DEFAULT_CALIBRATION_FREQS
    surface_vehicle_counts: tuple[int, ...] = ()  # empty: derived from fleet size
    surface_freqs: tuple[float, ...] = (1.0, 0.5, 0.25, 1.0 / 6.0, 0.125, 0.1)
    econ: EconParams = field(default_factory=EconParams)
    bounds: Bounds = field(default_factory=Bounds)
    n_starts: int = 32
    grid_resolution: int = 41
    reference_point: tuple[float, float, float] = REFERENCE_OPTIMUM
    sweep_param: str = "c2"
    sweep_values: tuple[float, ...] = ()
    sim_s_values: tuple[int, ...] = (1, 2, 4, 8)
    sim_trials: int = 3
    n_compromised: int = 1
    keep_shares: bool = False

    def grid_spec(self) -> GridSpec:
        return GridSpec(bbox=self.bbox, cell_size=self.cell_size, time_bin=self.time_bin)

    def to_json_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "RunConfig":
        return _from_json(cls, data)

    def with_overrides(self, **kwargs: Any) -> "RunConfig":
        """New config with the given non-None fields replaced."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates) if updates else self

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# JSON value types accepted for scalar fields of these types.
_SCALAR_TYPES: dict[Any, tuple[type, ...]] = {
    float: (int, float),
    int: (int,),
    bool: (bool,),
    str: (str,),
    str | None: (str, type(None)),
}


def _check_scalar(key: str, hint: Any, value: Any) -> None:
    if hint in _SCALAR_TYPES and not isinstance(value, _SCALAR_TYPES[hint]):
        name = getattr(hint, "__name__", hint)
        raise ValueError(f"config {key} must be of type {name}, got {value!r}")


def _from_json(cls: type, data: Any, prefix: str = "") -> Any:
    """Build dataclass `cls` from its JSON form, recursing into dataclass-typed
    fields; tuple-typed fields take `tuple(value)` and missing keys their defaults.
    A value or tuple element of the wrong type, or a fixed-length tuple of the
    wrong length, is a ValueError naming its dotted key."""
    if not isinstance(data, dict):
        raise ValueError(f"config {prefix.rstrip('.') or 'file'} must be a JSON object")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown config keys: {[prefix + key for key in unknown]}")
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        hint = hints[key]
        if is_dataclass(hint):
            value = _from_json(hint, value, f"{prefix}{key}.")
        elif get_origin(hint) is tuple:
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"config {prefix}{key} must be a JSON array, got {value!r}")
            element_hints = get_args(hint)
            if element_hints[1:] == (Ellipsis,):
                element_hints = element_hints[:1] * len(value)
            if len(value) != len(element_hints):
                raise ValueError(
                    f"config {prefix}{key} must have {len(element_hints)} elements, got {len(value)}"
                )
            for i, (element_hint, element) in enumerate(zip(element_hints, value)):
                _check_scalar(f"{prefix}{key}[{i}]", element_hint, element)
            value = tuple(value)
        else:
            _check_scalar(prefix + key, hint, value)
        kwargs[key] = value
    return cls(**kwargs)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return RunConfig.from_json_dict(json.load(fh))
