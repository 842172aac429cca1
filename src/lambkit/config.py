"""Toolkit configuration: schema-validated JSON with packaged defaults.

A user config file may specify any subset of sections; missing keys fall
back to the packaged defaults (deep merge, then schema validation).  Unknown
keys are rejected so typos surface as ConfigError rather than silently
ignored settings.  The validator is in-repo: it checks the JSON Schema
keywords CONFIG_SCHEMA uses, with jsonschema's messages; unlike JSON Schema,
a number must pass the finite-number rule of ``lambkit.errors``.

A field's type and bounds are the JSON Schema fragment in its dataclass
``field(metadata=...)``, from which CONFIG_SCHEMA is built; adding a field
takes that one field plus its value in ``data/default_config.json``.
"""

from __future__ import annotations

import json
import operator
from dataclasses import astuple, dataclass, field, fields
from importlib import resources

from . import MODE_NAMES
from .dispersion import PlateMaterial, PlateSpec
from .errors import ConfigError, InputError, is_json_number, read_json, shown

__all__ = [
    "ToolkitConfig",
    "MatchingConfig",
    "LayerMap",
    "ChipConfig",
    "WaferConfig",
    "ReticleConfig",
    "VariationConfig",
    "load_config",
    "default_config_dict",
    "load_catalog",
]


def _object(properties: dict) -> dict:
    return {"type": "object", "additionalProperties": False, "properties": properties}


def _array(items: dict, n: int) -> dict:
    return {"type": "array", "items": items, "minItems": n, "maxItems": n}


def _section(cls) -> dict:
    """The schema of a section: its dataclass fields and their fragments."""
    return _object({f.name: dict(f.metadata) for f in fields(cls)})


_NONNEG = {"type": "number", "minimum": 0}
_POS = {"type": "number", "exclusiveMinimum": 0}
_LAYER_ID = {"type": "integer", "minimum": 0, "maximum": 255}


@dataclass(frozen=True)
class LayerMap:
    """GDS layer id of each mask layer.  These fields are the only list of the
    layer names: the schema reads them, and their order is the order of the
    reticle windows."""

    small_idt: int = field(metadata=_LAYER_ID)
    large_idt: int = field(metadata=_LAYER_ID)
    pads: int = field(metadata=_LAYER_ID)
    bottom_electrode: int = field(metadata=_LAYER_ID)
    outline: int = field(metadata=_LAYER_ID)

    def __post_init__(self):
        ids = astuple(self)
        if len(set(ids)) != len(ids):
            raise ConfigError("layer ids must be distinct")


@dataclass(frozen=True)
class MatchingConfig:
    target_impedance_ohm: float = field(metadata=_POS)
    max_fingers: int = field(metadata={"type": "integer", "minimum": 2})
    dummy_count_per_side: int = field(metadata={"type": "integer", "minimum": 0})


@dataclass(frozen=True)
class ChipConfig:
    width_m: float = field(metadata=_POS)
    height_m: float = field(metadata=_POS)
    margin_m: float = field(metadata=_NONNEG)
    spacing_m: float = field(metadata=_NONNEG)


@dataclass(frozen=True)
class WaferConfig:
    diameter_m: float = field(metadata=_POS)
    edge_exclusion_m: float = field(metadata=_NONNEG)
    # (x_min, y_min, x_max, y_max), wafer-centered
    keepout_m: tuple = field(metadata=_array({"type": "number"}, 4))
    # (x, y) of one chip's lower-left corner
    grid_anchor_m: tuple = field(metadata=_array({"type": "number"}, 2))

    def __post_init__(self):
        x0, y0, x1, y1 = self.keepout_m
        if not (x0 <= x1 and y0 <= y1):
            raise ConfigError("keepout rectangle has inverted bounds")
        if self.edge_exclusion_m >= self.diameter_m / 2:
            raise ConfigError("edge exclusion consumes the whole wafer")

    @property
    def radius_m(self) -> float:
        return self.diameter_m / 2.0


@dataclass(frozen=True)
class ReticleConfig:
    image_field_m: tuple = field(metadata=_array(_POS, 2))
    demag: int = field(metadata={"type": "integer", "minimum": 1})


_MODE_QUALITY = _object({
    "q_r": _POS,
    "k_eff_sq": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
})


@dataclass(frozen=True)
class VariationConfig:
    thickness_center_m: float = field(metadata=_POS)
    thickness_edge_drop_m: float = field(metadata={"type": "number"})
    thickness_noise_sigma_m: float = field(metadata=_NONNEG)
    pitch_sigma_m: float = field(metadata=_NONNEG)
    full_resolve: bool = field(metadata={"type": "boolean"})
    # mode -> {"q_r": float, "k_eff_sq": float}
    mode_quality: dict = field(metadata=_object({m: _MODE_QUALITY for m in MODE_NAMES}))

    def __post_init__(self):
        if not self.thickness_center_m - self.thickness_edge_drop_m > 0.0:
            raise ConfigError("thickness profile goes non-positive at the wafer edge")


# material, plate, capacitance and seed map onto PlateMaterial, PlateSpec,
# eps_r and seed under other names, so their schema is written here.
CONFIG_SCHEMA = _object({
    "material": _object({
        "name": {"type": "string"},
        "rho_kg_m3": _POS,
        "v_l_m_s": _POS,
        "v_t_m_s": _POS,
    }),
    "plate": _object({"thickness_m": _POS}),
    "capacitance": _object({"eps_r": {"type": "number", "exclusiveMinimum": 1}}),
    "matching": _section(MatchingConfig),
    "layers": _section(LayerMap),
    "chip": _section(ChipConfig),
    "wafer": _section(WaferConfig),
    "reticle": _section(ReticleConfig),
    "variation": _section(VariationConfig),
    "seed": {"type": "integer", "minimum": 0},
})


@dataclass(frozen=True)
class ToolkitConfig:
    material: PlateMaterial
    plate: PlateSpec
    eps_r: float
    matching: MatchingConfig
    layers: LayerMap
    chip: ChipConfig
    wafer: WaferConfig
    reticle: ReticleConfig
    variation: VariationConfig
    seed: int

    @classmethod
    def default(cls) -> "ToolkitConfig":
        return cls.from_dict(default_config_dict())

    @classmethod
    def from_dict(cls, raw: dict) -> "ToolkitConfig":
        merged = _deep_merge(default_config_dict(), raw)
        errors = list(_schema_errors(CONFIG_SCHEMA, merged))
        if errors:
            # jsonschema's best_match: the shallowest path, the greatest of
            # equally deep paths, and the first failing keyword at that path
            path, message = max(errors, key=lambda e: (-len(e[0]), e[0]))
            where = "/".join(map(str, path)) or "<root>"
            raise ConfigError(f"config invalid at {where}: {message}")
        doc = _typed(CONFIG_SCHEMA, merged)
        mat = doc["material"]
        try:
            material = PlateMaterial(
                rho=mat["rho_kg_m3"], v_l=mat["v_l_m_s"], v_t=mat["v_t_m_s"], name=mat["name"])
        except InputError as exc:  # v_t not below v_l: a check across two fields
            raise ConfigError(str(exc)) from None
        return cls(
            material=material,
            plate=PlateSpec(material=material, h=doc["plate"]["thickness_m"]),
            eps_r=doc["capacitance"]["eps_r"],
            matching=MatchingConfig(**doc["matching"]),
            layers=LayerMap(**doc["layers"]),
            chip=ChipConfig(**doc["chip"]),
            wafer=WaferConfig(**doc["wafer"]),
            reticle=ReticleConfig(**doc["reticle"]),
            variation=VariationConfig(**doc["variation"]),
            seed=doc["seed"],
        )


_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": is_json_number,
    "integer": lambda v: is_json_number(v) and v == int(v),
}

_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum"),
}


def _schema_errors(schema: dict, value, path: tuple = ()):
    """Yield (path, message) for each keyword of schema that value fails.

    Covers the keywords CONFIG_SCHEMA uses, in keyword order, with
    jsonschema's messages; number and integer exclude NaN and the infinities.
    """
    for key, arg in schema.items():
        if key == "type":
            if not _IS_TYPE[arg](value):
                yield path, f"{shown(value)} is not of type {arg!r}"
        elif key == "additionalProperties" and isinstance(value, dict):
            extra = sorted(set(value) - set(schema["properties"]))
            if extra:
                names = ", ".join(map(repr, extra))
                verb = "was" if len(extra) == 1 else "were"
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "properties" and isinstance(value, dict):
            for name, sub in arg.items():
                if name in value:
                    yield from _schema_errors(sub, value[name], path + (name,))
        elif key == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _schema_errors(arg, item, path + (i,))
        elif key == "minItems" and isinstance(value, list) and len(value) < arg:
            yield path, f"{shown(value)} is too short"
        elif key == "maxItems" and isinstance(value, list) and len(value) > arg:
            yield path, f"{shown(value)} is too long"
        elif key in _BOUNDS and is_json_number(value) and _BOUNDS[key][0](value, arg):
            yield path, f"{shown(value)} is {_BOUNDS[key][1]} of {arg!r}"


def _typed(schema: dict, value):
    """A valid document with its arrays as tuples and its integers as int
    (JSON Schema counts 7.0 as an integer)."""
    if schema["type"] == "object":
        return {k: _typed(schema["properties"][k], v) for k, v in value.items()}
    if schema["type"] == "array":
        return tuple(_typed(schema["items"], v) for v in value)
    return int(value) if schema["type"] == "integer" else value


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


def _read_packaged(name: str) -> dict:
    with resources.files("lambkit.data").joinpath(name).open("r") as fh:
        return json.load(fh)


def default_config_dict() -> dict:
    return _read_packaged("default_config.json")


def load_config(path=None) -> ToolkitConfig:
    """Load a config file (or the packaged defaults when path is None)."""
    if path is None:
        return ToolkitConfig.default()
    raw = read_json(path, "config", ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return ToolkitConfig.from_dict(raw)


def load_catalog(path=None) -> dict:
    """Design catalog: pitch sweep plus as-fabricated reference counts."""
    raw = (_read_packaged("design_catalog.json") if path is None
           else read_json(path, "catalog", ConfigError))
    pitches = raw.get("pitches_m") if isinstance(raw, dict) else None
    if not isinstance(pitches, list) or not pitches:
        raise ConfigError("catalog pitches_m must be a non-empty list of positive numbers")
    for i, p in enumerate(pitches):
        if not (is_json_number(p) and p > 0):
            raise ConfigError(f"catalog pitches_m[{i}] must be a positive finite number, got {shown(p)}")
    for i in range(1, len(pitches)):
        if not pitches[i] > pitches[i - 1]:
            raise ConfigError(f"catalog pitches_m must be strictly ascending, but "
                              f"pitches_m[{i}] = {shown(pitches[i])} follows {shown(pitches[i - 1])}")
    return raw
