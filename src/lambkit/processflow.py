"""Fabrication flow bookkeeping: stack simulation, compatibility rules, budgets.

A process flow is a flat list of steps (deposits, lithography, etches, strips,
release).  ``simulate_stack`` replays the flow against a 1-D layer stack and
records which materials a chemistry can reach at every step; the rule registry
in ``check_compatibility`` turns known failure modes (developer attack on Al,
wet HF on Ti, missing post-chlorine rinse, oxidizing ash, over-ash before a
wet strip) into structured violations.  No topography: patterned layers keep
their full thickness and simply stop blocking the layers below them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from importlib import resources

from .errors import (
    FlowError, InputError, MissingRateError, is_json_number, json_number, json_object, read_json,
    shown)

__all__ = [
    "STEP_KINDS",
    "ADDITIVE_KINDS",
    "RESIST_MATERIALS",
    "BARC_MATERIALS",
    "DEVELOPABLE_BARCS",
    "ORGANIC_MATERIALS",
    "RELEASE_MIN_PULSES",
    "RULE_REGISTRY",
    "GOLDEN_FLOW_NAMES",
    "DEFAULT_RATES",
    "classify_chemistry",
    "ProcessStep",
    "Layer",
    "StackState",
    "RateTable",
    "Violation",
    "FlowReport",
    "EtchBudgetReport",
    "simulate_stack",
    "check_compatibility",
    "check_flow",
    "etch_budget",
    "ashing_time",
    "steps_from_dict",
    "steps_to_dict",
    "load_flow",
    "packaged_flow",
]

STEP_KINDS = (
    "deposit",
    "spin_coat",
    "expose",
    "develop",
    "etch_dry",
    "etch_ibe",
    "etch_vapor",
    "etch_wet",
    "strip_ash",
    "strip_wet",
    "release",
)
ADDITIVE_KINDS = ("deposit", "spin_coat")
# Subtractive kinds must name a chemistry or carry an angle/time recipe.
_SUBTRACTIVE_KINDS = (
    "develop",
    "etch_dry",
    "etch_ibe",
    "etch_vapor",
    "etch_wet",
    "strip_ash",
    "strip_wet",
)
_ETCH_KINDS = ("etch_dry", "etch_ibe", "etch_vapor", "etch_wet")

RESIST_MATERIALS = frozenset({"M108Y", "M35G"})
BARC_MATERIALS = frozenset({"DS-K101", "DUV42-P"})
DEVELOPABLE_BARCS = frozenset({"DS-K101"})  # DUV42-P stays closed in developer
ORGANIC_MATERIALS = RESIST_MATERIALS | BARC_MATERIALS
# Remover 1165 lifts the photoresists; BARCs survive the bath.
_REMOVER_SOLUBLE = RESIST_MATERIALS

RELEASE_MIN_PULSES = 50

_NM = 1e-9
_SEC_PER_MIN = 60.0

# Chemistry classes, matched against free-text chemistry strings.  Order
# matters: fluorocarbon tokens are tested before the bare "hf" substring so
# "CHF3" does not read as hydrofluoric acid.
_FLUOROCARBON_TOKENS = ("c4f8", "cf4", "chf3", "sf6", "nf3")


def classify_chemistry(chemistry: str) -> str:
    """Map a free-text chemistry string to one of the rule-registry classes.

    Returns one of: developer, remover, rinse, xef2, fluorine, hf, chlorine,
    forming_gas, oxygen, other, or "" for an empty string.
    """
    s = chemistry.strip().lower()
    if not s:
        return ""
    if "xef" in s:
        return "xef2"
    if "1165" in s or "remover" in s:
        return "remover"
    if "tma" in s or "develop" in s:
        return "developer"
    if any(tok in s for tok in _FLUOROCARBON_TOKENS):
        return "fluorine"
    if "hf" in s:
        return "hf"
    if "cl" in s:
        return "chlorine"
    if "forming" in s or ("n2" in s and "h2" in s):
        return "forming_gas"
    if "o2" in s or "oxygen" in s:
        return "oxygen"
    if "rinse" in s or "water" in s or s == "di":
        return "rinse"
    return "other"


_STEP_TEXT = frozenset({"kind", "material", "chemistry", "tool", "note"})
_STEP_NUMBERS = frozenset({"thickness_m", "temperature_c", "duration_s", "repeats", "pulses"})


@dataclass(frozen=True)
class ProcessStep:
    """One fabrication step.

    ``thickness_m`` is required for additive kinds.  Subtractive kinds need a
    chemistry or, for ion-beam etching, an angle/time ``recipe`` whose segments
    are (angle_deg, seconds) pairs repeated ``repeats`` times.  ``note`` and
    ``tool`` are carried verbatim into reports.
    """

    kind: str
    material: str = ""
    thickness_m: float = 0.0
    chemistry: str = ""
    temperature_c: float | None = None
    duration_s: float = 0.0
    tool: str = ""
    recipe: tuple = ()
    repeats: int = 1
    pulses: int = 0
    note: str = ""

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise InputError(f"unknown step kind {shown(self.kind)}")
        for key in sorted(_STEP_NUMBERS):  # the loader's rule, for steps built in process
            value = getattr(self, key)
            if not (is_json_number(value) or key == "temperature_c" and value is None):
                raise InputError(f"{key} must be a finite number, got {shown(value)}")
        if self.kind in ADDITIVE_KINDS:
            if not self.material:
                raise InputError(f"{self.kind} step must name a material")
            if not (self.thickness_m > 0.0):
                raise InputError(f"{self.kind} step needs thickness > 0")
        if self.kind in _SUBTRACTIVE_KINDS and not self.chemistry and not self.recipe:
            raise InputError(f"{self.kind} step needs a chemistry or recipe")
        if self.duration_s < 0.0:
            raise InputError("duration_s must be >= 0")
        if self.repeats < 1:
            raise InputError("repeats must be >= 1")
        if self.pulses < 0:
            raise InputError("pulses must be >= 0")
        recipe = tuple((float(a), float(t)) for a, t in self.recipe)
        for angle, seconds in recipe:
            if not (is_json_number(seconds) and seconds > 0.0):
                raise InputError("recipe segment time must be finite and > 0")
            if not -90.0 <= angle <= 90.0:
                raise InputError("recipe angle must be within +-90 deg")
        object.__setattr__(self, "recipe", recipe)

    @property
    def chemistry_class(self) -> str:
        return classify_chemistry(self.chemistry)

    @property
    def beam_time_s(self) -> float:
        """Total etch time: recipe segments x repeats, else the flat duration."""
        if self.recipe:
            return self.repeats * sum(t for _, t in self.recipe)
        return self.duration_s

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.material:
            out["material"] = self.material
        if self.thickness_m:
            out["thickness_m"] = self.thickness_m
        if self.chemistry:
            out["chemistry"] = self.chemistry
        if self.temperature_c is not None:
            out["temperature_c"] = self.temperature_c
        if self.duration_s:
            out["duration_s"] = self.duration_s
        if self.tool:
            out["tool"] = self.tool
        if self.recipe:
            out["recipe"] = [list(seg) for seg in self.recipe]
        if self.repeats != 1:
            out["repeats"] = self.repeats
        if self.pulses:
            out["pulses"] = self.pulses
        if self.note:
            out["note"] = self.note
        return out

    @classmethod
    def from_dict(cls, data: dict, path: str = "step") -> "ProcessStep":
        """Step from its JSON object; InputError names ``path.<field>``."""
        extra = set(json_object(data, path)) - _STEP_TEXT - _STEP_NUMBERS - {"recipe"}
        if extra:
            raise InputError(f"unknown process step field(s): {sorted(extra)}")
        if "kind" not in data:
            raise InputError("process step needs a kind")
        for key, value in data.items():
            if key in _STEP_TEXT and not isinstance(value, str):
                raise InputError(f"{path}.{key} must be a string, got {shown(value)}")
            if key in _STEP_NUMBERS and not (key == "temperature_c" and value is None):
                json_number(value, f"{path}.{key}")
        recipe = data.get("recipe", ())
        if not isinstance(recipe, (list, tuple)):
            raise InputError(f"{path}.recipe must be an array of [angle_deg, seconds] pairs")
        for j, seg in enumerate(recipe):
            if not isinstance(seg, (list, tuple)) or len(seg) != 2:
                raise InputError(f"{path}.recipe[{j}] must be an [angle_deg, seconds] pair")
            for value in seg:
                json_number(value, f"{path}.recipe[{j}]")
        return cls(**{**data, "recipe": tuple(tuple(seg) for seg in recipe)})


@dataclass(frozen=True)
class Layer:
    material: str
    thickness_m: float
    patterned: bool = False

    def __post_init__(self):
        if not self.material:
            raise InputError("layer material must be non-empty")
        if self.thickness_m < 0.0:
            raise InputError("layer thickness must be >= 0")


@dataclass(frozen=True)
class StackState:
    """Layer stack after one step.  ``layers[0]`` is always the substrate.

    ``notes`` records bookkeeping events (partial etches, consumed masks) that
    are informational, not rule violations.
    """

    layers: tuple
    suspended: bool = False
    notes: tuple = ()

    def __post_init__(self):
        if not self.layers:
            raise InputError("stack must contain at least the substrate")
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "notes", tuple(self.notes))

    @property
    def exposed_materials(self) -> frozenset:
        """Materials a chemistry applied from above can reach.

        Walks down from the top: every patterned layer is reachable through
        its openings and the walk continues; the first unpatterned layer is
        reachable on its top face and blocks everything below it.
        """
        out = []
        for layer in reversed(self.layers):
            out.append(layer.material)
            if not layer.patterned:
                break
        return frozenset(out)

    @property
    def materials(self) -> tuple:
        return tuple(layer.material for layer in self.layers)

    def thickness_of(self, material: str) -> float:
        return sum(l.thickness_m for l in self.layers if l.material == material)

    def describe(self) -> str:
        parts = []
        for layer in self.layers:
            tag = "*" if layer.patterned else ""
            parts.append(f"{layer.material}{tag} {layer.thickness_m / _NM:.0f}nm")
        text = " | ".join(parts)
        if self.suspended:
            text += " (suspended)"
        return text


@dataclass(frozen=True)
class RateTable:
    """Etch and ash rates in nm/min.

    ``entries`` maps (material, process) pairs to rates, where process is
    "ibe" for ion milling or a chemistry class from ``classify_chemistry``.
    ``ashing_nm_min`` maps plate temperature (deg C) to the organics ash rate;
    lookups do not interpolate.  Shipped numbers are placeholders that respect
    the measured ordering (photoresists mill no faster than the SiO2 hard
    mask, AlN and AlScN mill alike); override from JSON for calibrated values.
    """

    entries: dict
    ashing_nm_min: dict

    def __post_init__(self):
        entries = {}
        for key, rate in dict(self.entries).items():
            material, process = key
            if not (is_json_number(rate) and rate > 0.0):
                raise InputError(f"rate for {material}/{process} must be finite and > 0")
            entries[(str(material), str(process))] = float(rate)
        ashing = {}
        for temp, rate in dict(self.ashing_nm_min).items():
            try:
                celsius = float(temp)
            except (TypeError, ValueError, OverflowError):
                celsius = None
            if not is_json_number(celsius):  # "nan", "inf" and "1e400" read as floats too
                raise InputError(f"ashing_nm_min key {shown(temp)} must be a temperature in degC")
            if not (is_json_number(rate) and rate > 0.0):
                raise InputError(f"ashing rate at {temp} degC must be finite and > 0")
            ashing[celsius] = float(rate)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "ashing_nm_min", ashing)

    def rate(self, material: str, process: str) -> float:
        try:
            return self.entries[(material, process)]
        except KeyError:
            raise MissingRateError(
                f"no rate entry for material {material!r} under process {process!r}"
            ) from None

    def has_rate(self, material: str, process: str) -> bool:
        return (material, process) in self.entries

    def ashing_rate(self, temperature_c: float) -> float:
        try:
            return self.ashing_nm_min[float(temperature_c)]
        except KeyError:
            known = sorted(self.ashing_nm_min)
            raise MissingRateError(
                f"no ashing rate at {temperature_c} degC (known: {known})"
            ) from None

    def to_dict(self) -> dict:
        processes: dict = {}
        for (material, process), rate in sorted(self.entries.items()):
            processes.setdefault(process, {})[material] = rate
        ashing = {f"{t:g}": r for t, r in sorted(self.ashing_nm_min.items())}
        return {"processes": processes, "ashing_nm_min": ashing}

    @classmethod
    def from_dict(cls, data: dict) -> "RateTable":
        extra = set(json_object(data, "rate table")) - {"processes", "ashing_nm_min"}
        if extra:
            raise InputError(f"unknown rate table field(s): {sorted(extra)}")
        entries = {}
        for process, materials in json_object(data.get("processes", {}), "processes").items():
            path = f"processes.{process}"
            for material, rate in json_object(materials, path).items():
                entries[(material, process)] = json_number(rate, f"{path}.{material}")
        ashing = json_object(data.get("ashing_nm_min", {}), "ashing_nm_min")
        for temp, rate in ashing.items():
            json_number(rate, f"ashing_nm_min.{temp}")
        return cls(entries=entries, ashing_nm_min=ashing)


# Milling rates keep the documented ordering only: resists <= SiO2, AlN and
# AlScN alike.  RIE rates exist just for the materials the flows etch; mask
# materials without an entry under a chemistry are treated as unattacked.
DEFAULT_RATES = RateTable(
    entries={
        ("AlScN", "ibe"): 20.0,
        ("AlN", "ibe"): 20.0,
        ("SiO2", "ibe"): 25.0,
        ("M108Y", "ibe"): 22.0,
        ("M35G", "ibe"): 22.0,
        ("DS-K101", "ibe"): 22.0,
        ("DUV42-P", "ibe"): 22.0,
        ("Pt", "ibe"): 15.0,
        ("Al", "ibe"): 30.0,
        ("Ti", "ibe"): 20.0,
        ("Si", "ibe"): 30.0,
        ("SiO2", "fluorine"): 100.0,
        ("DS-K101", "fluorine"): 120.0,
        ("DUV42-P", "fluorine"): 120.0,
        ("Al", "chlorine"): 100.0,
        ("SiO2", "hf"): 100.0,
    },
    ashing_nm_min={120.0: 100.0, 250.0: 400.0},
)


@dataclass(frozen=True)
class Violation:
    code: str
    step_index: int
    message: str
    severity: str

    def __post_init__(self):
        if self.code not in RULE_REGISTRY:
            raise InputError(f"unknown rule code {self.code!r}")
        if self.severity not in ("error", "warning"):
            raise InputError("severity must be 'error' or 'warning'")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EtchBudgetReport:
    mask_material: str
    target_material: str
    etch_time_s: float
    consumed_mask_m: float
    remaining_mask_m: float
    passes: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FlowReport:
    """Simulation states plus rule violations for one flow."""

    violations: tuple
    states: tuple

    @property
    def final_state(self) -> StackState:
        return self.states[-1]

    @property
    def error_count(self) -> int:
        return sum(1 for v in self.violations if v.severity == "error")

    @property
    def warning_count(self) -> int:
        return sum(1 for v in self.violations if v.severity == "warning")

    def summary_lines(self) -> list:
        lines = []
        for v in self.violations:
            lines.append(f"step {v.step_index}: {v.severity} {v.code}: {v.message}")
        lines.append(f"{self.error_count} error(s), {self.warning_count} warning(s)")
        lines.append(f"final stack: {self.final_state.describe()}")
        return lines

    def to_dict(self) -> dict:
        return {
            "violations": [v.to_dict() for v in self.violations],
            "error_count": self.error_count,
            "warning_count": self.warning_count,
            "suspended": self.final_state.suspended,
            "final_stack": [
                {
                    "material": l.material,
                    "thickness_m": l.thickness_m,
                    "patterned": l.patterned,
                }
                for l in self.final_state.layers
            ],
        }


def _depth_m(rate_nm_min: float, seconds: float) -> float:
    return rate_nm_min * (seconds / _SEC_PER_MIN) * _NM


def _erode_masks(layers, top_index, process, rates, duration_s, notes):
    """Serial top-down erosion of the mask stack above ``top_index``.

    The topmost layer takes the beam first; layers below it only start to
    erode once it is fully consumed within the step's time budget.  A mask
    with no rate entry under this process is treated as unattacked and
    shields everything beneath it.
    """
    remaining_s = duration_s
    i = len(layers) - 1
    while i > top_index and remaining_s > 0.0:
        mask = layers[i]
        if not rates.has_rate(mask.material, process):
            break
        rate = rates.rate(mask.material, process)
        clear_s = (mask.thickness_m / _NM) / rate * _SEC_PER_MIN
        if remaining_s < clear_s:
            worn = replace(mask, thickness_m=mask.thickness_m - _depth_m(rate, remaining_s))
            layers[i] = worn
            remaining_s = 0.0
        else:
            notes.append(f"mask {mask.material} fully consumed during etch")
            del layers[i]
            remaining_s -= clear_s
        i -= 1
    if i == top_index and remaining_s > 0.0 and top_index < len(layers) - 1:
        notes.append("mask stack fully consumed before end of etch")


def _exposed_indices(layers) -> list:
    """Indices reachable from the top, mirroring StackState.exposed_materials."""
    out = []
    for i in range(len(layers) - 1, -1, -1):
        out.append(i)
        if not layers[i].patterned:
            break
    return out


def _apply_etch(layers, step, rates, notes):
    target = step.material
    if not target:
        raise FlowError(f"{step.kind} step must name the target material")
    process = "ibe" if step.kind == "etch_ibe" else step.chemistry_class
    duration_s = step.beam_time_s
    if duration_s <= 0.0:
        raise FlowError(f"{step.kind} of {target} has no etch time")
    rate = rates.rate(target, process)

    reachable = _exposed_indices(layers)
    target_index = next(
        (i for i in reachable if layers[i].material == target), None
    )
    if target_index is None:
        raise FlowError(f"etch target {target!r} is not exposed")

    depth = _depth_m(rate, duration_s)
    layer = layers[target_index]
    if target_index == len(layers) - 1:
        # Blanket etch of the top layer: thin it or take it off entirely.
        if depth >= layer.thickness_m:
            over_s = (depth - layer.thickness_m) / _NM / rate * _SEC_PER_MIN
            notes.append(
                f"{target} fully removed ({over_s:.0f} s overetch not simulated below)"
            )
            del layers[target_index]
        else:
            layers[target_index] = replace(layer, thickness_m=layer.thickness_m - depth)
    else:
        # Masked etch: transfer the mask openings into the target layer.  The
        # covered regions keep full thickness, so the layer is only flagged
        # patterned; meanwhile the mask stack above erodes on its own budget.
        if depth >= layer.thickness_m:
            layers[target_index] = replace(layer, patterned=True)
        else:
            notes.append(
                f"etch does not clear {target}: "
                f"{depth / _NM:.0f} of {layer.thickness_m / _NM:.0f} nm"
            )
        _erode_masks(layers, target_index, process, rates, duration_s, notes)


def _apply_develop(layers, step, notes):
    top = layers[-1]
    if top.material not in RESIST_MATERIALS:
        raise FlowError("develop requires a photoresist as the top layer")
    layers[-1] = replace(top, patterned=True)
    if len(layers) >= 2:
        below = layers[-2]
        if below.material in DEVELOPABLE_BARCS:
            layers[-2] = replace(below, patterned=True)
            notes.append(f"{below.material} opened during development")
        elif below.material in BARC_MATERIALS:
            notes.append(f"{below.material} not opened during development")


def _apply_strip_ash(layers, step, rates, notes):
    if step.chemistry_class not in ("oxygen", "forming_gas"):
        raise FlowError("strip_ash chemistry must be an O2 or forming-gas plasma")
    if step.temperature_c is None:
        raise FlowError("strip_ash needs a plate temperature")
    rate = rates.ashing_rate(step.temperature_c)
    budget = _depth_m(rate, step.duration_s)
    while budget > 0.0 and len(layers) > 1 and layers[-1].material in ORGANIC_MATERIALS:
        top = layers[-1]
        if budget >= top.thickness_m:
            budget -= top.thickness_m
            notes.append(f"{top.material} fully removed by ash")
            del layers[-1]
        else:
            layers[-1] = replace(top, thickness_m=top.thickness_m - budget)
            budget = 0.0
    if layers[-1].material not in ORGANIC_MATERIALS and budget > 0.0:
        notes.append("ash budget left over with no organics on top")


def _apply_strip_wet(layers, step, notes):
    cls = step.chemistry_class
    if cls == "rinse":
        notes.append("rinse")
        return
    if cls != "remover":
        raise FlowError("strip_wet chemistry must be a remover bath or a rinse")
    stripped = False
    while len(layers) > 1 and layers[-1].material in _REMOVER_SOLUBLE:
        notes.append(f"{layers[-1].material} stripped in remover")
        del layers[-1]
        stripped = True
    if not stripped:
        notes.append("remover bath found no soluble resist on top")


def simulate_stack(flow, rates: RateTable | None = None) -> list:
    """Replay ``flow`` and return one StackState per step.

    The first step must be a deposit declaring the substrate.  Deposits and
    spin coats push a blanket layer; develop opens the top resist (plus a
    developable BARC under it); etches act on the named target through the
    exposure walk; ashes and strips consume organics from the top.  A layer's
    thickness never increases except by a deposit naming it.
    """
    if rates is None:
        rates = DEFAULT_RATES
    flow = tuple(flow)
    if not flow:
        raise FlowError("flow is empty")
    if flow[0].kind != "deposit":
        raise FlowError("flow must start by depositing the substrate")

    states = []
    layers = [Layer(flow[0].material, flow[0].thickness_m)]
    suspended = False
    states.append(StackState(tuple(layers), suspended, ("substrate",)))

    for step in flow[1:]:
        notes: list = []
        if step.kind in ADDITIVE_KINDS:
            layers.append(Layer(step.material, step.thickness_m))
        elif step.kind == "expose":
            notes.append(f"exposed {step.material or layers[-1].material}")
        elif step.kind == "develop":
            if step.chemistry_class != "developer":
                raise FlowError("develop chemistry must be a developer")
            _apply_develop(layers, step, notes)
        elif step.kind in _ETCH_KINDS:
            _apply_etch(layers, step, rates, notes)
        elif step.kind == "strip_ash":
            _apply_strip_ash(layers, step, rates, notes)
        elif step.kind == "strip_wet":
            _apply_strip_wet(layers, step, notes)
        elif step.kind == "release":
            if step.chemistry_class != "xef2":
                raise FlowError("release chemistry must be XeF2")
            if step.pulses >= RELEASE_MIN_PULSES:
                suspended = True
                notes.append(f"suspended after {step.pulses} pulses")
            else:
                notes.append(
                    f"{step.pulses} pulses < {RELEASE_MIN_PULSES}, not suspended"
                )
        states.append(StackState(tuple(layers), suspended, tuple(notes)))
    return states


# Rule registry: code -> (severity, chemistry class, watched material).  The
# check functions below consult the registry so adding a rule of an existing
# shape needs no engine change.
RULE_REGISTRY = {
    "DEVELOPER_ATTACKS_AL": ("error", "developer", "Al"),
    "HF_ATTACKS_TI": ("error", "hf", "Ti"),
    "POST_CL_RINSE": ("error", "chlorine", "Al"),
    "AL_OXIDATION": ("warning", "oxygen", "Al"),
    "OVERASH_BEFORE_WET": ("warning", "oxygen", "resist"),
}


def _exposure_rule(code, step, index, exposed_union, extra_ok=lambda s: True):
    severity, chem_class, material = RULE_REGISTRY[code]
    if step.chemistry_class != chem_class or not extra_ok(step):
        return None
    if material not in exposed_union:
        return None
    return Violation(
        code,
        index,
        f"{step.chemistry or step.kind} reaches exposed {material}",
        severity,
    )


def check_compatibility(flow, rates: RateTable | None = None) -> list:
    """Evaluate every registered rule at every step of ``flow``.

    Violations are data, ordered by (step index, code); an empty list means
    the flow is chemically clean.  Exposure-based rules consider the union of
    the stack's exposed materials before and after the step, so a step that
    itself uncovers the sensitive material is still caught.
    """
    flow = tuple(flow)
    return _rule_violations(flow, simulate_stack(flow, rates))


def _rule_violations(flow: tuple, states: list) -> list:
    """check_compatibility on a flow whose stack states are already simulated."""
    violations = []
    for i, step in enumerate(flow):
        pre = states[i - 1].exposed_materials if i > 0 else frozenset()
        post = states[i].exposed_materials
        union = pre | post

        v = _exposure_rule("DEVELOPER_ATTACKS_AL", step, i, union)
        if v:
            violations.append(v)

        # Anhydrous vapor HF does not attack Ti under the bottom electrode.
        v = _exposure_rule(
            "HF_ATTACKS_TI", step, i, union, lambda s: s.kind != "etch_vapor"
        )
        if v:
            violations.append(v)

        v = _exposure_rule("AL_OXIDATION", step, i, union)
        if v:
            violations.append(
                replace(v, message="O2 plasma with Al exposed oxidizes the electrode surface")
            )

        if (
            step.chemistry_class == "chlorine"
            and step.material == "Al"
            and i + 1 < len(flow)
            and flow[i + 1].chemistry_class != "rinse"
        ):
            violations.append(
                Violation(
                    "POST_CL_RINSE",
                    i,
                    "chlorine etch of Al must be followed immediately by a DI rinse",
                    "error",
                )
            )

        if step.kind == "strip_ash" and step.chemistry_class == "oxygen":
            before = {
                l.material for l in states[i - 1].layers if l.material in RESIST_MATERIALS
            }
            after = {
                l.material for l in states[i].layers if l.material in RESIST_MATERIALS
            }
            burnt = sorted(before - after)
            wet_later = any(
                later.kind == "strip_wet" and later.chemistry_class == "remover"
                for later in flow[i + 1 :]
            )
            if burnt and wet_later:
                violations.append(
                    Violation(
                        "OVERASH_BEFORE_WET",
                        i,
                        f"O2 ash fully removes {', '.join(burnt)};"
                        " burnt residues will survive the later wet strip",
                        "warning",
                    )
                )

    violations.sort(key=lambda v: (v.step_index, v.code))
    return violations


def check_flow(flow, rates: RateTable | None = None) -> FlowReport:
    """Simulate and rule-check a flow in one call."""
    flow = tuple(flow)
    states = simulate_stack(flow, rates)
    return FlowReport(tuple(_rule_violations(flow, states)), tuple(states))


def etch_budget(
    mask_material: str,
    mask_thickness_m: float,
    target_material: str,
    target_depth_m: float,
    overetch_fraction: float,
    rates: RateTable | None = None,
    process: str = "ibe",
) -> EtchBudgetReport:
    """Mask-consumption margin for etching ``target_depth_m`` plus overetch.

    Pass criterion is strict: the consumed mask must stay below the starting
    mask thickness.
    """
    if rates is None:
        rates = DEFAULT_RATES
    if mask_thickness_m <= 0.0:
        raise InputError("mask thickness must be > 0")
    if target_depth_m <= 0.0:
        raise InputError("target depth must be > 0")
    if overetch_fraction < 0.0:
        raise InputError("overetch fraction must be >= 0")
    target_rate = rates.rate(target_material, process)
    mask_rate = rates.rate(mask_material, process)
    time_min = (target_depth_m / _NM) * (1.0 + overetch_fraction) / target_rate
    consumed = mask_rate * time_min * _NM
    return EtchBudgetReport(
        mask_material=mask_material,
        target_material=target_material,
        etch_time_s=time_min * _SEC_PER_MIN,
        consumed_mask_m=consumed,
        remaining_mask_m=max(mask_thickness_m - consumed, 0.0),
        passes=consumed < mask_thickness_m,
    )


def ashing_time(
    resist_thickness_m: float, temperature_c: float, rates: RateTable | None = None
) -> float:
    """Seconds to ash ``resist_thickness_m`` of organics at the plate temperature."""
    if rates is None:
        rates = DEFAULT_RATES
    if resist_thickness_m < 0.0:
        raise InputError("resist thickness must be >= 0")
    rate = rates.ashing_rate(temperature_c)
    return (resist_thickness_m / _NM) / rate * _SEC_PER_MIN


def steps_to_dict(flow, name: str = "", description: str = "") -> dict:
    doc = {"steps": [step.to_dict() for step in flow]}
    if name:
        doc["name"] = name
    if description:
        doc["description"] = description
    return doc


def steps_from_dict(data: dict) -> tuple:
    if not isinstance(data, dict) or "steps" not in data:
        raise InputError("flow document must be an object with a 'steps' array")
    if not isinstance(data["steps"], list):
        raise InputError("'steps' must be an array")
    return tuple(
        ProcessStep.from_dict(entry, f"steps[{i}]") for i, entry in enumerate(data["steps"])
    )


def load_flow(path) -> tuple:
    """Read a flow JSON document from disk."""
    return steps_from_dict(read_json(path, "flow"))


GOLDEN_FLOW_NAMES = ("alscn-aln-adhesion", "alscn-ti-adhesion")

_FLOW_FILES = {
    "alscn-aln-adhesion": "flow_alscn_aln.json",
    "alscn-ti-adhesion": "flow_alscn_ti.json",
}


def packaged_flow(name: str) -> tuple:
    """Load one of the reference flows shipped with the package."""
    try:
        filename = _FLOW_FILES[name]
    except KeyError:
        raise InputError(
            f"unknown packaged flow {name!r} (known: {sorted(_FLOW_FILES)})"
        ) from None
    text = resources.files("lambkit.data").joinpath(filename).read_text("utf-8")
    return steps_from_dict(json.loads(text))
