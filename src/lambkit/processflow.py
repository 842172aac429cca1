"""Fabrication flow bookkeeping: stack simulation, compatibility rules, budgets.

A process flow is a flat list of steps (deposits, lithography, etches, strips,
release).  ``simulate_stack`` replays the flow against a 1-D layer stack and
records which materials a chemistry can reach at every step; ``check_flow``
then evaluates every rule of ``RULE_REGISTRY`` (developer attack on Al, wet HF
on Ti, missing post-chlorine rinse, oxidizing ash, over-ash before a wet
strip) in one pass and turns each hit into a structured violation.  The
registry alone gives each rule its severity, chemistry class and watched
material.  One routine, ``_strip_from_top``, takes layers off the top of the
stack: the mask erosion of an etch, an ash and a remover bath.  ``ProcessStep``
holds every rule on one step's values, so a bad step is refused as it loads
(the loader adds the ``steps[i]`` path) and ``simulate_stack`` decides only
stack faults.  No topography: patterned layers keep their full thickness and
simply stop blocking the layers below them.
"""

from __future__ import annotations

import math
import re

from .errors import (
    FlowError, InputError, MissingRateError, is_json_number, json_number, json_object,
    packaged_json, read_json, shown)
from .record import asdict, dataclass, fields, replace

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
    "check_flow",
    "etch_budget",
    "ashing_time",
    "steps_from_dict",
    "steps_to_dict",
    "load_flow",
    "packaged_flow",
]

ADDITIVE_KINDS = ("deposit", "spin_coat")
_ETCH_KINDS = ("etch_dry", "etch_ibe", "etch_vapor", "etch_wet")
STEP_KINDS = (*ADDITIVE_KINDS, "expose", "develop", *_ETCH_KINDS, "strip_ash", "strip_wet",
              "release")

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
# A lower-cased formula token: element symbols, each with an optional count.
# No symbol here starts with "l", so a "cl" in such a token is chlorine.
_FORMULA_TOKEN = re.compile(r"(?:(?:al|ar|br|b|cl|c|f|he|h|n|o|si|s|ti)\d*)+")


def _names_chlorine(tokens: list) -> bool:
    """Whether lower-cased tokens name Cl in a formula (cl2, bcl3, hcl) or
    the word chlorine; "clean" and "cycle" do not."""
    return any(tok == "chlorine" or ("cl" in tok and _FORMULA_TOKEN.fullmatch(tok))
               for tok in tokens)


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
    tokens = re.split(r"[^a-z0-9]+", s)
    if _names_chlorine(tokens):
        return "chlorine"
    if "forming" in s or ("n2" in s and "h2" in s):
        return "forming_gas"
    if "o2" in tokens or "oxygen" in tokens:  # O2 itself, not H2O2, CO2 or H2SO4
        return "oxygen"
    if "rinse" in s or "water" in s or s == "di":
        return "rinse"
    return "other"


_STEP_TEXT = frozenset({"kind", "material", "chemistry", "tool", "note"})
_STEP_NUMBERS = frozenset({"thickness_m", "temperature_c", "duration_s", "repeats", "pulses"})
_STEP_COUNTS = ("repeats", "pulses")  # integers; 2.0 counts as 2, as in the config
_CHEMISTRY_OF_KIND = {  # step kind -> (the chemistry classes it takes, as a message names them)
    "develop": (("developer",), "a developer"),
    "strip_ash": (("oxygen", "forming_gas"), "an O2 or forming-gas plasma"),
    "strip_wet": (("remover", "rinse"), "a remover bath or a rinse"),
    "release": (("xef2",), "XeF2"),
}


@dataclass(frozen=True)
class ProcessStep:
    """One fabrication step, and the one home of every step-value rule.

    ``thickness_m`` is required for additive kinds.  An etch needs its target, a
    beam time > 0 and a chemistry or, for ion-beam etching, an angle/time
    ``recipe`` whose segments are (angle_deg, seconds) pairs repeated ``repeats``
    times; ``_CHEMISTRY_OF_KIND`` gives the chemistries the other subtractive
    kinds and release take.  ``note`` and ``tool`` are carried verbatim into
    reports.  Each InputError message is led by the field it names.
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
        for f in fields(self):
            key, value = f.name, getattr(self, f.name)
            if key in _STEP_TEXT and not isinstance(value, str):
                raise InputError(f"{key} must be a string, got {shown(value)}")
            if key in _STEP_NUMBERS and not (key == "temperature_c" and value is None):
                json_number(value, key)
            if key in _STEP_COUNTS:
                if value != int(value):
                    raise InputError(f"{key} must be an integer, got {shown(value)}")
                object.__setattr__(self, key, int(value))
        if self.kind not in STEP_KINDS:
            raise InputError(f"kind must be one of {', '.join(STEP_KINDS)}, "
                             f"got {shown(self.kind)}")
        if self.kind in (*ADDITIVE_KINDS, *_ETCH_KINDS) and not self.material:
            raise InputError(f"material must be named for the {self.kind} step")
        if self.kind in ADDITIVE_KINDS and not self.thickness_m > 0.0:
            raise InputError(f"thickness_m must be > 0 for a {self.kind} step")
        if self.kind in _ETCH_KINDS and not self.chemistry and not self.recipe:
            raise InputError(f"chemistry or recipe must be given for an {self.kind} step")
        for key, low in (("duration_s", 0), ("repeats", 1), ("pulses", 0)):
            if getattr(self, key) < low:
                raise InputError(f"{key} must be >= {low}")
        if not isinstance(self.recipe, (list, tuple)):
            raise InputError("recipe must be an array of [angle_deg, seconds] pairs")
        for j, seg in enumerate(self.recipe):
            if not isinstance(seg, (list, tuple)) or len(seg) != 2:
                raise InputError(f"recipe[{j}] must be an [angle_deg, seconds] pair")
            angle, seconds = (json_number(value, f"recipe[{j}]") for value in seg)
            if not seconds > 0.0:
                raise InputError(f"recipe[{j}] time must be > 0, got {shown(seconds)}")
            if not -90.0 <= angle <= 90.0:
                raise InputError(f"recipe[{j}] angle must be within +-90 deg, "
                                 f"got {shown(angle)}")
        object.__setattr__(self, "recipe", tuple((float(a), float(t)) for a, t in self.recipe))
        classes, named = _CHEMISTRY_OF_KIND.get(self.kind, ((), ""))
        if classes and self.chemistry_class not in classes:
            raise InputError(f"chemistry must be {named} for a {self.kind} step, "
                             f"got {shown(self.chemistry)}")
        if self.kind == "strip_ash" and self.temperature_c is None:
            raise InputError("temperature_c must be given for a strip_ash step")
        if self.kind in _ETCH_KINDS and not self.beam_time_s > 0.0:
            raise InputError(f"duration_s must be > 0 for an {self.kind} step without a recipe")

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
        """Every field that differs from its declared default, in field order."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = [list(seg) for seg in value] if f.name == "recipe" else value
        return out

    @classmethod
    def from_dict(cls, data: dict, path: str = "step") -> "ProcessStep":
        """Step from its JSON object; InputError names ``path.<field>``."""
        extra = set(json_object(data, path)) - {f.name for f in fields(cls)}
        if extra:
            raise InputError(f"unknown process step field(s): {sorted(extra)}")
        if "kind" not in data:
            raise InputError("process step needs a kind")
        try:
            return cls(**data)
        except InputError as exc:
            raise InputError(f"{path}.{exc}") from None


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


def _exposed_indices(layers) -> list:
    """Indices of the layers a chemistry applied from above can reach, top first.

    Walks down from the top: every patterned layer is reachable through its
    openings and the walk continues; the first unpatterned layer is reachable
    on its top face and blocks everything below it.
    """
    out = []
    for i in range(len(layers) - 1, -1, -1):
        out.append(i)
        if not layers[i].patterned:
            break
    return out


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
        """Materials a chemistry applied from above can reach."""
        return frozenset(self.layers[i].material for i in _exposed_indices(self.layers))

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
        key_of = {}  # temperature -> the key that gave it
        for temp, rate in dict(self.ashing_nm_min).items():
            try:
                celsius = float(temp)
            except (TypeError, ValueError, OverflowError):
                celsius = None
            if not is_json_number(celsius):  # "nan", "inf" and "1e400" read as floats too
                raise InputError(f"ashing_nm_min key {shown(temp)} must be a temperature in degC")
            if not (is_json_number(rate) and rate > 0.0):
                raise InputError(f"ashing rate at {temp} degC must be finite and > 0")
            if celsius in key_of:
                raise InputError(f"ashing_nm_min keys {shown(key_of[celsius])} and {shown(temp)} "
                                 f"name the same temperature {celsius:g} degC")
            key_of[celsius] = temp
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
            "final_stack": [asdict(layer) for layer in self.final_state.layers],
        }


def _depth_m(rate_nm_min: float, seconds: float) -> float:
    return rate_nm_min * (seconds / _SEC_PER_MIN) * _NM


def _strip_from_top(layers, floor, rate_of, seconds, removed_note, notes) -> float:
    """Take layers off the top of the stack, above index ``floor``, for ``seconds``.

    The top layer goes first, at ``rate_of(layer)`` nm/min; the one below it
    only starts once it is gone.  A ``None`` rate shields that layer and all
    below it.  Each layer taken off is noted as ``removed_note`` formatted with
    its material.  Returns the seconds left over.
    """
    while seconds > 0.0 and len(layers) - 1 > floor:
        top = layers[-1]
        rate = rate_of(top)
        if rate is None:
            break
        clear_s = (top.thickness_m / _NM) / rate * _SEC_PER_MIN
        if seconds < clear_s:
            layers[-1] = replace(top, thickness_m=top.thickness_m - _depth_m(rate, seconds))
            return 0.0
        notes.append(removed_note.format(top.material))
        del layers[-1]
        seconds -= clear_s
    return seconds


def _apply_etch(layers, step, rates, notes):
    target, duration_s = step.material, step.beam_time_s
    process = "ibe" if step.kind == "etch_ibe" else step.chemistry_class
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
            if target_index == 0:
                raise FlowError(f"{step.kind} of {target} removes the substrate")
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
        # patterned; meanwhile the mask stack above erodes, top layer first.
        if depth >= layer.thickness_m:
            layers[target_index] = replace(layer, patterned=True)
        else:
            notes.append(
                f"etch does not clear {target}: "
                f"{depth / _NM:.0f} of {layer.thickness_m / _NM:.0f} nm"
            )
        _strip_from_top(layers, target_index,
                        lambda mask: rates.entries.get((mask.material, process)),
                        duration_s, "mask {} fully consumed during etch", notes)


def _apply_develop(layers, notes):
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
    rate = rates.ashing_rate(step.temperature_c)
    left_s = _strip_from_top(layers, 0,
                             lambda top: rate if top.material in ORGANIC_MATERIALS else None,
                             step.duration_s, "{} fully removed by ash", notes)
    if left_s > 0.0 and layers[-1].material not in ORGANIC_MATERIALS:
        notes.append("ash budget left over with no organics on top")


def _apply_strip_wet(layers, step, notes):
    if step.chemistry_class == "rinse":
        notes.append("rinse")
        return
    # the bath lifts every soluble resist on top whatever its thickness
    before = len(layers)
    _strip_from_top(layers, 0,
                    lambda top: math.inf if top.material in _REMOVER_SOLUBLE else None,
                    math.inf, "{} stripped in remover", notes)
    if len(layers) == before:
        notes.append("remover bath found no soluble resist on top")


def simulate_stack(flow, rates: RateTable = DEFAULT_RATES) -> list:
    """Replay ``flow`` and return one StackState per step.

    The first step must be a deposit declaring the substrate.  Deposits and
    spin coats push a blanket layer; develop opens the top resist (plus a
    developable BARC under it); etches act on the named target through the
    exposure walk while their mask erodes, and ashes and remover baths take
    organics off the top; ``_strip_from_top`` does all three removals.  A
    layer's thickness never increases except by a deposit naming it.
    """
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
            _apply_develop(layers, notes)
        elif step.kind in _ETCH_KINDS:
            _apply_etch(layers, step, rates, notes)
        elif step.kind == "strip_ash":
            _apply_strip_ash(layers, step, rates, notes)
        elif step.kind == "strip_wet":
            _apply_strip_wet(layers, step, notes)
        elif step.kind == "release":
            if step.pulses >= RELEASE_MIN_PULSES:
                suspended = True
                notes.append(f"suspended after {step.pulses} pulses")
            else:
                notes.append(
                    f"{step.pulses} pulses < {RELEASE_MIN_PULSES}, not suspended"
                )
        states.append(StackState(tuple(layers), suspended, tuple(notes)))
    return states


# Rule registry: code -> (severity, chemistry class, watched material; the
# over-ash rule watches the set of resists).  check_flow reads all three from
# here: a rule is evaluated only at steps of its chemistry class, it looks for
# its watched material, and its violations carry its severity.
RULE_REGISTRY = {
    "DEVELOPER_ATTACKS_AL": ("error", "developer", "Al"),
    "HF_ATTACKS_TI": ("error", "hf", "Ti"),
    "POST_CL_RINSE": ("error", "chlorine", "Al"),
    "AL_OXIDATION": ("warning", "oxygen", "Al"),
    "OVERASH_BEFORE_WET": ("warning", "oxygen", RESIST_MATERIALS),
}


def check_flow(flow, rates: RateTable = DEFAULT_RATES) -> FlowReport:
    """Simulate a flow, then evaluate every registered rule at every step.

    Violations are data, ordered by (step index, code); none means the flow
    is chemically clean.  Exposure rules consider the union of the stack's
    exposed materials before and after the step, so a step that itself
    uncovers the watched material is still caught.
    """
    flow = tuple(flow)
    states = simulate_stack(flow, rates)
    violations = []
    for i, step in enumerate(flow):
        before = states[i - 1].exposed_materials if i else frozenset()
        exposed = before | states[i].exposed_materials
        for code, (severity, chemistry, watched) in RULE_REGISTRY.items():
            if step.chemistry_class != chemistry:
                continue
            if code == "POST_CL_RINSE":
                hit = (step.material == watched and i + 1 < len(flow)
                       and flow[i + 1].chemistry_class != "rinse")
                message = (f"{chemistry} etch of {watched} must be followed immediately"
                           " by a DI rinse")
            elif code == "OVERASH_BEFORE_WET":
                burnt = sorted({l.material for l in states[i - 1].layers if l.material in watched}
                               - set(states[i].materials))
                hit = step.kind == "strip_ash" and burnt and any(
                    later.kind == "strip_wet" and later.chemistry_class == "remover"
                    for later in flow[i + 1:])
                message = (f"O2 ash fully removes {', '.join(burnt)};"
                           " burnt residues will survive the later wet strip")
            elif code == "AL_OXIDATION":
                hit = watched in exposed
                message = f"O2 plasma with {watched} exposed oxidizes the electrode surface"
            else:  # the chemistry reaches the exposed material; the anhydrous
                # vapor etch spares the adhesion metal under the bottom electrode
                hit = watched in exposed and not (code == "HF_ATTACKS_TI"
                                                  and step.kind == "etch_vapor")
                message = f"{step.chemistry or step.kind} reaches exposed {watched}"
            if hit:
                violations.append(Violation(code, i, message, severity))
    violations.sort(key=lambda v: (v.step_index, v.code))
    return FlowReport(tuple(violations), tuple(states))


def etch_budget(
    mask_material: str,
    mask_thickness_m: float,
    target_material: str,
    target_depth_m: float,
    overetch_fraction: float,
    rates: RateTable = DEFAULT_RATES,
    process: str = "ibe",
) -> EtchBudgetReport:
    """Mask-consumption margin for etching ``target_depth_m`` plus overetch.

    Pass criterion is strict: the consumed mask must stay below the starting
    mask thickness.
    """
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
    resist_thickness_m: float, temperature_c: float, rates: RateTable = DEFAULT_RATES
) -> float:
    """Seconds to ash ``resist_thickness_m`` of organics at the plate temperature."""
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


_FLOW_FILES = {
    "alscn-aln-adhesion": "flow_alscn_aln.json",
    "alscn-ti-adhesion": "flow_alscn_ti.json",
}
GOLDEN_FLOW_NAMES = tuple(_FLOW_FILES)


def packaged_flow(name: str) -> tuple:
    """Load one of the reference flows shipped with the package."""
    try:
        filename = _FLOW_FILES[name]
    except KeyError:
        raise InputError(
            f"unknown packaged flow {name!r} (known: {sorted(_FLOW_FILES)})"
        ) from None
    return steps_from_dict(packaged_json(filename))
