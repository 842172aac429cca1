"""Desk-scale toolkit for suspended Lamb-wave resonators.

Covers the loop from plate dispersion through IDT design, mask layout,
one-port RF fitting, process-flow checking, and wafer-level statistics.

The package exports are lazy (PEP 562): ``from lambkit import X`` imports
X's module on first use, so a command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Guided-mode names, lowest branch first in each family.  Defined here, not
# in .dispersion, so the CLI parser can offer them without loading numpy.
MODE_NAMES = ("A0", "A1", "S0", "S1")

_EXPORTS = {
    "calibration": "ErrorBox apply_correction calibrate_file osl_solve",
    "config": "ToolkitConfig load_catalog load_config",
    "design": "IdtSpec LayerBand ResonatorDesign layer_assignment match_finger_count "
              "recommend_dose static_capacitance",
    "dispersion": "DispersionCurve PlateMaterial PlateSpec pitch_to_frequency "
                  "sensitivity solve_at_k solve_mode thin_plate_s0_velocity",
    "errors": "ConfigError InputError LambkitError",
    "gdsii": "read_gdsii write_gdsii",
    "layout": "Cell ChipPlacement Library Placement Polygon "
              "build_reticle gen_chip gen_wafer_map",
    "mbvd": "AdmittanceTrace FitResult MbvdModel MotionalBranch "
            "StaticNetwork fit_mbvd mbvd_admittance resonance_metrics",
    "processflow": "GOLDEN_FLOW_NAMES FlowReport ProcessStep RateTable StackState Violation "
                   "ashing_time check_flow classify_chemistry "
                   "etch_budget load_flow packaged_flow simulate_stack",
    "touchstone": "TouchstoneFile parse_touchstone s11_to_y serialize_touchstone "
                  "touchstone_to_trace y_to_s11",
    "waferstats": "DeviationReport ModeMetrics WaferSite metrics_vs_frequency "
                  "per_mode_deviation relstd simulate_wafer sites_from_dict sites_to_dict",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["MODE_NAMES", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
