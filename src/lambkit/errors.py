"""Exception taxonomy shared by all lambkit modules, and the input boundary.

Every error raised on a documented failure path derives from LambkitError so
callers (and the CLI) can map failures to exit codes without string matching.

It also owns the input boundary for JSON documents (config, catalog, flow,
rate table, sites): ``read_json`` is the one place a user JSON file is opened,
and ``is_json_number`` the one rule for a number: finite as a float, so not
the NaN, Infinity and huge integers (``10**400``) that ``json.load`` reads.
Loaders name the JSON path of a bad value.  Stdlib only: no numpy is loaded.
"""

import json
import sys


class LambkitError(Exception):
    """Base class for all toolkit errors."""


class InputError(LambkitError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class ConfigError(LambkitError, ValueError):
    """Configuration file failed schema validation or refers to missing files."""


class FitPeakError(LambkitError):
    """Fewer admittance peaks found than requested motional branches."""

    def __init__(self, found: int, requested: int):
        self.found = found
        self.requested = requested
        super().__init__(
            f"found {found} admittance peak(s) but {requested} branch(es) requested"
        )


class FitConvergenceError(LambkitError):
    """Optimizer hit the iteration cap; carries the best model seen so far."""

    def __init__(self, message: str, model=None, report=None):
        self.model = model
        self.report = report
        super().__init__(message)


class DegenerateFixtureError(LambkitError, ValueError):
    """Open/short de-embedding fixtures are indistinguishable from the DUT."""


class SolverError(LambkitError):
    """Dispersion root finding failed: no root for the branch, or unreliable indexing."""


class DispersionRangeError(LambkitError, ValueError):
    """The dispersion lattice has no reliable root near the requested k*h."""


class SensitivityError(LambkitError):
    """No log sensitivity: the dispersion lattice has no reliable root near k*h."""


class DesignError(LambkitError, ValueError):
    """Resonator design constraint cannot be met (e.g. finger-count cap)."""


class DoseRangeError(DesignError):
    """Finger width outside the characterized exposure-dose range."""


class LayerAssignmentError(DesignError):
    """Pitch falls outside both exposure layer bands."""


class PackingError(LambkitError):
    """Chip or wafer packing overflow; names the first non-fitting item."""


class CoordinateError(LambkitError, ValueError):
    """Geometry exceeds the 32-bit database-unit coordinate range."""


class GdsParseError(LambkitError, ValueError):
    """Malformed GDSII stream; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class TouchstoneParseError(LambkitError, ValueError):
    """Malformed Touchstone file; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CalibrationError(LambkitError):
    """One-port error-box solve failed (degenerate standards)."""


class CorrectionError(LambkitError):
    """Error-box correction is singular at some frequency."""


class StatisticsError(LambkitError, ValueError):
    """Statistical reduction over wafer sites is ill-posed."""


class FlowError(LambkitError, ValueError):
    """Process flow is structurally invalid (not rule violations, which are data)."""


class MissingRateError(FlowError):
    """No etch/ash rate entry for a (material, chemistry) pair."""


def read_json(path, what: str, error=InputError):
    """The JSON document in the file at ``path``; a missing file, bytes that
    are not UTF-8 and text that is not JSON raise ``error`` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}") from None
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise error(f"{what} file is not valid JSON: {exc}") from None


def is_json_number(value) -> bool:
    """True for an int or float that is finite as a float; False for a bool,
    NaN, the infinities and an int beyond the float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def shown(value) -> str:
    """repr(value), or a placeholder where repr fails: an int over 4300 digits."""
    try:
        return repr(value)
    except ValueError:  # the int itself, or a list holding one
        size = f" of {value.bit_length()} bits" if isinstance(value, int) else ""
        return f"<{type(value).__name__}{size}>"


def json_number(value, path: str):
    """``value`` if it is a finite JSON number; InputError naming ``path`` otherwise."""
    if not is_json_number(value):
        raise InputError(f"{path} must be a finite number, got {shown(value)}")
    return value


def json_object(value, path: str) -> dict:
    """``value`` if it is a JSON object; InputError naming ``path`` otherwise."""
    if not isinstance(value, dict):
        raise InputError(f"{path} must be an object")
    return value
