"""Shared domain types, units, and the measurement-derived parameter tables.

Conventions used throughout the package:

* delays in seconds (file and CLI boundaries use nanoseconds),
* angles in radians, azimuth in [0, 2pi), elevation in [-pi/2, pi/2],
* powers linear (K factors and SNR cross the API in dB),
* antenna spacing and track steps in carrier wavelengths.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
#: The Rician K factors in dB that a FadingModel accepts: from an almost
#: pure diffuse term (1e-6) to an almost fixed dominant one (1e12).
K_DB_MIN = -60.0
K_DB_MAX = 120.0


#: A comment starts with '#' at the start of a line or after whitespace, so
#: values such as paths may contain '#'.
_COMMENT = re.compile(r"(?:^|\s)#")


def read_lines(path, error: type[Exception], what: str) -> list[tuple[int, str, str]]:
    """The (line number, data, comment) of each non-blank line of the UTF-8
    text file at ``path``, both parts stripped; numbers count every line of
    the file. A file that cannot be read or decoded raises ``error``
    naming it as ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path!r}: {exc}") from exc
    lines = []
    for lineno, raw in enumerate(raw_lines, start=1):
        if raw.strip():
            data, *comment = _COMMENT.split(raw, 1)
            lines.append((lineno, data.strip(), comment[0].strip() if comment else ""))
    return lines


def check_header(where: str, line: str, names: tuple[str, ...], error: type[Exception]) -> None:
    """Raise ``error`` at ``where`` (file and line) unless the header row's cells are ``names``."""
    header = tuple(cell.strip() for cell in line.split(","))
    if header != names:
        raise error(f"{where}: header {header} does not match expected {names}")


def read_row(where: str, line: str, count: int, field, error: type[Exception]) -> list[float]:
    """The floats of the ``count`` comma-separated cells of a data line.
    Another number of cells, or a cell that is not a number, raises
    ``error`` naming ``where`` (the file and line) and, for a cell i
    (from 0), its field ``field(i)``."""
    cells = line.split(",")
    if len(cells) != count:
        raise error(f"{where}: expected {count} fields, got {len(cells)}")
    values = []
    for i, cell in enumerate(cells):
        try:
            values.append(float(cell))
        except ValueError:
            raise error(f"{where}: {field(i)}: not a number: {cell.strip()!r}") from None
    return values


def write_rows(path, rows, head=()) -> None:
    """Write the ``head`` lines, then one line of comma-separated ``%s``
    cells per row (a float's ``%s`` is its shortest round-trip repr), at
    once, as UTF-8 with a trailing newline. Rows are tuples of equal
    length."""
    lines = list(head)
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        fmt = ",".join(["%s"] * len(first))
        lines.append(fmt % first)
        lines += [fmt % row for row in rows]
    lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


#: The largest count: numpy sizes and indexes arrays with int64, and a
#: larger integer may not even convert to a float.
COUNT_MAX = 2**63 - 1


def require_count(name: str, value, least: int = 1) -> None:
    """Reject a count that is not an integer (a bool is not one) or lies
    outside [``least``, ``COUNT_MAX``], naming the field. numpy integers
    pass."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if value > COUNT_MAX:
        raise ValueError(f"{name} must be at most 2**63 - 1, got {value}")


def require_positive(name: str, value) -> None:
    """Reject a value that is not a finite number > 0 (NaN is not one),
    naming the field."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def require_grid(count_name: str, count, step_name: str, step, least: int = 1) -> None:
    """Reject a grid of ``count`` points ``step`` apart unless the count
    passes :func:`require_count` with ``least``, the step
    :func:`require_positive`, and the farthest lag, (count - 1) * step, is
    finite."""
    require_count(count_name, count, least)
    require_positive(step_name, step)
    if not math.isfinite((count - 1) * step):
        raise ValueError(f"{step_name} must keep ({count_name} - 1) * {step_name} finite, got {step!r}")


def require_seed(name: str, value) -> None:
    """Reject a seed that is not an integer >= 0 (a bool is not one),
    naming the field. numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


class Environment(enum.Enum):
    LOS = "LOS"
    NLOS = "NLOS"
    LOS_TO_NLOS = "LOS-to-NLOS"


class Polarization(enum.Enum):
    VV = "V-V"
    VH = "V-H"


@dataclass(frozen=True)
class Scenario:
    """Propagation environment plus antenna polarization configuration."""

    environment: Environment
    polarization: Polarization

    def label(self) -> str:
        return f"{self.environment.value} {self.polarization.value}"

    @classmethod
    def parse(cls, text: str) -> "Scenario":
        """Parse a label such as ``"NLOS V-V"`` (case-insensitive)."""
        parts = text.strip().split()
        if len(parts) != 2:
            raise ValueError(f"cannot parse scenario from {text!r}")
        env_txt, pol_txt = parts[0].upper(), parts[1].upper()
        env = {e.value.upper(): e for e in Environment}.get(env_txt)
        pol = {p.value.upper(): p for p in Polarization}.get(pol_txt)
        if env is None or pol is None:
            raise ValueError(f"unknown scenario {text!r}")
        return cls(env, pol)


class ComponentError(ValueError):
    """A CIR component that breaks an invariant; ``index`` is its position."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(f"component {index}: {message}")
        self.index = index


_HALF_PI = math.pi / 2
#: The columns of the table that :class:`ChannelImpulseResponse` checks:
#: (name, lo, hi, rule); a value holds where lo <= value < hi, which NaN
#: fails. The least positive float as the power's lo reads "> 0", the float
#: above pi/2 as an elevation's hi reads "<= pi/2".
_CIR_CHECKS = (
    ("delay", 0.0, math.inf, "finite and >= 0 s"),
    ("delay step", 0.0, math.inf, ">= 0: delays must not decrease"),
    ("power", math.ulp(0.0), math.inf, "finite and > 0"),
    ("phase", 0.0, TWO_PI, "in [0, 2pi)"),
    ("aod azimuth", 0.0, TWO_PI, "in [0, 2pi)"),
    ("aod elevation", -_HALF_PI, math.nextafter(_HALF_PI, math.inf), "in [-pi/2, pi/2]"),
    ("aoa azimuth", 0.0, TWO_PI, "in [0, 2pi)"),
    ("aoa elevation", -_HALF_PI, math.nextafter(_HALF_PI, math.inf), "in [-pi/2, pi/2]"),
)
_CHECK_LO = np.array([c[1] for c in _CIR_CHECKS])
_CHECK_HI = np.array([c[2] for c in _CIR_CHECKS])


@dataclass(frozen=True, eq=False)
class ChannelImpulseResponse:
    """The L multipath components of one CIR, in delay order, plus scenario
    metadata.

    ``delays`` (L,) are absolute propagation delays in seconds, ``powers``
    (L,) linear path powers (|amplitude|^2, relative units), ``phases`` (L,)
    path phases in [0, 2pi), and ``aod``/``aoa`` (L, 2) the (azimuth,
    elevation) departure/arrival angles. The arrays are read-only copies.
    A component that breaks a rule raises :class:`ComponentError`.
    """

    delays: np.ndarray
    powers: np.ndarray
    phases: np.ndarray
    aod: np.ndarray
    aoa: np.ndarray
    scenario: Scenario

    def __post_init__(self) -> None:
        arrays = {name: np.array(getattr(self, name), dtype=float)
                  for name in ("delays", "powers", "phases", "aod", "aoa")}
        d = arrays["delays"]
        if d.ndim != 1 or d.size < 1:
            raise ValueError(f"a CIR needs at least one component and 1-D delays, got shape {d.shape}")
        num = d.size
        for name, shape in (("powers", (num,)), ("phases", (num,)), ("aod", (num, 2)), ("aoa", (num, 2))):
            if arrays[name].shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arrays[name].shape}")
        steps = d - np.append(d[:1], d[:-1])
        table = np.column_stack((d, steps, arrays["powers"], arrays["phases"], arrays["aod"], arrays["aoa"]))
        holds = (table >= _CHECK_LO) & (table < _CHECK_HI)
        if not holds.all():
            i, column = divmod(int(np.argmin(holds)), len(_CIR_CHECKS))  # the first failure, row-major
            name, _, _, rule = _CIR_CHECKS[column]
            raise ComponentError(i, f"{name} {table[i, column]} must be {rule}")
        for name, a in arrays.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def num_components(self) -> int:
        return self.delays.shape[0]


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array; spacing in carrier wavelengths."""

    num_elements: int
    spacing: float = 0.5

    def __post_init__(self) -> None:
        require_grid("num_elements", self.num_elements, "spacing", self.spacing)


@dataclass(frozen=True)
class FadingModel:
    """Small-scale fading law for the local-area copies: Rician with K
    factor ``k_factor_db``, which lies in [K_DB_MIN, K_DB_MAX], or Rayleigh
    when it is None."""

    k_factor_db: float | None = None

    def __post_init__(self) -> None:
        if self.k_factor_db is not None and not K_DB_MIN <= self.k_factor_db <= K_DB_MAX:
            raise ValueError(
                f"Rician fading needs k_factor_db in [{K_DB_MIN:g}, {K_DB_MAX:g}] dB, got {self.k_factor_db}"
            )

    @classmethod
    def rayleigh(cls) -> "FadingModel":
        return cls()

    @classmethod
    def rician(cls, k_factor_db: float) -> "FadingModel":
        return cls(float(k_factor_db))  # float(None) raises: rician(None) is not Rayleigh

    @property
    def is_rician(self) -> bool:
        return self.k_factor_db is not None

    def label(self) -> str:
        return f"rician{self.k_factor_db:g}dB" if self.is_rician else "rayleigh"


@dataclass(frozen=True)
class AutocorrParams:
    """Constants of the exponential spatial-autocorrelation model
    a*exp(-b*dr) - c, with dr in wavelengths."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.a, self.b, self.c))):
            raise ValueError(f"a, b and c must be finite, got ({self.a}, {self.b}, {self.c})")
        if not self.a > 0:
            raise ValueError("a must be > 0")
        if not self.b >= 0:
            raise ValueError("b must be >= 0")
        zero_lag = self.a - self.c
        if not (0.0 < zero_lag <= 1.0 + 1e-12):
            raise ValueError(
                f"a - c = {zero_lag} must lie in (0, 1] "
                "(value at zero separation is a correlation magnitude)"
            )


@dataclass(frozen=True)
class ScenarioDefaults:
    """Fitted parameters for one scenario: exponential autocorrelation
    constants (absent for LOS-to-NLOS) and the Rician K-factor range in dB."""

    autocorr: AutocorrParams | None
    k_range_db: tuple[float, float]

    def mid_k_db(self) -> float:
        lo, hi = self.k_range_db
        return 0.5 * (lo + hi)


_K_RANGES_DB: dict[tuple[Environment, Polarization], tuple[float, float]] = {
    (Environment.LOS, Polarization.VV): (9.0, 15.0),
    (Environment.LOS, Polarization.VH): (3.0, 7.0),
    (Environment.NLOS, Polarization.VV): (5.0, 8.0),
    (Environment.NLOS, Polarization.VH): (3.0, 7.0),
    (Environment.LOS_TO_NLOS, Polarization.VV): (4.0, 7.0),
    (Environment.LOS_TO_NLOS, Polarization.VH): (6.0, 10.0),
}

_AUTOCORR_PARAMS: dict[tuple[Environment, Polarization], AutocorrParams] = {
    (Environment.LOS, Polarization.VV): AutocorrParams(0.99, 1.95, 0.0),
    (Environment.LOS, Polarization.VH): AutocorrParams(1.0, 0.9, 0.05),
    (Environment.NLOS, Polarization.VV): AutocorrParams(0.9, 1.0, -0.1),
    (Environment.NLOS, Polarization.VH): AutocorrParams(1.0, 2.6, 0.0),
}


def lookup_default_params(scenario: Scenario) -> ScenarioDefaults:
    """Measurement-derived defaults for a scenario.

    Returns the fitted (a, b, c) autocorrelation constants and the K-factor
    range in dB. LOS-to-NLOS scenarios carry a K range only; their
    autocorrelation constants were never fitted and come back as None.
    """
    key = (scenario.environment, scenario.polarization)
    return ScenarioDefaults(
        autocorr=_AUTOCORR_PARAMS.get(key),
        k_range_db=_K_RANGES_DB[key],
    )


def all_scenarios() -> list[Scenario]:
    """The full environment x polarization grid (3 x 2 = 6 scenarios)."""
    return [Scenario(e, p) for e in Environment for p in Polarization]


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)
