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
import numbers
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

#: Relative tolerance for the cached total power of a CIR.
TOTAL_POWER_RTOL = 1e-12


def require_count(name: str, value) -> None:
    """Reject a count that is not an integer (a bool is not one) or is
    below 1, naming the field. numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


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


def _check_angle_pair(name: str, pair: tuple[float, float]) -> None:
    az, el = pair
    if not (0.0 <= az < TWO_PI):
        raise ValueError(f"{name} azimuth {az} outside [0, 2pi)")
    if not (-math.pi / 2 <= el <= math.pi / 2):
        raise ValueError(f"{name} elevation {el} outside [-pi/2, pi/2]")


@dataclass(frozen=True)
class MultipathComponent:
    """One resolvable propagation path.

    power_gain is the linear path power (|amplitude|^2, relative units),
    phase the path phase in [0, 2pi), delay the absolute propagation delay
    in seconds, aod/aoa the (azimuth, elevation) departure/arrival angles.
    """

    power_gain: float
    phase: float
    delay: float
    aod: tuple[float, float]
    aoa: tuple[float, float]

    def __post_init__(self) -> None:
        if not (self.power_gain > 0 and math.isfinite(self.power_gain)):
            raise ValueError(f"power_gain must be finite and > 0, got {self.power_gain}")
        if not (0.0 <= self.phase < TWO_PI):
            raise ValueError(f"phase {self.phase} outside [0, 2pi)")
        if not (self.delay >= 0 and math.isfinite(self.delay)):
            raise ValueError(f"delay must be finite and >= 0, got {self.delay}")
        _check_angle_pair("aod", self.aod)
        _check_angle_pair("aoa", self.aoa)


@dataclass(frozen=True)
class ChannelImpulseResponse:
    """Ordered multipath components plus scenario metadata.

    ``total_power`` caches the sum of component power gains; use
    :func:`validate_cir` to check structural invariants without raising.
    """

    components: tuple[MultipathComponent, ...]
    scenario: Scenario
    total_power: float

    @classmethod
    def from_components(
        cls, components, scenario: Scenario
    ) -> "ChannelImpulseResponse":
        comps = tuple(components)
        total = sum(c.power_gain for c in comps)
        return cls(components=comps, scenario=scenario, total_power=total)

    @property
    def num_components(self) -> int:
        return len(self.components)

    def delays(self) -> list[float]:
        return [c.delay for c in self.components]

    def power_gains(self) -> list[float]:
        return [c.power_gain for c in self.components]


def validate_cir(cir: ChannelImpulseResponse) -> list[str]:
    """Return the list of violated CIR invariants (empty means valid)."""
    violations: list[str] = []
    if cir.num_components < 1:
        violations.append("K >= 1: CIR must contain at least one component")
    prev_delay = -math.inf
    for i, comp in enumerate(cir.components):
        if comp.delay < prev_delay:
            violations.append(
                f"non-decreasing delays: component {i} at {comp.delay} s "
                f"precedes component {i - 1} at {prev_delay} s"
            )
        prev_delay = comp.delay
        if not comp.power_gain > 0:
            violations.append(f"component {i}: power_gain must be > 0")
    total = sum(c.power_gain for c in cir.components)
    if cir.num_components >= 1:
        scale = max(abs(total), abs(cir.total_power), 1e-300)
        if abs(total - cir.total_power) > TOTAL_POWER_RTOL * scale:
            violations.append(
                f"total_power cache {cir.total_power} != component sum {total}"
            )
    return violations


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array; spacing in carrier wavelengths."""

    num_elements: int
    spacing: float = 0.5

    def __post_init__(self) -> None:
        require_count("num_elements", self.num_elements)
        if not (self.spacing > 0 and math.isfinite(self.spacing)):
            raise ValueError(f"spacing must be finite and > 0, got {self.spacing}")


@dataclass(frozen=True)
class FadingModel:
    """Small-scale fading law for the local-area copies.

    kind is "rayleigh" or "rician"; k_factor_db is present iff Rician.
    """

    kind: str
    k_factor_db: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("rayleigh", "rician"):
            raise ValueError(f"unknown fading kind {self.kind!r}")
        if self.kind == "rician":
            if self.k_factor_db is None or not math.isfinite(self.k_factor_db):
                raise ValueError("Rician fading requires a finite k_factor_db")
        elif self.k_factor_db is not None:
            raise ValueError("k_factor_db is only meaningful for Rician fading")

    @classmethod
    def rayleigh(cls) -> "FadingModel":
        return cls(kind="rayleigh")

    @classmethod
    def rician(cls, k_factor_db: float) -> "FadingModel":
        return cls(kind="rician", k_factor_db=k_factor_db)

    @property
    def is_rician(self) -> bool:
        return self.kind == "rician"

    def label(self) -> str:
        if self.is_rician:
            return f"rician{self.k_factor_db:g}dB"
        return "rayleigh"


@dataclass(frozen=True)
class AutocorrParams:
    """Constants of the exponential spatial-autocorrelation model
    a*exp(-b*dr) - c, with dr in wavelengths."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
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
