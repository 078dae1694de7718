"""Closed-form gas-physical quantities.

Friction factor, compressibility, the fixed-velocity linearization
constants for pipes and resistors, adiabatic head and compression power.
All functions are pure; pressures are in Pa unless a function says
otherwise (Papay's formula is stated, and kept, in bar).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

STANDARD_GRAVITY = 9.80665  # m/s^2
ISENTROPIC_EXPONENT = 1.296
PAPAY_MAX_BAR = 150.0


class PapayRangeWarning(UserWarning):
    """Pressure outside the validity range of Papay's formula."""


@dataclass(frozen=True)
class GasConstants:
    """Gas-mixture constants shared by a whole station.

    specific_gas_constant  R_s in J/(kg K)
    temperature            gas temperature in K (assumed constant)
    pseudo_critical_pressure     in bar
    pseudo_critical_temperature  in K
    normal_density         rho_0 in kg/m^3, fixes the kg/s <-> 1000 m^3/h map
    isentropic_exponent    kappa, dimensionless
    """

    specific_gas_constant: float
    temperature: float
    pseudo_critical_pressure: float
    pseudo_critical_temperature: float
    normal_density: float
    isentropic_exponent: float = ISENTROPIC_EXPONENT

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if not value > 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.isentropic_exponent > 1.0:
            raise ValueError("isentropic_exponent must exceed 1")


def cross_section_area(diameter: float) -> float:
    """Cross-sectional area of a cylindrical pipe, d^2 pi / 4."""
    return diameter * diameter * math.pi / 4.0


def nikuradse_friction(diameter: float, roughness: float) -> float:
    """Friction factor (2 log10(D/k) + 1.138)^-2 for fully turbulent flow."""
    if diameter <= 0.0 or roughness <= 0.0:
        raise ValueError("diameter and roughness must be positive")
    return (2.0 * math.log10(diameter / roughness) + 1.138) ** -2


def papay_z(pressure_bar: float, constants: GasConstants) -> float:
    """Compressibility factor by Papay's approximation.

    Valid up to 150 bar; outside that range the value is still returned
    but a :class:`PapayRangeWarning` is emitted (bounds data may
    transiently exceed validity).
    """
    if pressure_bar < 0.0 or pressure_bar > PAPAY_MAX_BAR:
        warnings.warn(
            f"Papay's formula evaluated at {pressure_bar} bar, outside [0, {PAPAY_MAX_BAR}]",
            PapayRangeWarning,
            stacklevel=2,
        )
    pr = pressure_bar / constants.pseudo_critical_pressure
    tr = constants.temperature / constants.pseudo_critical_temperature
    return 1.0 - 3.52 * pr * math.exp(-2.26 * tr) + 0.247 * pr * pr * math.exp(-1.878 * tr)


def pipe_average_z(p_left_pa: float, p_right_pa: float, constants: GasConstants) -> float:
    """Constant per-pipe z: average of the end values at the initial state."""
    from .units import pa_to_bar

    return 0.5 * (papay_z(pa_to_bar(p_left_pa), constants) + papay_z(pa_to_bar(p_right_pa), constants))


def pipe_velocity_constant(
    end_pressure0: float, end_flow0: float, area: float, z: float, constants: GasConstants
) -> float:
    """Fixed absolute velocity (R_s T z / A) |q| / p at one pipe end, m/s.

    Computed once from the initial state; zero exactly when the initial
    flow is zero.
    """
    if end_pressure0 <= 0.0:
        raise ValueError("initial pressure must be positive")
    return (
        constants.specific_gas_constant
        * constants.temperature
        * z
        / area
        * abs(end_flow0)
        / end_pressure0
    )


def resistor_velocity_constant(
    p_left0: float, p_right0: float, flow0: float, area: float, z: float, constants: GasConstants
) -> float:
    """Average of the two end velocities of a resistor at the initial state."""
    vl = pipe_velocity_constant(p_left0, flow0, area, z, constants)
    vr = pipe_velocity_constant(p_right0, flow0, area, z, constants)
    return 0.5 * (vl + vr)


def adiabatic_head(
    ratio: float | np.ndarray, z_inlet: float | np.ndarray, constants: GasConstants
) -> float | np.ndarray:
    """Specific change in adiabatic enthalpy H_ad in J/kg for pr/pl = ratio >= 1.

    Works elementwise on arrays; a float input returns a float.  Raises
    if any ratio is below 1, naming the smallest.
    """
    ratio = np.asarray(ratio, dtype=float)
    if np.any(ratio < 1.0):
        raise ValueError(f"pressure ratio must be >= 1, got {float(ratio.min())}")
    kappa = constants.isentropic_exponent
    head = (
        constants.specific_gas_constant
        * constants.temperature
        * z_inlet
        * kappa
        / (kappa - 1.0)
        * (np.power(ratio, (kappa - 1.0) / kappa) - 1.0)
    )
    return float(head) if np.ndim(head) == 0 else head


def ratio_from_head(head: float, z_inlet: float, constants: GasConstants) -> float:
    """Monotone inverse of :func:`adiabatic_head`."""
    if head < 0.0:
        raise ValueError(f"adiabatic head must be >= 0, got {head}")
    kappa = constants.isentropic_exponent
    scale = constants.specific_gas_constant * constants.temperature * z_inlet * kappa / (kappa - 1.0)
    return (1.0 + head / scale) ** (kappa / (kappa - 1.0))


def compression_power(
    mass_flow: float | np.ndarray,
    p_left: float | np.ndarray,
    p_right: float | np.ndarray,
    z_inlet: float,
    efficiency: float,
    constants: GasConstants,
) -> float | np.ndarray:
    """Drive power P = q H_ad / eta_ad in W.

    Works elementwise on arrays of flows and pressures; a float input
    returns a float.  Zero exactly wherever the flow is zero or no
    compression happens.  Raises if any inlet pressure is not positive,
    any outlet pressure is below its inlet pressure or the efficiency lies
    outside (0, 1].
    """
    mass_flow, p_left, p_right = (np.asarray(v, dtype=float) for v in (mass_flow, p_left, p_right))
    if np.any(p_left <= 0.0):
        raise ValueError("inlet pressure must be positive")
    if np.any(p_right < p_left):
        raise ValueError("outlet pressure must not be below inlet pressure")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("adiabatic efficiency must lie in (0, 1]")
    idle = (mass_flow == 0.0) | (p_right == p_left)
    power = np.where(
        idle, 0.0, mass_flow * adiabatic_head(p_right / p_left, z_inlet, constants) / efficiency
    )
    return float(power) if np.ndim(power) == 0 else power
