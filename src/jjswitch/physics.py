"""Closed-form physics of a current-biased Josephson junction.

Cubic-well spectra, barrier height, and all incoherent rates (relaxation and
macroscopic quantum tunneling) as functions of the dc bias current.  Every
function is pure and accepts either a scalar bias current or a numpy array of
bias currents; results broadcast accordingly.

Internal units are SI throughout, with angular frequencies in rad/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from .constants import E_CHARGE, HBAR, K_BOLTZMANN, PHI0, R_QUANTUM
from .errors import NoBracketError, PhysicsDomainError, ToleranceError

Branch = Literal["g", "e"]
FloatOrArray = Union[float, np.ndarray]

# Cubic-well WKB exponent coefficient: 36/5 per unit of barrier/plasma-quantum
WKB_EXPONENT = 7.2
# Below this barrier ratio the closed-form WKB prefactor is no longer
# trustworthy; the rate is bridged monotonically up to the saturation cap.
WKB_VALIDITY_FLOOR = 1.0


@dataclass(frozen=True)
class JunctionParams:
    """Static junction configuration in the RCSJ picture.

    critical_current : A
    capacitance : F
    shunt_resistance : Ohm
    temperature : K
    tls_critical_suppression : fractional reduction of the critical current
        seen when the coupled two-level defect sits in its excited state.
    """

    critical_current: float
    capacitance: float
    shunt_resistance: float
    temperature: float = 0.018
    tls_critical_suppression: float = 0.0

    def __post_init__(self):
        if self.critical_current <= 0:
            raise PhysicsDomainError("critical_current must be > 0")
        if self.capacitance <= 0:
            raise PhysicsDomainError("capacitance must be > 0")
        if self.shunt_resistance <= 0:
            raise PhysicsDomainError("shunt_resistance must be > 0")
        if self.temperature < 0:
            raise PhysicsDomainError("temperature must be >= 0")
        if not 0.0 <= self.tls_critical_suppression <= 0.1:
            raise PhysicsDomainError(
                "tls_critical_suppression must lie in [0, 0.1]"
            )


@dataclass(frozen=True)
class BiasDrive:
    """Bias-current program: dc ramp plus microwave modulation.

    dc_start : A; ramp_rate : A/s; microwave_amplitude : A;
    microwave_frequency : rad/s.
    """

    dc_start: float
    ramp_rate: float
    microwave_amplitude: float
    microwave_frequency: float

    def __post_init__(self):
        if self.ramp_rate <= 0:
            raise PhysicsDomainError("ramp_rate must be > 0")
        if self.microwave_amplitude < 0:
            raise PhysicsDomainError("microwave_amplitude must be >= 0")
        if self.microwave_frequency <= 0:
            raise PhysicsDomainError("microwave_frequency must be > 0")


def effective_critical_current(p: JunctionParams, branch: Branch) -> float:
    """Critical current seen by the junction for the given TLS branch."""
    if branch == "g":
        return p.critical_current
    if branch == "e":
        return p.critical_current * (1.0 - p.tls_critical_suppression)
    raise PhysicsDomainError(f"unknown branch {branch!r}")


def e_branch_bias(p: JunctionParams, I_dc: FloatOrArray) -> FloatOrArray:
    """Bias seen by the e-branch rates: capped just below the suppressed
    critical current, where the e well vanishes and its rates saturate."""
    return np.minimum(I_dc, effective_critical_current(p, "e") * (1.0 - 1e-12))


def _well(p: JunctionParams, branch: Branch) -> tuple[float, float, float]:
    """The cubic well of one branch: I0_eff (A) and the untilted prefactors
    c_w = 2^(1/4) (2 pi I0_eff / Phi0 C)^(1/2) (rad/s) and
    c_u = 2 sqrt(2) I0_eff Phi0 / 3 pi (J), so that at eps = 1 - I/I0_eff
    omega_p = c_w eps^(1/4) and dU = c_u eps^(3/2)."""
    i0 = effective_critical_current(p, branch)
    c_w = 2.0 ** 0.25 * math.sqrt(2.0 * math.pi * i0 / (PHI0 * p.capacitance))
    c_u = 2.0 * math.sqrt(2.0) * i0 * PHI0 / (3.0 * math.pi)
    return i0, c_w, c_u


def _tilt(i0: float, I_dc: FloatOrArray, branch: Branch) -> FloatOrArray:
    """Reduced barrier parameter 1 - I/I0_eff, validated positive."""
    eps = 1.0 - np.asarray(I_dc, dtype=float) / i0
    if np.any(eps <= 0.0):
        raise PhysicsDomainError(
            f"bias current must stay below the {branch}-branch critical current"
        )
    if np.isscalar(I_dc):
        return float(eps)
    return eps


def plasma_frequency(p: JunctionParams, I_dc: FloatOrArray, branch: Branch = "g") -> FloatOrArray:
    """Small-oscillation frequency at the bottom of the tilted well (rad/s),
    omega_p = c_w (1 - I/I0_eff)^(1/4) (see _well)."""
    i0, c_w, _ = _well(p, branch)
    return c_w * _tilt(i0, I_dc, branch) ** 0.25


def barrier_height(p: JunctionParams, I_dc: FloatOrArray, branch: Branch = "g") -> FloatOrArray:
    """Energy barrier of the metastable well (J),
    dU = c_u (1 - I/I0_eff)^(3/2) (see _well)."""
    i0, _, c_u = _well(p, branch)
    return c_u * _tilt(i0, I_dc, branch) ** 1.5


def barrier_ratio(p: JunctionParams, I_dc: FloatOrArray, branch: Branch = "g") -> FloatOrArray:
    """Barrier height in units of the plasma quantum, dU / (hbar omega_p)."""
    return barrier_height(p, I_dc, branch) / (HBAR * plasma_frequency(p, I_dc, branch))


def level_splitting(p: JunctionParams, I_dc: FloatOrArray, branch: Branch = "g") -> FloatOrArray:
    """|0> to |1> transition frequency with the cubic anharmonic correction (rad/s).

    omega_10 = omega_p (1 - (5/36) hbar omega_p / dU).  Raises when the well
    is too shallow to hold two levels (corrected value <= 0).
    """
    wp = plasma_frequency(p, I_dc, branch)
    u = barrier_ratio(p, I_dc, branch)
    w10 = wp * (1.0 - (5.0 / 36.0) / u)
    if np.any(w10 <= 0.0):
        raise PhysicsDomainError(
            "well too shallow for two levels (anharmonic correction drives "
            "the splitting non-positive)"
        )
    return w10


def two_level_bias_limit(p: JunctionParams, branch: Branch = "g") -> float:
    """Largest bias current at which the well still holds two levels (A).

    Closed form: the barrier ratio scales as eps^(5/4), so the edge sits at
    eps_min = (5/36 / K)^(4/5) with K the zero-tilt barrier ratio prefactor.
    """
    i0, c_w, c_u = _well(p, branch)
    k = c_u / (HBAR * c_w)
    eps_min = ((5.0 / 36.0) / k) ** 0.8
    return i0 * (1.0 - eps_min)


def resonance_current(
    p: JunctionParams, omega_target: float, branch: Branch = "g", rtol: float = 1e-10
) -> float:
    """Bias current at which the level splitting equals omega_target (A).

    With x = eps^(1/4) the splitting is algebraic, omega_10 = c_w x - a x^-4
    with a = (5/36) hbar c_w^2 / c_u (see _well), and increasing and concave
    in x.  So Newton's method started at x = omega_target / c_w, below the
    root, climbs monotonically; it stops once a step no longer raises x.
    NoBracketError for targets at or above the zero-bias splitting, or below
    the splitting 1e-13 I0 short of the shallow-well edge, or where one ulp
    of I moves omega_10 by more than rtol * omega_target; else
    ToleranceError unless |omega_10(I) - omega_target| <= rtol * omega_target.
    """
    if not omega_target > 0:
        raise NoBracketError("target frequency must be > 0")
    i0, c_w, c_u = _well(p, branch)
    w_max = level_splitting(p, 0.0, branch)
    if omega_target >= w_max:
        raise NoBracketError(
            f"target {omega_target:.6g} rad/s exceeds the zero-bias splitting "
            f"{w_max:.6g} rad/s"
        )
    i_hi = two_level_bias_limit(p, branch)
    if level_splitting(p, i_hi * (1.0 - 1e-13 * i0 / i_hi), branch) > omega_target:
        raise NoBracketError(
            "target frequency below the splitting at the shallow-well edge"
        )
    a = (5.0 / 36.0) * HBAR * c_w**2 / c_u
    x = omega_target / c_w
    while True:
        step = (omega_target - c_w * x + a * x**-4) / (c_w + 4.0 * a * x**-5)
        if not x + step > x:
            break
        x += step
    i_res = i0 * (1.0 - x**4)
    achieved = level_splitting(p, i_res, branch)
    if abs(achieved - omega_target) > rtol * omega_target:
        # omega_10 moves by |d omega_10 / dI| ulp(I) between neighbouring
        # doubles I; near the shallow edge that can exceed the tolerance
        reach = (c_w + 4.0 * a * x**-5) / (4.0 * i0 * x**3) * math.ulp(i_res)
        if rtol * omega_target < reach:
            raise NoBracketError(
                f"target {omega_target:.6g} rad/s lies where double precision "
                f"resolves the splitting only to {reach:.3g} rad/s, above "
                f"rtol={rtol} of it"
            )
        raise ToleranceError(
            f"resonance search converged to {achieved:.12g} rad/s, outside "
            f"rtol={rtol} of {omega_target:.12g} rad/s"
        )
    return float(i_res)


def relaxation_rate(p: JunctionParams, I_dc: FloatOrArray) -> FloatOrArray:
    """Junction energy relaxation rate gamma_10 (1/s).

    gamma_10 = (omega_10/2pi)(R_Q/R)[1 + coth(hbar omega_10 / 2 k_B T)]
               * |<0|delta|1>|^2
    with the harmonic-well matrix element |<0|delta|1>|^2 = 2e^2/(hbar
    omega_10 C).  At T = 0 this reduces exactly to 1/(RC).
    """
    w10 = level_splitting(p, I_dc, "g")
    matrix_element_sq = 2.0 * E_CHARGE**2 / (HBAR * w10 * p.capacitance)
    if p.temperature == 0.0:
        thermal = 2.0
    else:
        x = HBAR * w10 / (2.0 * K_BOLTZMANN * p.temperature)
        thermal = 1.0 + 1.0 / np.tanh(x)
    return (w10 / (2.0 * math.pi)) * (R_QUANTUM / p.shunt_resistance) * thermal * matrix_element_sq


def saturation_rate(p: JunctionParams, branch: Branch = "g") -> float:
    """Finite escape-rate cap used once the barrier above a level is gone (1/s).

    The zero-bias attempt frequency omega_p(0)/2pi; any state in this regime
    escapes within one integrator step.
    """
    return plasma_frequency(p, 0.0, branch) / (2.0 * math.pi)


def _analytic_rate_from_ratio(u_level: FloatOrArray, wp: FloatOrArray, cap: float) -> FloatOrArray:
    """Cubic-well WKB escape rate as a function of the level barrier ratio.

    For u >= 1 the standard closed form applies; for 0 < u < 1 the rate is
    bridged geometrically to the saturation cap at u = 0 so the result stays
    continuous and strictly increasing as the barrier collapses; for u <= 0
    the cap itself is returned.
    """
    u = np.asarray(u_level, dtype=float)
    wp = np.broadcast_to(np.asarray(wp, dtype=float), u.shape)
    attempt = wp / (2.0 * math.pi)

    u_wkb = np.maximum(u, WKB_VALIDITY_FLOOR)
    rate_wkb = attempt * np.sqrt(120.0 * math.pi * WKB_EXPONENT * u_wkb) * np.exp(-WKB_EXPONENT * u_wkb)

    # Bridge region: cap * (rate_wkb(1)/cap)^u, monotone in u since the edge
    # rate is always below the cap.
    edge = attempt * math.sqrt(120.0 * math.pi * WKB_EXPONENT) * math.exp(-WKB_EXPONENT)
    u_bridge = np.clip(u, 0.0, WKB_VALIDITY_FLOOR)
    rate_bridge = cap * (edge / cap) ** u_bridge

    out = np.where(u >= WKB_VALIDITY_FLOOR, rate_wkb, rate_bridge)
    if u.ndim == 0:
        return float(out)
    return out


def tunneling_rate(
    p: JunctionParams,
    I_dc: FloatOrArray,
    level: int,
    branch: Branch = "g",
) -> FloatOrArray:
    """Macroscopic-quantum-tunneling escape rate from level 0 or 1 (1/s).

    Cubic-well WKB closed form with the level-n barrier
    dU_n = dU - n hbar omega_p; array-capable.  Once the barrier above the
    level is gone the saturated rate omega_p(0)/2pi is returned so ramp
    integration always terminates.
    """
    if level not in (0, 1):
        raise PhysicsDomainError("level must be 0 or 1")
    wp = plasma_frequency(p, I_dc, branch)
    u_total = barrier_ratio(p, I_dc, branch)
    return _analytic_rate_from_ratio(u_total - level, wp, saturation_rate(p, branch))


def _rabi_scale_sq(p: JunctionParams, w10: FloatOrArray) -> FloatOrArray:
    """2 hbar omega_10 C, the squared microwave current per unit Rabi frequency."""
    return 2.0 * HBAR * w10 * p.capacitance


def rabi_at_splitting(p: JunctionParams, I_uw: float, w10: FloatOrArray) -> FloatOrArray:
    """Microwave drive (Rabi) frequency Omega_m (rad/s) where the junction
    splitting is w10 (rad/s).

    Omega_m = I_uw sqrt(1 / (2 hbar omega_10 C)); exactly linear in the
    microwave amplitude.
    """
    if I_uw < 0:
        raise PhysicsDomainError("microwave amplitude must be >= 0")
    return I_uw * np.sqrt(1.0 / _rabi_scale_sq(p, w10))


def microwave_amplitude_for_rabi(p: JunctionParams, omega_rabi: float, I_dc: float) -> float:
    """Invert the Rabi relation: microwave current needed for omega_rabi (A)."""
    if omega_rabi < 0:
        raise PhysicsDomainError("Rabi frequency must be >= 0")
    return omega_rabi * math.sqrt(_rabi_scale_sq(p, level_splitting(p, I_dc, "g")))
