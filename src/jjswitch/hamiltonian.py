"""The bare junction and the junction-TLS system, written once.

Model generates the structure of the system from two facts: the junction
keeps LEVELS levels, and a TLS, when present, doubles them into its g and
e branches.  From these it builds the basis, the jump channels (an escape
from every state, a relaxation from every excited level), vectorised
rates with one column per channel, and the no-jump generator H_eff.  The
trajectory engine and the master-equation oracle read that structure from
Model alone.
All matrices are stored as H/hbar in rad/s, so decay rates (1/s) can be
added to the diagonal of the non-Hermitian effective form without unit
conversion.  The lab frame carries the full cos(omega t) drive; the
rotating frame (RWA) rotates at the drive frequency, counting one
excitation per junction or TLS quantum, and permits far larger timesteps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple, Optional

import numpy as np

__all__ = [
    "KILL_HAZARD",
    "Channel",
    "Model",
    "TlsParams",
    "landau_zener_probability",
    "sweep_rate",
]

from .constants import HBAR
from .errors import PhysicsDomainError
from .physics import (
    BiasDrive,
    JunctionParams,
    e_branch_bias,
    level_splitting,
    rabi_at_splitting,
    relaxation_rate,
    resonance_current,
    tunneling_rate,
    two_level_bias_limit,
)

FrameKind = Literal["lab", "rwa"]

# Coupling strengths reported for junction-TLS avoided crossings in
# spectroscopy; values outside this window are suspicious but not fatal,
# and the lz report says whether the coupling lies inside it.
PLAUSIBLE_COUPLING_RANGE = (2.0 * math.pi * 20e6, 2.0 * math.pi * 200e6)

@dataclass(frozen=True)
class TlsParams:
    """Two-level defect: splitting and junction coupling, both rad/s."""

    omega_tls: float
    coupling: float

    def __post_init__(self):
        if self.omega_tls <= 0:
            raise PhysicsDomainError("omega_tls must be > 0")
        if self.coupling < 0:
            raise PhysicsDomainError("coupling must be >= 0")


# Junction levels kept per TLS branch, and the branch names by TLS flag.
LEVELS = 2
BRANCHES = "ge"

# Cumulative escape hazard of the hardiest state (0g) past which a ramp is
# over: survival e^-50 is far below any sampled probability.
KILL_HAZARD = 50.0


class Channel(NamedTuple):
    """One jump channel: a tunneling escape ends the ramp, a relaxation
    collapses onto its target state.  flag is the TLS branch it leaves."""

    name: str
    kind: str  # "tunnel" | "relax"
    source: int
    target: int  # -1 for an escape
    flag: int


class Model:
    """The junction (LEVELS states) or junction-TLS system (2 x LEVELS
    states) on a ramp.

    The one description of the physics that the trajectory engine and the
    master-equation oracle both consume: the basis, the jump channels,
    vectorised rates and the no-jump generator H_eff(I, rates).  Basis
    state flag * LEVELS + n is junction level n of TLS branch flag, named
    like "1g"; ground holds each branch's junction ground state, where
    trajectories start and relaxations land.  The channels are an escape
    from each basis state, in basis order, so channel s escapes from state
    s; then the relaxation of each excited level to the level below.  The
    inverse-CDF jump pick walks this order.
    Matrices are H/hbar in rad/s.  Time enters only through the lab-frame
    drive phase, and H_eff alone reads it off the bias: the ramp time is
    (I - dc_start) / ramp_rate.  max_step is the longest step the frame
    resolves: a twentieth of a drive period in the lab frame, unbounded in
    the rotating frame.

    The ramp runs from dc_start to bias_limit().  Along it, levels(I)
    gives the junction splitting and the drive's Rabi frequency, which fix
    H.  diagonal is true when H is diagonal on the whole ramp: no drive,
    and no TLS or an uncoupled one.
    """

    def __init__(
        self,
        p: JunctionParams,
        tls: Optional[TlsParams],
        d: BiasDrive,
        frame: FrameKind = "rwa",
    ):
        if frame not in ("lab", "rwa"):
            raise PhysicsDomainError(f"unknown frame {frame!r}")
        self.p, self.tls, self.d, self.frame = p, tls, d, frame
        self.max_step = 2.0 * math.pi / (20.0 * d.microwave_frequency) if frame == "lab" else math.inf
        branches = BRANCHES if tls is not None else BRANCHES[:1]
        self.basis = tuple(f"{n}{b}" for b in branches for n in range(LEVELS))
        self.dim = len(self.basis)
        self.ground = tuple(range(0, self.dim, LEVELS))
        self.channels = tuple(
            Channel(name, "tunnel", s, -1, s // LEVELS) for s, name in enumerate(self.basis)
        ) + tuple(
            Channel(f"{self.basis[s]}->{self.basis[s - 1]}", "relax", s, s - 1, s // LEVELS)
            for s in range(self.dim)
            if s % LEVELS
        )
        self._incidence = np.eye(self.dim)[[c.source for c in self.channels]]
        # the bias-independent part of H: the TLS level of the e states and
        # its exchange coupling of |1g> and |0e>
        self._static = np.zeros((self.dim, self.dim), dtype=complex)
        coupling = 0.0
        if tls is not None:
            coupling = tls.coupling
            e = np.arange(self.ground[1], self.dim)
            self._static[e, e] = tls.omega_tls - (d.microwave_frequency if frame == "rwa" else 0.0)
            g1, e0 = self.basis.index("1g"), self.basis.index("0e")
            self._static[g1, e0] = self._static[e0, g1] = coupling
        self.diagonal = d.microwave_amplitude == 0.0 and coupling == 0.0
        # the entries that vary along the ramp: the microwave drives each
        # branch's 0-1 transition, and w10 lifts each branch's excited level
        lo = np.array(self.ground)
        self._drive = np.concatenate((lo, lo + 1)), np.concatenate((lo + 1, lo))
        self._excited = lo + 1

    def rates(self, I: np.ndarray) -> np.ndarray:
        """(n, channels) rate rows at each bias (1/s): the rate of each jump
        channel, in the order of channels.  A state escapes at the
        tunneling rate of its level in its branch's well, and every
        relaxation runs at gamma10.

        Beyond the e-branch critical current the e states have no well at
        all; their rates are clamped onto the saturated value, which keeps
        the arrays finite (any e amplitude is long gone by then).
        """
        I = np.asarray(I, dtype=float)
        bias = [I] if self.tls is None else [I, e_branch_bias(self.p, I)]
        gamma10 = relaxation_rate(self.p, I)
        out = np.empty((I.size, len(self.channels)))
        for k, c in enumerate(self.channels):
            if c.kind == "relax":
                out[:, k] = gamma10
            else:
                level = c.source % LEVELS
                out[:, k] = tunneling_rate(self.p, bias[c.flag], level, BRANCHES[c.flag])
        return out

    def outflow(self, rates: np.ndarray) -> np.ndarray:
        """Total outflow rate per basis state (escape plus relaxation) from
        rate rows (..., channels).  Each state sums at most two rates
        through a 0/1 map from the channel sources, so the product is
        exact."""
        return rates @ self._incidence

    def bias_limit(self) -> float:
        """Top of the ramp (A): just inside the largest bias at which the
        g-branch well holds two levels.  Raises PhysicsDomainError when
        dc_start is not below it."""
        i_hi = two_level_bias_limit(self.p, "g") - 1e-12 * self.p.critical_current
        if not self.d.dc_start < i_hi:
            raise PhysicsDomainError("dc_start is beyond the two-level domain of the junction")
        return i_hi

    def levels(self, I):
        """Junction splitting w10 and drive Rabi frequency om at bias I
        (rad/s): the bias-dependent inputs of hermitian."""
        w10 = level_splitting(self.p, I, "g")
        return w10, rabi_at_splitting(self.p, self.d.microwave_amplitude, w10)

    def hazard(self, I: np.ndarray, rate: np.ndarray) -> np.ndarray:
        """Cumulative hazard of a rate sampled on the bias points I, from I[0]
        along the ramp (trapezoidal in dI / ramp_rate)."""
        return np.concatenate(
            ([0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(I) / self.d.ramp_rate))
        )

    def kill_index(self, I: np.ndarray, rates: np.ndarray) -> int:
        """First index of I where the hazard of the 0g escape, channel 0,
        reaches KILL_HAZARD (the last index if it never does)."""
        killed = np.nonzero(self.hazard(I, rates[:, 0]) >= KILL_HAZARD)[0]
        return int(killed[0]) if killed.size else I.size - 1

    def hermitian(self, t, w10, om) -> np.ndarray:
        """Hermitian part H/hbar from the splitting w10 and Rabi frequency om,
        shape (..., d, d) for inputs of shape (...).

        lab : drive Om cos(w t) on the junction transitions, levels w10, w_TLS
        rwa : drive Om/2, levels detuned by the drive frequency w
        """
        if self.frame == "rwa":
            drive, delta = 0.5 * om, w10 - self.d.microwave_frequency
        else:
            drive, delta = om * np.cos(self.d.microwave_frequency * t), w10
        H = np.empty(np.shape(delta) + self._static.shape, dtype=complex)
        H[...] = self._static
        # H.T puts the matrix axes first, so scalars and arrays fill alike
        rows, cols = self._drive
        H.T[cols, rows] = drive
        H.T[self._excited, self._excited] += delta
        return H

    def H_eff(self, I: np.ndarray, rates: np.ndarray) -> np.ndarray:
        """No-jump generator H/hbar - (i/2) diag(outflow) at the n bias
        points I, from their rate rows (n, channels); shape (n, d, d).
        The ramp time, which fixes the lab-frame drive phase, is the bias
        past dc_start over the ramp rate."""
        t = (I - self.d.dc_start) / self.d.ramp_rate
        H = self.hermitian(t, *self.levels(I))
        k = np.arange(self.dim)
        H[:, k, k] -= 0.5j * self.outflow(rates)
        return H


def landau_zener_probability(coupling: float, sweep: float) -> float:
    """Asymptotic diabatic survival probability through an avoided crossing.

    P_LZ = exp(-2 pi hbar coupling^2 / sweep) with the coupling in rad/s and
    the sweep rate of the diabatic energy spacing in J/s.
    """
    if sweep <= 0:
        raise PhysicsDomainError("sweep rate must be > 0")
    if coupling < 0:
        raise PhysicsDomainError("coupling must be >= 0")
    return math.exp(-2.0 * math.pi * HBAR * coupling**2 / sweep)


def sweep_rate(p: JunctionParams, tls: TlsParams, d: BiasDrive) -> float:
    """Energy-spacing sweep rate at the junction-TLS crossing (J/s).

    v = hbar |d omega_10 / d I| * (dI/dt), the slope taken by central finite
    difference (relative step 1e-6) at the current where omega_10 crosses the
    TLS splitting.
    """
    i_cross = resonance_current(p, tls.omega_tls, "g")
    h = 1e-6 * i_cross
    slope = (
        level_splitting(p, i_cross + h, "g") - level_splitting(p, i_cross - h, "g")
    ) / (2.0 * h)
    return HBAR * abs(slope) * d.ramp_rate
