"""The bare junction and the junction-TLS system, written once.

Model holds the basis, the jump channels, vectorised rates and the no-jump
generator H_eff; the trajectory engine and the master-equation oracle both
build their generators from Model.H_eff.
All matrices are stored as H/hbar in rad/s, so decay rates (1/s) can be
added to the diagonal of the non-Hermitian effective form without unit
conversion.  The lab frame carries the full cos(omega t) drive; the
rotating frame (RWA) rotates at the drive frequency, counting one
excitation per junction or TLS quantum, and permits far larger timesteps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Literal, NamedTuple, Optional

import numpy as np

__all__ = [
    "BASIS",
    "CHANNELS",
    "KILL_HAZARD",
    "Channel",
    "Model",
    "TlsParams",
    "channel_table",
    "landau_zener_probability",
    "crossing_survival_numeric",
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
# spectroscopy; values outside this window are suspicious but not fatal.
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
        lo, hi = PLAUSIBLE_COUPLING_RANGE
        if self.coupling > 0 and not lo * (1 - 1e-9) <= self.coupling <= hi * (1 + 1e-9):
            warnings.warn(
                f"TLS coupling {self.coupling / (2 * math.pi) / 1e6:.3g} MHz is outside "
                f"the usual spectroscopic range [20, 200] MHz",
                stacklevel=2,
            )


# Basis {|0g>, |1g>, |0e>, |1e>}: junction level, then TLS branch.  The
# bare junction keeps the first two states.
BASIS = ("0g", "1g", "0e", "1e")

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

    @property
    def column(self) -> int:
        """Index of this channel's rate in a Model.rates row."""
        return 0 if self.kind == "relax" else 1 + self.source


# Order is fixed: escapes by basis state, then relaxations; the inverse-CDF
# jump selection walks this order.
CHANNELS = (
    Channel("0g", "tunnel", 0, -1, 0),
    Channel("1g", "tunnel", 1, -1, 0),
    Channel("0e", "tunnel", 2, -1, 1),
    Channel("1e", "tunnel", 3, -1, 1),
    Channel("1g->0g", "relax", 1, 0, 0),
    Channel("1e->0e", "relax", 3, 2, 1),
)


_TABLES = {dim: tuple(c for c in CHANNELS if c.source < dim) for dim in (2, 4)}


def _incidence(channels: tuple[Channel, ...], dimension: int) -> np.ndarray:
    """(5, d) 0/1 map from a rate row to the outflow of each state."""
    m = np.zeros((5, dimension))
    for c in channels:
        m[c.column, c.source] = 1.0
    return m


_INCIDENCE = {dim: _incidence(table, dim) for dim, table in _TABLES.items()}


def channel_table(dimension: int) -> tuple[Channel, ...]:
    """The jump channels of the 2- or 4-level system, in canonical order."""
    if dimension not in _TABLES:
        raise PhysicsDomainError("dimension must be 2 or 4")
    return _TABLES[dimension]


class Model:
    """The junction (2 levels) or junction-TLS system (4 levels) on a ramp.

    The one description of the physics that the trajectory engine and the
    master-equation oracle both consume: the basis, the jump channels,
    vectorised rates and the no-jump generator H_eff(I, t, rates).
    Matrices are H/hbar in rad/s; t counts from the ramp start dc_start,
    which fixes the lab-frame drive phase.

    The ramp runs from dc_start to bias_limit().  Along it, levels(I)
    gives the junction splitting and the drive's Rabi frequency, which fix
    H, and spread(w10, om) bounds how far H reaches from the centre of its
    diagonal.  diagonal is true when H is diagonal on the whole ramp: no
    drive, and no TLS or an uncoupled one.
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
        self.dim = 2 if tls is None else 4
        self.basis = BASIS[: self.dim]
        self.channels = channel_table(self.dim)
        # the bias-independent part of H: the TLS level and its exchange
        # coupling to the junction
        self._static = np.zeros((self.dim, self.dim), dtype=complex)
        self.d_tls = self._coupling = 0.0
        if tls is not None:
            self.d_tls = tls.omega_tls - (d.microwave_frequency if frame == "rwa" else 0.0)
            self._coupling = tls.coupling
            self._static[2, 2] = self.d_tls
            self._static[1, 2] = self._static[2, 1] = tls.coupling
        self.diagonal = d.microwave_amplitude == 0.0 and self._coupling == 0.0
        # the entries that vary along the ramp: the microwave drives |0g>-|1g>
        # (and |0e>-|1e>), then the junction-excited diagonal |1g> (and |1e>)
        pairs = ((0, 1), (1, 0), (1, 1)) if self.dim == 2 else (
            (0, 1), (1, 0), (2, 3), (3, 2), (1, 1), (3, 3)
        )
        self._rows, self._cols = np.array(pairs).T

    def rates(self, I: np.ndarray) -> np.ndarray:
        """(n, 5) rate rows at each bias (1/s): gamma10, then the escape
        rates tunnel_0g, tunnel_1g, tunnel_0e, tunnel_1e.

        Beyond the e-branch critical current the e states have no well at
        all; their rates are clamped onto the saturated value, which keeps
        the arrays finite (any e amplitude is long gone by then).
        """
        I = np.asarray(I, dtype=float)
        p = self.p
        I_e = e_branch_bias(p, I)
        out = np.empty((I.size, 5))
        out[:, 0] = relaxation_rate(p, I)
        out[:, 1] = tunneling_rate(p, I, 0, "g")
        out[:, 2] = tunneling_rate(p, I, 1, "g")
        out[:, 3] = tunneling_rate(p, I_e, 0, "e")
        out[:, 4] = tunneling_rate(p, I_e, 1, "e")
        return out

    def outflow(self, rates: np.ndarray) -> np.ndarray:
        """Total outflow rate per basis state (escape plus relaxation) from
        rate rows (..., 5).  Each state sums at most two rates through a
        0/1 map, so the product is exact."""
        return rates @ _INCIDENCE[self.dim]

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
        (rad/s): the bias-dependent inputs of hermitian and spread."""
        w10 = level_splitting(self.p, I, "g")
        return w10, rabi_at_splitting(self.p, self.d.microwave_amplitude, w10)

    def spread(self, w10, om):
        """Bound on ||H - c Id|| (rad/s) for the Hermitian part H built from
        w10 and om, with c half the top diagonal entry of H.  The diagonal
        lies within half the sum of the junction and TLS detunings of c,
        and each row's off-diagonal entries sum to at most the drive
        amplitude plus the TLS coupling."""
        if self.frame == "rwa":
            delta, drive = np.abs(w10 - self.d.microwave_frequency), om / 2.0
        else:
            delta, drive = w10, om
        return 0.5 * (delta + abs(self.d_tls)) + (drive + self._coupling)

    def hazard(self, I: np.ndarray, rate: np.ndarray) -> np.ndarray:
        """Cumulative hazard of a rate sampled on the bias points I, from I[0]
        along the ramp (trapezoidal in dI / ramp_rate)."""
        return np.concatenate(
            ([0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(I) / self.d.ramp_rate))
        )

    def kill_index(self, I: np.ndarray, rates: np.ndarray) -> int:
        """First index of I where the 0g escape hazard reaches KILL_HAZARD
        (the last index if it never does)."""
        killed = np.nonzero(self.hazard(I, rates[:, 1]) >= KILL_HAZARD)[0]
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
        varying = (drive, drive, delta) if self.dim == 2 else (
            drive, drive, drive, drive, delta, delta + self.d_tls
        )
        # H.T puts the matrix axes first, so scalars and arrays fill alike
        H.T[self._cols, self._rows] = varying
        return H

    def H(self, I, t) -> np.ndarray:
        """Hermitian part H/hbar at bias I and ramp time t."""
        return self.hermitian(t, *self.levels(I))

    def H_eff(self, I: np.ndarray, t, rates: np.ndarray) -> np.ndarray:
        """No-jump generator H/hbar - (i/2) diag(outflow) at the n bias
        points I and ramp times t, from their rate rows (n, 5); shape
        (n, d, d)."""
        H = self.H(I, t)
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


def crossing_survival_numeric(
    coupling: float, sweep: float, span_factor: float = 80.0, rtol: float = 1e-10
) -> float:
    """Diabatic survival through a linear avoided crossing by direct
    integration of the two-level Schrodinger equation.

    The crossing Hamiltonian [[eps(t)/2, hbar*coupling], [hbar*coupling,
    -eps(t)/2]] with eps = sweep * t is integrated in the interaction
    picture of its diagonal (amplitude equations with the chirped phase
    phi = sweep t^2 / 2 hbar), which removes the stiff far-detuned
    oscillations.  Returns the probability of remaining in the initial
    diabatic state; the asymptotic closed form is landau_zener_probability.
    """
    if sweep <= 0:
        raise PhysicsDomainError("sweep rate must be > 0")
    if coupling == 0.0:
        return 1.0
    from scipy.integrate import solve_ivp

    t_scale = max(HBAR * coupling / sweep, math.sqrt(HBAR / sweep))
    T = span_factor * t_scale
    half_chirp = 0.5 * sweep / HBAR

    def rhs(t, y):
        phase = half_chirp * t * t
        rot = math.cos(phase) + 1j * math.sin(phase)
        a, b = y[0], y[1]
        return [-1j * coupling * rot * b, -1j * coupling * np.conj(rot) * a]

    sol = solve_ivp(
        rhs,
        (-T, T),
        [1.0 + 0.0j, 0.0j],
        method="DOP853",
        rtol=rtol,
        atol=1e-12,
    )
    if not sol.success:
        raise PhysicsDomainError(f"crossing integration failed: {sol.message}")
    a = sol.y[0, -1]
    return float(abs(a) ** 2)


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
