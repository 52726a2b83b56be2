"""Deterministic master-equation integration of the switching process.

This is the ensemble-level description the stochastic trajectories must
reproduce on average: a Lindblad equation whose no-jump part is exactly the
engine's non-Hermitian generator.  Relaxation refeeds the junction ground
state of each TLS branch; tunneling escape removes population from the
four-level space altogether, so the trace of rho is the survival
probability and the escape flux gives the switching-current density.

Integration uses scipy's adaptive Runge-Kutta, a numerical route entirely
independent of the trajectory engine's fixed-grid propagators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DisjointSupportError, PhysicsDomainError, ToleranceError
from .hamiltonian import Model, TlsParams, channel_table, outflow
from .physics import (
    BiasDrive,
    JunctionParams,
    RateSet,
    level_splitting,
    resonance_current,
    two_level_bias_limit,
)


@dataclass(frozen=True)
class SwitchingDistribution:
    """Ensemble switching-current distribution along the ramp.

    grid : bias currents (A); density : switching probability density
    (1/A); survival : probability of not having switched by each grid
    point.  Conservation: integral of density plus final survival is 1.
    """

    grid: np.ndarray
    density: np.ndarray
    survival: np.ndarray

    def switched_mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid))


def outflow_vector(r: RateSet, dimension: int) -> np.ndarray:
    """Total outflow rate per basis state (escape plus relaxation)."""
    return outflow(r.row(), dimension)


def _lindblad(rho, H, out, gamma10, relax):
    """d rho/dt from H (rad/s), the outflow per state and the relaxation
    (source, target) pairs."""
    drho = -1j * (H @ rho - rho @ H)
    drho -= 0.5 * (out[:, None] + out[None, :]) * rho
    for src, tgt in relax:
        drho[tgt, tgt] += gamma10 * rho[src, src].real
    return drho


def _relax_pairs(dimension: int) -> tuple[tuple[int, int], ...]:
    return tuple((c.source, c.target) for c in channel_table(dimension) if c.kind == "relax")


def lindblad_rhs(rho: np.ndarray, H: np.ndarray, r: RateSet) -> np.ndarray:
    """Time derivative of the density matrix (H in rad/s).

    d rho/dt = -i[H, rho]
               + gamma10 * sum_b (L_b rho L_b+ - 1/2 {L_b+ L_b, rho})
               - 1/2 sum_k Gamma_k {P_k, rho}
    with lowering maps L_b onto the branch ground states and projectors P_k
    onto the four basis states; escape has no refeeding term, so it drains
    the trace.
    """
    dim = rho.shape[0]
    if H.shape != rho.shape:
        raise PhysicsDomainError("H and rho dimensions differ")
    return _lindblad(rho, H, outflow_vector(r, dim), r.gamma10, _relax_pairs(dim))


def _fast_forward_current(
    p: JunctionParams,
    tls: Optional[TlsParams],
    d: BiasDrive,
    dimension: int,
) -> float:
    """Bias current where the master integration may safely begin.

    The stretch below the first spectral landmark is inert: escape hazard
    below 1e-9 and off-resonant excitation transfer below ~1e-4 of the
    population.  Skipping it spares resolving millions of fast coherence
    oscillations that carry no probability flux.
    """
    landmarks = []
    try:
        landmarks.append(resonance_current(p, d.microwave_frequency, "g"))
    except PhysicsDomainError:
        pass
    if dimension == 4 and tls is not None:
        try:
            landmarks.append(resonance_current(p, tls.omega_tls, "g"))
        except PhysicsDomainError:
            pass
    if not landmarks or d.microwave_amplitude == 0.0:
        # no coherent structure to protect; only escape hazard matters
        landmarks = landmarks or [two_level_bias_limit(p, "g")]

    i_first = min(landmarks)
    if i_first <= d.dc_start:
        return d.dc_start

    # pull back from the first landmark until the local transfer scales are
    # perturbative and the escape hazard accumulated from dc_start is nil
    model = Model(p, tls if dimension == 4 else None, d)
    mesh = np.linspace(d.dc_start, i_first, 512)
    w10 = level_splitting(p, mesh, "g")
    safe = np.abs(w10 - d.microwave_frequency) > 40.0 * np.maximum(model.rabi(mesh), 1.0)
    if dimension == 4 and tls is not None and tls.coupling > 0.0:
        safe &= np.abs(w10 - tls.omega_tls) > 12.0 * tls.coupling
    safe &= model.hazard(mesh, model.rates(mesh)[:, 1]) < 1e-9
    idx = np.nonzero(safe)[0]
    if idx.size == 0:
        return d.dc_start
    return float(mesh[idx[-1]])


def integrate_master(
    p: JunctionParams,
    tls: Optional[TlsParams],
    d: BiasDrive,
    frame: str = "rwa",
    grid_resolution: int = 2000,
    rtol: float = 1e-8,
) -> SwitchingDistribution:
    """Integrate the Lindblad equation along the ramp.

    Starts from the ground state (g branch), emits the survival probability
    S(I) = tr rho and the switching density p(I) = sum_k Gamma_k rho_kk /
    (dI/dt) on a uniform current grid from dc_start to the critical
    current.  Local error 1e-8 via adaptive substepping.
    """
    model = Model(p, tls, d, frame)
    dimension = model.dim
    v = d.ramp_rate
    i_limit = two_level_bias_limit(p, "g")

    # integration window: inert stretch skipped, terminal point where the
    # hardiest state's escape hazard kills any survivor
    i_start = _fast_forward_current(p, tls, d, dimension)
    mesh = np.linspace(i_start, i_limit - 1e-12 * p.critical_current, 2049)
    i_end = float(mesh[model.kill_index(mesh, model.rates(mesh))])

    # one dense lookup table over the integration window keeps the RHS
    # cheap: splitting, Rabi frequency and the five rates per row; its
    # resolution (sub-pA) is far below any rate or splitting scale
    table_i = np.linspace(i_start, i_end, 65537)
    table = np.column_stack(
        [level_splitting(p, table_i, "g"), model.rabi(table_i), model.rates(table_i)]
    )
    relax = _relax_pairs(dimension)
    # the drive phase counts from dc_start, as in the engine
    t_offset = (i_start - d.dc_start) / v

    def rhs(t, y):
        rho = y.reshape(dimension, dimension)
        I = i_start + v * t
        x = (I - i_start) / (i_end - i_start) * 65536.0
        k = min(int(x), 65535)
        frac = x - k
        row = table[k] * (1 - frac) + table[k + 1] * frac
        rates = row[2:]
        H = model.hermitian(t + t_offset, row[0], row[1])
        return _lindblad(rho, H, model.outflow(rates), rates[0], relax).ravel()

    def drained(t, y):
        rho = y.reshape(dimension, dimension)
        return float(np.trace(rho).real) - 1e-12

    drained.terminal = True
    drained.direction = -1

    rho0 = np.zeros((dimension, dimension), dtype=complex)
    rho0[0, 0] = 1.0
    t_end = (i_end - i_start) / v
    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        rho0.ravel(),
        method="DOP853",
        rtol=rtol,
        atol=1e-14,
        dense_output=True,
        events=drained,
    )
    if not sol.success:
        raise ToleranceError(f"master-equation integration failed: {sol.message}")
    t_stop = sol.t[-1]

    grid = np.linspace(d.dc_start, i_limit - 1e-12 * p.critical_current, grid_resolution)
    escape = model.rates(grid)[:, [c.column for c in model.channels if c.kind == "tunnel"]]
    density = np.zeros(grid.size)
    survival = np.ones(grid.size)
    for k, I in enumerate(grid):
        if I <= i_start:
            continue
        t = (I - i_start) / v
        if t >= t_stop:
            survival[k] = 0.0
            continue
        rho = sol.sol(t).reshape(dimension, dimension)
        pops = np.clip(np.diag(rho).real, 0.0, None)
        s = min(pops.sum(), 1.0)
        if s <= 1e-9:
            # below this level the dense-output interpolation error, scaled
            # by the exploding escape rates, would masquerade as density
            survival[k] = 0.0
            continue
        survival[k] = s
        density[k] = float(escape[k] @ pops) / v
    survival = np.minimum.accumulate(survival)
    return SwitchingDistribution(grid=grid, density=density, survival=survival)


def distribution_distance(histogram, dist: SwitchingDistribution) -> float:
    """Total-variation distance between a switching histogram and a
    master-equation distribution, integrated over the same bins.

    Mass the distribution places outside the histogram's range (including
    never-switched survival) counts fully toward the distance; disjoint
    supports therefore give 1.
    """
    edges = histogram.bin_edges
    counts = histogram.counts
    n = counts.sum()
    if n <= 0:
        raise DisjointSupportError("histogram is empty")

    cum = np.concatenate(([0.0], np.cumsum(
        0.5 * (dist.density[1:] + dist.density[:-1]) * np.diff(dist.grid)
    )))
    total_mass = cum[-1] + dist.survival[-1]

    def cum_at(x):
        return float(np.interp(x, dist.grid, cum, left=0.0, right=cum[-1]))

    q = np.array([cum_at(hi) - cum_at(lo) for lo, hi in zip(edges[:-1], edges[1:])])
    p_hat = counts / n
    inside = q.sum()
    outside = max(total_mass - inside, 0.0)
    return float(0.5 * (np.abs(p_hat - q).sum() + outside))
