"""Deterministic master-equation integration of the switching process.

This is the ensemble-level description the stochastic trajectories must
reproduce on average: a Lindblad equation whose no-jump part is exactly the
engine's non-Hermitian generator.  Relaxation refeeds the junction ground
state of each TLS branch; tunneling escape removes population from the
four-level space altogether, so the trace of rho is the survival
probability and the escape flux gives the switching-current density.

The generator is built as a real Liouvillian on the d^2 real coordinates
of rho, stacked over bias points, and propagated with the exponential
midpoint rule (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006)): each
step is the exponential of the generator frozen at the step's midpoint,
and step doubling sets the step count.  The exponential is the engine's
taylor_exp at degree 16, scaled to keep its truncation error below the
unit roundoff (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
The routes share nothing else: not the grid, the step rule or the
unravelling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import taylor_exp
from .errors import DisjointSupportError, ToleranceError
from .hamiltonian import Model, TlsParams
from .physics import BiasDrive, JunctionParams

# Most exponentials stacked at once.  A stack of 1024 real generators of the
# four-level system holds 2 MiB.  Under tracemalloc, _expm of such a stack
# peaks at 12 MiB and one chunk of _propagators at 16 MiB (default.cfg, one
# step per cell).
_CHUNK = 1024
# Step doubling gives up past this many midpoint steps per output cell.
_MAX_STEPS = 2**20
# Largest |switched mass + final survival - 1| distribution_distance takes.
# The trapezoid over the output grid misjudges the mass of a density peak
# narrower than a few grid cells (1.0075 on bare_junction.cfg, about 9 when
# all switching falls in one cell); the exact switched mass of a
# flag-resolved escape (ROADMAP item 6) is the real fix.
_MASS_TOL = 0.01


def __getattr__(name):
    # bench/traced.py wraps oracle.solve_ivp, which the oracle does not
    # call: import it only on that access, so no command loads scipy
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def liouvillian(model: Model, I: np.ndarray) -> np.ndarray:
    """Lindblad generator at the bias points I, shape (n, d^2, d^2), acting
    on the real coordinates of rho (see _real_coordinates).

    On the row-major vec(rho), L = -i (H_eff x 1 - 1 x H_eff*) holds the
    no-jump evolution rho -> -i (H_eff rho - rho H_eff^+) and the escape
    drain.  It is real-linear in H_eff, so its real form is one product of
    [Re H_eff, Im H_eff] with a table of the unit generators' images.  Each
    relaxation channel refeeds its target population from its source
    population at its rate.  Model.H_eff reads the ramp time, and with it
    the lab-frame drive phase, off the bias, as the engine's steps do.
    """
    I = np.atleast_1d(np.asarray(I, dtype=float))
    rates = model.rates(I)
    H_eff = model.H_eff(I, rates).reshape(I.size, -1)
    d = model.dim
    h = np.concatenate((H_eff.real, H_eff.imag), axis=1)
    L = (h @ _no_jump_table(d)).reshape(I.size, d * d, d * d)
    for k, c in enumerate(model.channels):
        if c.kind == "relax":
            L[:, c.target, c.source] += rates[:, k]
    return L


@functools.cache
def _no_jump_table(d: int) -> np.ndarray:
    """Real form of rho -> -i (H rho - rho H^+) for each of the 2 d^2 unit
    generators H (a real 1 at each row-major entry, then an imaginary one),
    shape (2 d^2, d^4): [Re H_eff, Im H_eff] times it is the no-jump part of
    liouvillian."""
    units = np.eye(2 * d * d).reshape(2 * d * d, 2, d, d)
    H = units[:, 0] + 1j * units[:, 1]
    eye = np.eye(d)
    L = np.einsum("nij,kl->nikjl", H, eye) - np.einsum("ij,nkl->nikjl", eye, H.conj())
    T = _real_coordinates(d)
    table = (T @ (-1j * L).reshape(-1, d * d, d * d) @ T.conj().T).real
    table = table.reshape(2 * d * d, -1)
    table.flags.writeable = False
    return table


def _real_coordinates(d: int) -> np.ndarray:
    """Unitary map from vec(rho) to the d^2 real coordinates of a Hermitian
    rho: the d populations, then sqrt(2) Re rho_ij and sqrt(2) Im rho_ij for
    i < j.  A Lindblad generator is real in these coordinates, and a real
    exponential costs about a third of a complex one."""
    T = np.zeros((d * d, d * d), dtype=complex)
    T[np.arange(d), np.arange(d) * (d + 1)] = 1.0
    row = d
    for i in range(d):
        for j in range(i + 1, d):
            T[row, [i * d + j, j * d + i]] = 1.0 / math.sqrt(2.0)
            T[row + 1, [i * d + j, j * d + i]] = -1j / math.sqrt(2.0), 1j / math.sqrt(2.0)
            row += 2
    return T


def _expm(A: np.ndarray) -> np.ndarray:
    """Exponential of each real matrix of the stack A, shape (n, D, D): the
    engine's taylor_exp, which scales A in place."""
    if not np.isfinite(A).all():
        raise ToleranceError("master equation: non-finite generator")
    return taylor_exp(A)


def _propagators(model: Model, lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Propagator of the real coordinates of rho across each bias cell
    [lo, hi]: the product of n exponential-midpoint steps, exponentiated
    _CHUNK at a time."""
    if n > _CHUNK:  # halve the cells until one chunk holds a cell's steps
        mid = 0.5 * (lo + hi)
        return _propagators(model, mid, hi, n // 2) @ _propagators(model, lo, mid, n // 2)
    D = model.dim**2
    out = np.empty((lo.size, D, D))
    frac = (np.arange(n) + 0.5) / n
    per = _CHUNK // n
    for a in range(0, lo.size, per):
        l, w = lo[a : a + per], hi[a : a + per] - lo[a : a + per]
        L = liouvillian(model, (l[:, None] + w[:, None] * frac).ravel())
        L *= np.repeat(w / (n * model.d.ramp_rate), n)[:, None, None]
        steps = _expm(L).reshape(-1, n, D, D)
        P = steps[:, 0]
        for j in range(1, n):
            P = steps[:, j] @ P
        out[a : a + per] = P
    return out


def _states(model: Model, lo: np.ndarray, hi: np.ndarray, rtol: float) -> np.ndarray:
    """Real coordinates of rho at lo[0], starting in |0><0|, and at the end
    of each bias cell [lo, hi].

    Each cell is crossed by n exponential midpoint steps, starting from
    the least power of two that keeps every step within the model's
    max_step.  Step doubling sets n per cell: it is doubled until n and 2n
    steps, applied to the state at the cell start, give end states whose
    coordinates differ by at most rtol.  The state starts with unit trace,
    so rtol is relative to it.  The doubled result is kept.
    """
    longest = (hi - lo).max(initial=0.0) / model.d.ramp_rate
    n = 2 ** math.ceil(math.log2(max(longest / model.max_step, 1.0)))
    coarse = _propagators(model, lo, hi, n)
    fine = _propagators(model, lo, hi, 2 * n)
    rho = np.zeros((lo.size + 1, model.dim**2))
    rho[0, 0] = 1.0
    todo = np.arange(lo.size)
    while True:
        for k, P in enumerate(fine):
            rho[k + 1] = P @ rho[k]
        err = np.abs(np.einsum("kij,kj->ki", fine[todo] - coarse[todo], rho[todo])).max(axis=1)
        if not np.isfinite(err).all():
            raise ToleranceError("master equation: non-finite propagator")
        todo = todo[err > rtol]
        if not todo.size:
            return rho
        n *= 2
        if n > _MAX_STEPS:
            raise ToleranceError(
                f"master equation: {todo.size} cells need over {_MAX_STEPS} steps"
            )
        coarse[todo] = fine[todo]
        fine[todo] = _propagators(model, lo[todo], hi[todo], 2 * n)


def integrate_master(
    p: JunctionParams,
    tls: Optional[TlsParams],
    d: BiasDrive,
    frame: str = "rwa",
    grid_resolution: int = 2000,
    rtol: float = 1e-6,
) -> SwitchingDistribution:
    """Integrate the Lindblad equation along the ramp.

    Starts from the ground state (g branch), emits the survival probability
    S(I) = tr rho and the switching density p(I) = sum_k Gamma_k rho_kk /
    (dI/dt) on a uniform current grid from dc_start to the critical
    current.  Each cell of the grid is crossed by exponential midpoint
    steps, doubled until the state at the cell end moves by at most rtol
    (see _states).  Past the point where the hardiest state's escape
    hazard kills any survivor, survival and density are 0.
    """
    model = Model(p, tls, d, frame)
    grid = np.linspace(d.dc_start, model.bias_limit(), grid_resolution)
    rates = model.rates(grid)
    last = model.kill_index(grid, rates)
    rho = np.zeros((grid.size, model.dim**2))
    rho[: last + 1] = _states(model, grid[:last], grid[1 : last + 1], rtol)
    pops = np.clip(rho[:, : model.dim], 0.0, None)
    # channel k < dim is the escape from basis state k
    density = np.einsum("nk,nk->n", rates[:, : model.dim], pops) / d.ramp_rate
    survival = np.minimum.accumulate(np.minimum(pops.sum(axis=1), 1.0))
    return SwitchingDistribution(grid=grid, density=density, survival=survival)


def distribution_distance(histogram, dist: SwitchingDistribution) -> float:
    """Total-variation distance between a switching histogram and a
    master-equation distribution, integrated over the same bins.

    Mass the distribution places outside the histogram's range (including
    never-switched survival) counts fully toward the distance; disjoint
    supports therefore give 1.  A distribution whose switched mass plus
    final survival is off 1 by more than _MASS_TOL has no TV distance, and
    raises ToleranceError.
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
    if abs(total_mass - 1.0) > _MASS_TOL:
        raise ToleranceError(
            f"master equation: switched mass plus survival is {total_mass:.6g}, not 1"
        )
    q = np.diff(np.interp(edges, dist.grid, cum, left=0.0, right=cum[-1]))
    p_hat = counts / n
    inside = q.sum()
    outside = max(total_mass - inside, 0.0)
    return float(0.5 * (np.abs(p_hat - q).sum() + outside))
