"""Quantum-jump Monte Carlo engine for ramped switching-current trajectories.

A single trajectory alternates deterministic non-Hermitian evolution with
stochastic jumps: at every step the bias current advances, the no-jump
generator and the incoherent rates are rebuilt, one uniform random number
decides between "no jump", a relaxation collapse, or a tunneling escape
that terminates the ramp and registers the switching current.

Implementation notes that matter for reproducibility and speed:

* The step schedule (a "ramp grid") is a pure function of the configuration,
  never of the stochastic state, so every trajectory of a run shares it and
  results cannot depend on batching or worker count.
* One step of the classic explicit 4th-order integrator applied to the
  linear system i dpsi/dt = H_eff psi with H_eff frozen over the step equals
  multiplication by the degree-4 Taylor polynomial of exp(-i H_eff dt).
  The batch runner therefore precomputes that matrix per step (dropping a
  physically irrelevant global phase by centring the Hermitian diagonal)
  and advances every live trajectory with one small matrix product.
* Random numbers come from counter-based streams: draw n of trajectory k is
  a pure function of (master_seed, k, n).  See rng.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rng
from .errors import ConfigError, PhysicsDomainError, StepSizeError
from .hamiltonian import (
    KILL_HAZARD,
    Model,
    RatesFn,
    TlsParams,
    channel_table,
    outflow,
    with_decay,
)
from .physics import (
    BiasDrive,
    JunctionParams,
    RateSet,
    level_splitting,
    two_level_bias_limit,
)

NORM_GROWTH_TOL = 1e-12


@dataclass
class QuantumState:
    """Trajectory state: complex amplitudes plus simulation bookkeeping."""

    amplitudes: np.ndarray
    t: float = 0.0
    I_dc: float = 0.0
    flag: int = 0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape not in ((2,), (4,)):
            raise PhysicsDomainError("state dimension must be 2 or 4")
        if self.flag not in (0, 1):
            raise PhysicsDomainError("flag must be 0 or 1")
        if self.amplitudes.shape == (2,) and self.flag != 0:
            raise PhysicsDomainError("two-level states always carry flag 0")

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[0]

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass(frozen=True)
class JumpEvent:
    """A stochastic collapse: terminal tunneling escape or internal relaxation."""

    kind: str  # "tunnel" | "relax"
    channel: str
    t: float
    I_dc: float


@dataclass
class SwitchRecord:
    """Outcome of one ramp: the switching current and its jump history.

    n_relax_events is carried explicitly so records can cross process
    boundaries without their full event logs.
    """

    ramp_index: int
    switching_current: float
    flag_at_switch: int
    events: list[JumpEvent] = field(default_factory=list)
    n_relax_events: int = 0


@dataclass(frozen=True)
class EngineConfig:
    """Integration and sampling controls for trajectory runs.

    dt is chosen each step as the tightest of: dt_max, the jump-probability
    cap dt_rate_cap / (sum of raw rates), the per-step phase bound
    theta_max / ||H||, and in the lab frame one twentieth of the drive
    period.  master_seed roots all random streams.
    """

    dimension: int = 4
    frame: str = "rwa"
    master_seed: int = 20260808
    ramps: int = 2000
    dt_max: float = 5e-9
    dt_rate_cap: float = 0.05
    theta_max: float = 0.15
    init_flag: int = 0
    step_ceiling: int = 10**9

    def __post_init__(self):
        if self.dimension not in (2, 4):
            raise ConfigError("dimension must be 2 or 4")
        if self.frame not in ("lab", "rwa"):
            raise ConfigError("frame must be 'lab' or 'rwa'")
        if self.ramps < 1:
            raise ConfigError("ramps must be >= 1")
        if self.dt_max <= 0 or self.dt_rate_cap <= 0 or self.theta_max <= 0:
            raise ConfigError("dt caps must be > 0")
        if self.dt_rate_cap > 1.0:
            raise ConfigError("dt_rate_cap must be <= 1")
        if self.init_flag not in (0, 1):
            raise ConfigError("init_flag must be 0 or 1")
        if self.dimension == 2 and self.init_flag != 0:
            raise ConfigError("two-level runs must start with flag 0")
        if self.step_ceiling < 1:
            raise ConfigError("step_ceiling must be >= 1")


def channel_rates(r: RateSet, dimension: int) -> np.ndarray:
    """Raw channel rates in canonical order (tunnels, then relaxations)."""
    return r.row()[[c.column for c in channel_table(dimension)]]


def evolve_step(state: QuantumState, H_eff: np.ndarray, dt: float) -> QuantumState:
    """Advance the amplitudes by one explicit 4th-order step of
    i dpsi/dt = H_eff psi (H_eff in rad/s, frozen over the step).

    No renormalization: between jumps the shrinking norm carries the
    no-jump probability.  Raises StepSizeError if the norm grows beyond
    1e-12 relative, which signals an oversized dt or a malformed H_eff.
    """
    psi = state.amplitudes
    if H_eff.shape != (state.dimension, state.dimension):
        raise PhysicsDomainError("H_eff dimension does not match the state")

    def deriv(v):
        return -1j * (H_eff @ v)

    k1 = deriv(psi)
    k2 = deriv(psi + 0.5 * dt * k1)
    k3 = deriv(psi + 0.5 * dt * k2)
    k4 = deriv(psi + dt * k3)
    new = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    n_old = float(np.vdot(psi, psi).real)
    n_new = float(np.vdot(new, new).real)
    if n_new > n_old * (1.0 + NORM_GROWTH_TOL):
        raise StepSizeError(
            f"norm grew by {n_new / n_old - 1.0:.3e} in one step; reduce dt "
            "or check H_eff"
        )
    return QuantumState(new, state.t + dt, state.I_dc, state.flag)


def jump_decision(
    state: QuantumState, r: RateSet, dt: float, u: float
) -> Optional[JumpEvent]:
    """Decide whether a jump fires during this step and, if so, which channel.

    The total jump probability is dt * sum_k rate_k |<src_k|psi>|^2 /
    ||psi||^2; the channel is selected with the same uniform draw by
    inverse CDF over the canonical channel order.
    """
    channels = channel_table(state.dimension)
    pops = np.abs(state.amplitudes) ** 2
    norm2 = pops.sum()
    if norm2 <= 0.0:
        return None
    sources = [c.source for c in channels]
    probs = dt * channel_rates(r, state.dimension) * pops[sources] / norm2
    cum = np.cumsum(probs)
    if u >= cum[-1]:
        return None
    c = channels[int(np.searchsorted(cum, u, side="right"))]
    return JumpEvent(c.kind, c.name, state.t, state.I_dc)


def apply_relax(state: QuantumState, channel: str) -> QuantumState:
    """Collapse onto the relaxation target basis state with unit norm.

    The TLS flag follows the target branch; time and bias are untouched.
    """
    relax = {c.name: c for c in channel_table(state.dimension) if c.kind == "relax"}
    if channel not in relax:
        raise PhysicsDomainError(f"{channel!r} is not a relaxation channel")
    c = relax[channel]
    psi = np.zeros(state.dimension, dtype=complex)
    psi[c.target] = 1.0
    return QuantumState(psi, state.t, state.I_dc, c.flag)


# ---------------------------------------------------------------------------
# Ramp grid: the deterministic step schedule shared by all trajectories
# ---------------------------------------------------------------------------

_MESH_POINTS = 4097  # coarse-mesh edges for step-size planning
_CHUNK = 65536       # propagator steps materialized at a time
_U_BLOCK = 2048      # uniforms precomputed per trajectory at a time

# Step-size refinement zones.  The tight phase cap theta_max applies where
# population transfer actually happens: within DRIVE_ZONE Rabi widths of the
# drive resonance and CROSS_ZONE couplings of the junction-TLS crossing.
# Elsewhere the dynamics is adiabatic riding with perturbative admixtures
# (which re-equilibrate every few steps), and the cap is relaxed by
# THETA_RELAX; the phase advance per step still resolves every level gap,
# since the cap scales with the spectral spread itself.
_DRIVE_ZONE = 8.0
_CROSS_ZONE = 3.0
_THETA_RELAX = 3.0

# The one-step propagator is assembled from 2^k integrator substeps so that
# the phase advance per substep stays below this target; the truncation of
# the degree-4 polynomial then damps the norm by < 1e-9 per substep, which
# keeps amplitude ratios faithful over multi-million-step ramps.
_THETA_SUBSTEP = 0.05


def taylor_propagator(H: np.ndarray, dt: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """One-step maps of i dpsi/dt = H psi for a stack of frozen generators.

    Each step's map is 2^k classic RK4 substeps, composed by repeated
    squaring of the degree-4 Taylor polynomial of exp(-i H dt / 2^k); k is
    chosen per step so the phase advance per substep, theta / 2^k with
    theta a bound on ||H|| dt, stays below the accuracy target.
    """
    n_half = np.ceil(np.log2(np.maximum(theta / _THETA_SUBSTEP, 1.0))).astype(np.int64)
    A = -1j * (dt / 2.0**n_half)[:, None, None] * H
    A2 = A @ A
    eye = np.eye(H.shape[-1], dtype=complex)
    P = eye + A + 0.5 * A2 + (1.0 / 6.0) * (A2 @ A) + (1.0 / 24.0) * (A2 @ A2)
    for k in range(int(n_half.max()) if n_half.size else 0):
        doubled = n_half > k
        P[doubled] = P[doubled] @ P[doubled]
    return P


class RampGrid:
    """Precomputed per-step physics for one ramp configuration.

    Steps are planned on a coarse bias mesh: within each cell the step size
    is the tightest of the configured ceilings evaluated at the cell edges,
    and the cell is divided evenly so the fine grid lands exactly on cell
    boundaries.  The grid ends once the cumulative escape hazard of the
    hardiest state (ground level, g branch) exceeds KILL_HAZARD, after
    which survival probability is e^(-KILL_HAZARD).
    """

    def __init__(
        self,
        p: JunctionParams,
        tls: Optional[TlsParams],
        d: BiasDrive,
        cfg: EngineConfig,
        rates_fn: Optional[RatesFn] = None,
    ):
        if cfg.dimension == 4 and tls is None:
            raise ConfigError("four-level runs need TLS parameters")
        self.model = Model(p, tls if cfg.dimension == 4 else None, d, cfg.frame, rates_fn)
        self.p, self.tls, self.d, self.cfg = p, tls, d, cfg
        self.dimension = cfg.dimension
        self.frame = cfg.frame
        self._columns = [c.column for c in self.model.channels]
        # With no drive and (for 4 levels) no TLS coupling the Hamiltonian is
        # diagonal for the entire ramp: amplitudes never interfere, so their
        # Hermitian phases are gauge and only the decay part is integrated.
        self.diagonal_only = d.microwave_amplitude == 0.0 and (
            cfg.dimension == 2 or (tls is not None and tls.coupling == 0.0)
        )
        self._build()

    # -- step-size scales ------------------------------------------------------

    def _hamiltonian_scale(
        self, I: np.ndarray, rates: np.ndarray, include_decay: bool = True
    ) -> np.ndarray:
        """Upper bound on ||H_eff - center*Id|| per point (rad/s).

        The outer step size is planned against the Hermitian part only
        (include_decay=False): huge escape rates on extinct levels need no
        outer resolution.  The integrator substep count uses the full bound.
        """
        w10 = level_splitting(self.p, I, "g")
        omega_m = self.model.rabi(I)
        if self.frame == "rwa":
            delta = np.abs(w10 - self.d.microwave_frequency)
        else:
            delta = w10
        if self.dimension == 4:
            half_spread = 0.5 * (delta + abs(self.model.d_tls))
            row = omega_m / (2.0 if self.frame == "rwa" else 1.0) + self.tls.coupling
        else:
            half_spread = 0.5 * delta
            row = omega_m / (2.0 if self.frame == "rwa" else 1.0)
        out = half_spread + row
        if include_decay:
            out = out + 0.5 * (rates[:, 0] + rates[:, 1:].max(axis=1))
        return out

    def _offdiagonal_scale(self, I: np.ndarray) -> np.ndarray:
        omega_m = self.model.rabi(I)
        if self.dimension == 4:
            return np.maximum(omega_m, self.tls.coupling)
        return omega_m

    # -- construction ----------------------------------------------------------

    def _build(self):
        p, d, cfg, model = self.p, self.d, self.cfg, self.model
        v = d.ramp_rate
        i_hi = two_level_bias_limit(p, "g") - 1e-12 * p.critical_current
        if not d.dc_start < i_hi:
            raise PhysicsDomainError(
                "dc_start is beyond the two-level domain of the junction"
            )

        mesh = np.linspace(d.dc_start, i_hi, _MESH_POINTS)
        rates = model.rates(mesh)
        last = max(model.kill_index(mesh, rates), 1)
        mesh, rates = mesh[: last + 1], rates[: last + 1]

        # Jump-probability ceiling, per basis state.  A state gets the
        # strict per-step cap while its own cumulative outflow hazard is
        # below KILL_HAZARD -- i.e. while trajectories can statistically
        # still dwell in it.  Past extinction only unit jump probability
        # per step is enforced: refilled amplitude there is both tiny and
        # doomed within a step, so its sampling granularity is immaterial.
        state_out = model.outflow(rates)
        if self.dimension == 4:
            reachable = (0, 2) if self.diagonal_only else (0, 1, 2, 3)
        else:
            reachable = (0,) if self.diagonal_only else (0, 1)
        scale = self._hamiltonian_scale(mesh, rates, include_decay=False)
        offdiag = self._offdiagonal_scale(mesh)

        with np.errstate(divide="ignore"):
            dt_rate = np.full(mesh.shape, np.inf)
            for s in reachable:
                out_s = state_out[:, s]
                haz_s = model.hazard(mesh, out_s)
                # past extinction a state imposes no constraint: amplitude
                # refilled there is both negligible and doomed within one
                # step, so only its (irrelevant) death timing quantizes
                cap_s = np.where(haz_s < KILL_HAZARD, cfg.dt_rate_cap / out_s, np.inf)
                dt_rate = np.minimum(dt_rate, cap_s)
            if self.diagonal_only:
                dt_theta = np.full(mesh.shape, np.inf)
            else:
                w10 = level_splitting(self.p, mesh, "g")
                omega_m = model.rabi(mesh)
                near = np.abs(w10 - self.d.microwave_frequency) < _DRIVE_ZONE * omega_m
                if self.dimension == 4 and self.tls.coupling > 0.0:
                    near |= (
                        np.abs(w10 - self.tls.omega_tls)
                        < _CROSS_ZONE * self.tls.coupling
                    )
                theta = np.where(near, cfg.theta_max, _THETA_RELAX * cfg.theta_max)
                # past the last transfer zone only escape-rate accumulation
                # matters for the survivors; relax the phase cap once more
                if np.any(near):
                    past = np.arange(mesh.size) > np.nonzero(near)[0][-1]
                    theta[past] *= _THETA_RELAX
                dt_theta = np.where(offdiag > 0.0, theta / scale, np.inf)
        dt_edge = np.minimum(np.minimum(dt_rate, dt_theta), cfg.dt_max)
        if self.frame == "lab":
            dt_edge = np.minimum(
                dt_edge, 2.0 * math.pi / (20.0 * d.microwave_frequency)
            )

        # per-cell step size from the tighter edge; even subdivision keeps
        # the fine grid exactly on mesh boundaries
        dt_cell = np.minimum(dt_edge[:-1], dt_edge[1:])
        width = np.diff(mesh)
        cell_time = width / v
        m_cell = np.maximum(1, np.ceil(cell_time / dt_cell).astype(np.int64))
        total = int(m_cell.sum())
        if total > cfg.step_ceiling:
            raise ConfigError(
                f"ramp grid needs {total} steps, above the ceiling "
                f"{cfg.step_ceiling}; check rates and dt caps"
            )

        first = np.concatenate(([0], np.cumsum(m_cell)))[:-1]
        k_in = np.arange(total) - np.repeat(first, m_cell) + 1
        frac = k_in / np.repeat(m_cell, m_cell)
        self.I_end = np.repeat(mesh[:-1], m_cell) + frac * np.repeat(width, m_cell)
        self.dt = np.repeat(cell_time / m_cell, m_cell)
        self.t_end = np.cumsum(self.dt)
        self.I_mid = self.I_end - 0.5 * v * self.dt
        self.t_mid = self.t_end - 0.5 * self.dt
        self.n_steps = total

        # per-step physics at the step midpoint
        self.rates = model.rates(self.I_mid)
        if self.diagonal_only:
            # only the decay diagonal is integrated (see hamiltonian_chunk)
            self._scale = 0.5 * (
                self.rates[:, 0] + self.rates[:, 1:].max(axis=1)
            )
        else:
            self._scale = self._hamiltonian_scale(self.I_mid, self.rates)
        self.outflow = model.outflow(self.rates)
        self.outflow_dt = self.outflow * self.dt[:, None]

    def channel_dt_row(self, n: int) -> np.ndarray:
        """Per-channel rate * dt at step n (built on demand: jumps are rare)."""
        return self.rates[n, self._columns] * self.dt[n]

    # -- propagators -----------------------------------------------------------

    def hamiltonian_chunk(self, lo: int, hi: int) -> np.ndarray:
        """Effective Hamiltonians (hi-lo, d, d) with the Hermitian diagonal
        centred on zero (a pure global-phase shift)."""
        dim = self.dimension
        k = np.arange(dim)
        if self.diagonal_only:
            # pure gauge: only the decay part survives (see __init__)
            H = np.zeros((hi - lo, dim, dim), dtype=complex)
        else:
            H = self.model.H(self.I_mid[lo:hi], self.t_mid[lo:hi])
            # |0g> sits at zero: centre between it and the top level
            H[:, k, k] -= 0.5 * H[:, -1:, -1].real
        H[:, k, k] -= 0.5j * self.outflow[lo:hi]
        return H

    def propagator_chunk(self, lo: int, hi: int) -> np.ndarray:
        """Transposed one-step propagators P^T for steps [lo, hi) (see
        taylor_propagator); trajectories advance as psi @ P^T."""
        dt = self.dt[lo:hi]
        P = taylor_propagator(self.hamiltonian_chunk(lo, hi), dt, self._scale[lo:hi] * dt)
        return np.ascontiguousarray(np.transpose(P, (0, 2, 1)))


# ---------------------------------------------------------------------------
# Batched trajectory runner
# ---------------------------------------------------------------------------


def run_trajectories(
    p: JunctionParams,
    tls: Optional[TlsParams],
    d: BiasDrive,
    cfg: EngineConfig,
    init_flags: Sequence[int],
    stream_ids: Sequence[int],
    rates_fn: Optional[RatesFn] = None,
    grid: Optional[RampGrid] = None,
    collect_events: bool = True,
) -> list[SwitchRecord]:
    """Run one ramp per (init_flag, stream_id) pair, all sharing one grid.

    Every trajectory consumes exactly one uniform per step from its own
    counter-based stream, so results are independent of batch composition;
    records come back ordered like the inputs with ramp_index = stream_id.
    """
    if grid is None:
        grid = RampGrid(p, tls, d, cfg, rates_fn)
    dim = cfg.dimension
    init_flags = np.asarray(init_flags, dtype=int)
    stream_ids = np.asarray(stream_ids, dtype=int)
    if init_flags.shape != stream_ids.shape or init_flags.ndim != 1:
        raise ConfigError("init_flags and stream_ids must be 1-d and equal length")
    if dim == 2 and np.any(init_flags != 0):
        raise ConfigError("two-level runs must start with flag 0")
    n = init_flags.size

    keys = rng.stream_keys(cfg.master_seed, stream_ids)
    psi = np.zeros((n, dim), dtype=complex)
    psi[np.arange(n), np.where(init_flags == 0, 0, 2)] = 1.0  # |0g> or |0e>

    prev_norm2 = np.ones(n)
    n_alive = n

    records: list[Optional[SwitchRecord]] = [None] * n
    events: list[list[JumpEvent]] = [[] for _ in range(n)]
    n_relax = [0] * n

    channels = grid.model.channels
    sources = np.array([c.source for c in channels])
    tol = 1.0 + NORM_GROWTH_TOL

    step = 0
    total = grid.n_steps
    u_block = np.empty((0, n))
    u_block_start = 0
    while step < total and n_alive > 0:
        hi = min(step + _CHUNK, total)
        pt = grid.propagator_chunk(step, hi)
        # rescaling the amplitudes is decision-invariant (every comparison
        # is homogeneous in ||psi||^2); it keeps norms away from underflow
        live = prev_norm2 > 0.0
        scale = np.where(live, np.sqrt(prev_norm2), 1.0)
        psi /= scale[:, None]
        prev_norm2 = live.astype(float)
        for k in range(hi - step):
            nstep = step + k
            psi = psi @ pt[k]
            pops = psi.real**2 + psi.imag**2
            norm2 = pops.sum(axis=1)
            if np.any(norm2 > prev_norm2 * tol):
                raise StepSizeError(
                    f"norm increased at step {nstep}; dt caps too loose"
                )
            dp = pops @ grid.outflow_dt[nstep]

            if nstep >= u_block_start + u_block.shape[0]:
                u_block_start = nstep
                u_block = rng.uniforms(keys, nstep, min(_U_BLOCK, total - nstep))
            u = u_block[nstep - u_block_start]

            fired = (u * norm2) < dp
            if fired.any():
                rows = np.nonzero(fired)[0]
                lhs = u[rows] * norm2[rows]
                contrib = pops[rows][:, sources] * grid.channel_dt_row(nstep)
                cum = np.cumsum(contrib, axis=1)
                picked = (lhs[:, None] >= cum).sum(axis=1)
                t_now = grid.t_end[nstep]
                i_now = grid.I_end[nstep]
                for row, j in zip(rows, picked):
                    c = channels[j]
                    ev = JumpEvent(c.kind, c.name, t_now, i_now)
                    if c.kind == "tunnel":  # escape terminates the ramp
                        events[row].append(ev)
                        records[row] = SwitchRecord(
                            ramp_index=int(stream_ids[row]),
                            switching_current=i_now,
                            flag_at_switch=c.flag,
                            events=events[row] if collect_events else [ev],
                            n_relax_events=n_relax[row],
                        )
                        psi[row] = 0.0
                        norm2[row] = 0.0
                        n_alive -= 1
                    else:  # relaxation collapse
                        if collect_events:
                            events[row].append(ev)
                        n_relax[row] += 1
                        psi[row] = 0.0
                        psi[row, c.target] = 1.0
                        norm2[row] = 1.0
            prev_norm2 = norm2
            if n_alive == 0:
                break
        step = hi

    if n_alive > 0:
        raise ConfigError(
            f"{n_alive} trajectorie(s) never switched within the integration "
            "window (step ceiling reached); rates may be zero or the dt caps "
            "inconsistent"
        )
    return records  # type: ignore[return-value]


def run_ramp(
    p: JunctionParams,
    tls: Optional[TlsParams],
    d: BiasDrive,
    cfg: EngineConfig,
    init_flag: int = 0,
    stream_index: int = 0,
    rates_fn: Optional[RatesFn] = None,
) -> SwitchRecord:
    """Simulate a single bias ramp to its switching event."""
    return run_trajectories(
        p, tls, d, cfg, [init_flag], [stream_index], rates_fn=rates_fn
    )[0]


def sequence_variants(
    p: JunctionParams,
    tls: Optional[TlsParams],
    d: BiasDrive,
    cfg: EngineConfig,
    indices: Sequence[int],
    rates_fn: Optional[RatesFn] = None,
) -> tuple[list[SwitchRecord], list[SwitchRecord]]:
    """Both flag variants of the given ramp indices (stream = ramp index).

    A ramp's outcome depends only on its initial flag and its random
    stream, so consecutive-ramp chaining can be done after the fact; this
    is what makes telegraph sequences batchable and parallelizable without
    breaking the flag dependency.  Both variants run as one batch on one
    grid; two-level runs have no flag-1 variant.
    """
    idx = list(indices)
    flags = (0,) if cfg.dimension == 2 else (0, 1)
    recs = run_trajectories(
        p, tls, d, cfg, [f for f in flags for _ in idx], idx * len(flags), rates_fn=rates_fn
    )
    return recs[: len(idx)], recs[len(idx) :]


def fold_sequence(
    rec0: Sequence[SwitchRecord],
    rec1: Sequence[SwitchRecord],
    init_flag: int = 0,
) -> list[SwitchRecord]:
    """Chain ramp variants: ramp i+1 starts from ramp i's flag at switch."""
    out = []
    flag = init_flag
    for i in range(len(rec0)):
        rec = rec0[i] if flag == 0 else rec1[i]
        out.append(rec)
        flag = rec.flag_at_switch
    return out


def run_sequence(
    p: JunctionParams,
    tls: Optional[TlsParams],
    d: BiasDrive,
    cfg: EngineConfig,
    rates_fn: Optional[RatesFn] = None,
) -> list[SwitchRecord]:
    """Simulate cfg.ramps consecutive ramps with the TLS flag carried over.

    Ramp 0 starts from cfg.init_flag; ramp i+1 is initialized from the
    branch registered at ramp i's switching event.  The per-ramp random
    stream is (master_seed, ramp_index) regardless of the flag, so the
    result is bit-identical to strictly sequential execution.
    """
    rec0, rec1 = sequence_variants(p, tls, d, cfg, range(cfg.ramps), rates_fn)
    if cfg.dimension == 2:
        return rec0
    return fold_sequence(rec0, rec1, cfg.init_flag)


def run_ensemble(
    p: JunctionParams,
    tls: Optional[TlsParams],
    d: BiasDrive,
    cfg: EngineConfig,
    n_trajectories: int,
    first_index: int = 0,
    rates_fn: Optional[RatesFn] = None,
) -> list[SwitchRecord]:
    """n independent single ramps, all starting from flag 0.

    Trajectory k uses stream (master_seed, first_index + k); slicing the
    index range across workers reproduces the exact same records.
    """
    if n_trajectories < 1:
        raise ConfigError("n_trajectories must be >= 1")
    idx = list(range(first_index, first_index + n_trajectories))
    return run_trajectories(p, tls, d, cfg, [0] * len(idx), idx, rates_fn=rates_fn)


# ---------------------------------------------------------------------------
# Static-bias ensemble (fixed Hamiltonian): the unraveling-equivalence probe
# ---------------------------------------------------------------------------


def run_static_ensemble(
    H: np.ndarray,
    r: RateSet,
    cfg: EngineConfig,
    n_trajectories: int,
    t_final: float,
    n_checkpoints: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectory-averaged density matrices at fixed bias.

    Runs n quantum-jump trajectories under the static Hermitian H (rad/s)
    with the given rates and returns (times, rho) where rho[k] is the
    average of normalized projectors over trajectories still in the well
    (escaped trajectories contribute zero, so tr rho tracks survival).
    """
    dim = H.shape[0]
    if dim not in (2, 4):
        raise ConfigError("H must be 2x2 or 4x4")
    channels = channel_table(dim)
    rates = channel_rates(r, dim)
    raw_sum = rates.sum()
    scale = np.linalg.norm(H) + rates.max()
    dt = min(cfg.dt_max, cfg.theta_max / scale if scale > 0 else np.inf)
    if raw_sum > 0:
        dt = min(dt, cfg.dt_rate_cap / raw_sum)
    n_steps = max(1, int(math.ceil(t_final / dt)))
    dt = t_final / n_steps

    H_eff = with_decay(H, outflow(r.row(), dim))
    P = taylor_propagator(H_eff[None], np.array([dt]), np.array([scale * dt]))[0]
    PT = np.ascontiguousarray(P.T)

    sources = np.array([c.source for c in channels])
    channel_dt = rates * dt

    keys = rng.stream_keys(cfg.master_seed, np.arange(n_trajectories))
    psi = np.zeros((n_trajectories, dim), dtype=complex)
    psi[:, 0] = 1.0
    prev_norm2 = np.ones(n_trajectories)

    checkpoints = np.unique(
        np.round(np.linspace(1, n_steps, n_checkpoints)).astype(int)
    )
    times = checkpoints * dt
    rho_out = np.zeros((checkpoints.size, dim, dim), dtype=complex)
    next_cp = 0

    for nstep in range(n_steps):
        psi = psi @ PT
        pops = psi.real**2 + psi.imag**2
        norm2 = pops.sum(axis=1)
        if np.any(norm2 > prev_norm2 * (1.0 + NORM_GROWTH_TOL)):
            raise StepSizeError("norm increased during static evolution")
        dp = pops[:, sources] * channel_dt
        dp_tot = dp.sum(axis=1)

        if nstep % _U_BLOCK == 0:
            u_block = rng.uniforms(keys, nstep, min(_U_BLOCK, n_steps - nstep))
        u = u_block[nstep % _U_BLOCK]
        fired = (u * norm2) < dp_tot
        if fired.any():
            rows = np.nonzero(fired)[0]
            cum = np.cumsum(dp[rows], axis=1)
            picked = ((u[rows] * norm2[rows])[:, None] >= cum).sum(axis=1)
            for row, j in zip(rows, picked):
                c = channels[j]
                psi[row] = 0.0
                norm2[row] = 0.0
                if c.kind == "relax":
                    psi[row, c.target] = 1.0
                    norm2[row] = 1.0
        prev_norm2 = norm2

        if next_cp < checkpoints.size and nstep + 1 == checkpoints[next_cp]:
            safe = np.where(norm2 > 0.0, norm2, 1.0)
            unit = psi / np.sqrt(safe)[:, None]
            rho_out[next_cp] = np.einsum("ni,nj->ij", unit, unit.conj())
            rho_out[next_cp] /= n_trajectories
            next_cp += 1

    return times, rho_out
