"""Quantum-jump Monte Carlo engine for ramped switching-current trajectories.

A trajectory alternates deterministic non-Hermitian evolution with
stochastic jumps, in the waiting-time form of the quantum-jump method
(Dalibard, Castin and Molmer, PRL 68, 580 (1992)): the trajectory draws a
threshold r and evolves under the no-jump generator until its norm, which
never grows, falls below r; a second draw then picks the jump channel.  A
relaxation collapses it onto the branch ground state and it draws again;
a tunneling escape terminates the ramp and registers the switching current.

Implementation notes that matter for reproducibility and speed:

* The step schedule (a "ramp grid") is a pure function of the configuration,
  never of the stochastic state, so every trajectory of a run shares it and
  results cannot depend on batching or worker count.
* One step of the classic explicit 4th-order integrator applied to the
  linear system i dpsi/dt = H_eff psi with H_eff frozen over the step equals
  multiplication by the degree-4 Taylor polynomial of exp(-i H_eff dt).
  The grid therefore builds that matrix per step (dropping a physically
  irrelevant global phase by centring the Hermitian diagonal), from 2^k
  such substeps composed by squaring.
* Step maps and states are real.  A map x -> x @ B of complex row vectors
  is stored as its real row form real_rows(B) = [[Re B, Im B], [-Im B,
  Re B]], which maps [Re x, Im x] to [Re, Im] of x @ B; products of maps
  are products of their real forms.  Small real matrix products cost numpy
  a fraction of complex ones.
* The grid is built, multiplied and stepped one piece of _PASS steps at a
  time, so the temporaries of a piece stay in cache and memory does not
  grow with the grid.
* Before its first jump every trajectory of a start flag is in the same
  no-jump state, so those trajectories share one stepped row; a
  relaxation moves a trajectory onto a new row, and an escape removes it.
* Between jumps a row's state is a product of step maps that depend on the
  grid alone.  Rows therefore advance a block of _BLOCK steps per product:
  each step's state is the block-start state times a within-block prefix
  product, formed for a whole piece in _BLOCK passes, so Python handles
  blocks and jump steps, not every grid step.  Block boundaries fall at
  multiples of _BLOCK from the start of the grid, whatever the batch.
* Row norms are carried as they are, never renormalised: a row's norm is
  the survival probability of its members since their restart, and it
  stays above their thresholds, which are at least 2^-53 (see
  run_trajectories), so it never nears underflow.
* Random numbers come from counter-based streams: draw n of trajectory k is
  a pure function of (master_seed, k, n).  Draw 2j is the threshold of
  jump j and draw 2j+1 its channel.  See rng.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng
from .errors import ConfigError, PhysicsDomainError, StepSizeError
from .hamiltonian import KILL_HAZARD, Channel, Model, RatesFn, TlsParams
from .physics import (
    BiasDrive,
    JunctionParams,
    level_splitting,
    two_level_bias_limit,
)

NORM_GROWTH_TOL = 1e-12


@dataclass
class SwitchRecord:
    """Outcome of one ramp: the switching current, the TLS branch of the
    escape and the number of relaxations before it."""

    ramp_index: int
    switching_current: float
    flag_at_switch: int
    n_relax_events: int = 0


@dataclass(frozen=True)
class EngineConfig:
    """Integration and sampling controls for trajectory runs.

    dt is chosen each step as the tightest of: dt_max, the jump-probability
    cap dt_rate_cap / (sum of raw rates), the per-step phase bound
    theta_max / ||H||, and in the lab frame one twentieth of the drive
    period.  master_seed roots all random streams.  How many ramps run,
    and from which flag, is up to the caller (see sequence_variants and
    run_ensemble).
    """

    dimension: int = 4
    frame: str = "rwa"
    master_seed: int = 20260808
    dt_max: float = 5e-9
    dt_rate_cap: float = 0.05
    theta_max: float = 0.15
    step_ceiling: int = 10**9

    def __post_init__(self):
        if self.dimension not in (2, 4):
            raise ConfigError("dimension must be 2 or 4")
        if self.frame not in ("lab", "rwa"):
            raise ConfigError("frame must be 'lab' or 'rwa'")
        if self.dt_max <= 0 or self.dt_rate_cap <= 0 or self.theta_max <= 0:
            raise ConfigError("dt caps must be > 0")
        if self.dt_rate_cap > 1.0:
            raise ConfigError("dt_rate_cap must be <= 1")
        if self.step_ceiling < 1:
            raise ConfigError("step_ceiling must be >= 1")


# ---------------------------------------------------------------------------
# Ramp grid: the deterministic step schedule shared by all trajectories
# ---------------------------------------------------------------------------

_MESH_POINTS = 4097  # coarse-mesh edges for step-size planning
_PASS = 4096         # steps per piece the grid is built and stepped in
_BLOCK = 64          # steps per prefix-product block; divides _PASS

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


def real_rows(B: np.ndarray) -> np.ndarray:
    """Real row form [[Re B, Im B], [-Im B, Re B]] of a stack of complex
    (d, d) maps B: [Re x, Im x] @ real_rows(B) is [Re, Im] of x @ B."""
    d = B.shape[-1]
    M = np.empty(B.shape[:-2] + (2 * d, 2 * d))
    M[..., :d, :d] = B.real
    M[..., :d, d:] = B.imag
    _mirror(M)
    return M


def _mirror(M: np.ndarray) -> None:
    """Set the bottom rows [-Im B, Re B] of real row forms from their top
    rows [Re B, Im B].  They are the top rows of i B, so one small product
    with the real form of i sets them; it is exact, since each entry is a
    top entry times +-1 plus zeros."""
    d = M.shape[-1] // 2
    times_i = np.zeros((2 * d, 2 * d))
    times_i[:d, d:] = np.eye(d)
    times_i[d:, :d] = -np.eye(d)
    np.matmul(M[..., :d, :], times_i, out=M[..., d:, :])


def taylor_propagator(H: np.ndarray, dt: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Real row forms (n, 2d, 2d) of the transposed one-step maps P^T of
    i dpsi/dt = H psi for a stack of n frozen generators (n, d, d).

    Each step's map P is 2^k classic RK4 substeps, composed by repeated
    squaring of the degree-4 Taylor polynomial of exp(-i H dt / 2^k); k is
    chosen per step so the phase advance per substep, theta / 2^k with
    theta a bound on ||H|| dt, stays below the accuracy target.  The
    polynomial is taken of the real form of A = -i dt / 2^k H^T, which
    gives P^T directly.  The squarings are masked only when the steps
    differ in k, so a step's map does not depend on the stack it is built
    in.  Real products keep the block pattern only up to rounding; each
    map's bottom rows are finally set from its top rows.
    """
    d = H.shape[-1]
    n_half = np.ceil(np.log2(np.maximum(theta / _THETA_SUBSTEP, 1.0))).astype(np.int64)
    h = dt / 2.0**n_half
    A = real_rows(-1j * h[:, None, None] * np.swapaxes(H, 1, 2))
    A2 = A @ A
    P = np.eye(2 * d) + A + 0.5 * A2 + (1.0 / 6.0) * (A2 @ A) + (1.0 / 24.0) * (A2 @ A2)
    for k in range(int(n_half.max())):
        if n_half.min() > k:
            P = P @ P
        else:
            doubled = n_half > k
            P[doubled] = P[doubled] @ P[doubled]
    _mirror(P)
    return P


class RampGrid:
    """The step schedule of one ramp configuration.

    Steps are planned on a coarse bias mesh: within each cell the step size
    is the tightest of the configured ceilings evaluated at the cell edges,
    and the cell is divided evenly so the fine grid lands exactly on cell
    boundaries.  The grid ends once the cumulative escape hazard of the
    hardiest state (ground level, g branch) exceeds KILL_HAZARD, after
    which survival probability is e^(-KILL_HAZARD).

    Only the step ends and sizes are stored; the physics at the step
    midpoints is computed piece by piece as the propagators are built.
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
                dt_theta = theta / scale
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
        self.n_steps = total

    # -- per-step physics ------------------------------------------------------

    def midpoints(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Bias and ramp time at the middle of steps [lo, hi)."""
        dt = self.dt[lo:hi]
        return self.I_end[lo:hi] - 0.5 * self.d.ramp_rate * dt, self.t_end[lo:hi] - 0.5 * dt

    def _generator(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Effective Hamiltonians (hi-lo, d, d) of steps [lo, hi) with the
        Hermitian diagonal centred on zero (a pure global-phase shift), a
        bound on the norm of each (rad/s), and the model's rate rows they
        were built from."""
        I, t = self.midpoints(lo, hi)
        rates = self.model.rates(I)
        H = self.model.H_eff(I, t, rates)
        if self.diagonal_only:
            # pure gauge: only the decay part survives (see __init__)
            H.real = 0.0
            scale = 0.5 * (rates[:, 0] + rates[:, 1:].max(axis=1))
        else:
            # |0g> sits at zero: centre between it and the top level
            np.einsum("nkk->nk", H)[...] -= 0.5 * H[:, -1:, -1].real
            scale = self._hamiltonian_scale(I, rates)
        return H, scale, rates

    def propagator_chunk(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Step maps of steps [lo, hi) in real row form, shape
        (hi-lo, 2d, 2d) (see taylor_propagator): a state [Re psi, Im psi]
        advances as [Re psi, Im psi] @ M, which is psi @ P^T.  Also the
        raw rate of each jump channel at the middle of each step, shape
        (hi-lo, channels), in the order of model.channels."""
        H, scale, rates = self._generator(lo, hi)
        dt = self.dt[lo:hi]
        return taylor_propagator(H, dt, scale * dt), rates[:, self._columns]


# ---------------------------------------------------------------------------
# Trajectory runner
# ---------------------------------------------------------------------------


def pick_channels(
    channels: Sequence[Channel], rates: np.ndarray, pops: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Channel index of each jump out of one no-jump state.

    Channel k has weight rates[k] * pops[source_k]; each uniform in u picks
    one channel by inverse CDF over the canonical channel order, so
    channels of zero weight are never picked.
    """
    cum = np.cumsum(rates * pops[[c.source for c in channels]])
    return (u[:, None] * cum[-1] >= cum).sum(axis=1)


def block_products(pt: np.ndarray) -> np.ndarray:
    """Prefix products of the step maps pt within blocks of _BLOCK steps:
    entry k is pt[b] @ pt[b+1] @ ... @ pt[k], with b the first step of the
    block that holds step k.  Each of the _BLOCK passes multiplies across
    all blocks at once."""
    n, d = pt.shape[0], pt.shape[-1]
    n_blocks = -(-n // _BLOCK)
    q = np.empty((n_blocks * _BLOCK, d, d), dtype=pt.dtype)
    q[:n] = pt
    q[n:] = np.eye(d)  # a short last block is padded with identities
    blocks = q.reshape(n_blocks, _BLOCK, d, d)
    for j in range(1, _BLOCK):
        blocks[:, j] = blocks[:, j - 1] @ blocks[:, j]
    return q[:n]


def _norm2(path: np.ndarray) -> np.ndarray:
    return (path**2).sum(axis=(2, 3))


class _Rows:
    """The distinct no-jump states being stepped, across one block.

    path[i, c] is row i's state after c steps of the block (column 0 is
    the block start) as a real (1, 2d) row [Re psi, Im psi] (see
    real_rows), and norm2[i, c] its squared norm.
    Each row advances by its own vector-matrix products, so its arithmetic
    never depends on how many rows are stepped with it.  Row i is shared
    by the trajectories members[i], in ascending order of their
    thresholds[i]; a row starts at unit norm, so thresholds compare with
    its norm directly, and the last member is the next to jump.
    """

    def __init__(self, dim: int):
        self.path = np.zeros((0, 1, 1, 2 * dim))
        self.norm2 = np.zeros((0, 1))
        self.members: list[np.ndarray] = []
        self.thresholds: list[np.ndarray] = []

    def start_block(self, q: np.ndarray) -> None:
        """Carry every row from the end of its path through the next
        block, whose prefix products are q (see block_products): every
        step's state is one product of the block-start state."""
        psi = self.path[:, -1:]
        self.path = np.concatenate((psi, psi @ q), axis=1)
        norm2 = _norm2(self.path)
        norm2[:, 0] = self.norm2[:, -1]
        self.norm2 = norm2

    def restart(self, col: int, starts: list, pt: Sequence[np.ndarray]) -> None:
        """A new row per (state, idx, r) of starts, for trajectories idx
        with thresholds r: basis state `state` at column col, stepped to
        the end of the block by the single-step maps pt of the block."""
        new = np.zeros((len(starts),) + self.path.shape[1:])
        for i, (state, idx, r) in enumerate(starts):
            order = np.argsort(r, kind="stable")
            self.members.append(idx[order])
            self.thresholds.append(r[order])
            new[i, col, 0, state] = 1.0  # real half
        for c in range(col, len(pt)):
            new[:, c + 1] = new[:, c] @ pt[c]
        norm2 = _norm2(new)
        norm2[:, col] = 1.0
        self.path = np.concatenate((self.path, new))
        self.norm2 = np.concatenate((self.norm2, norm2))

    def drop_empty(self) -> None:
        live = [i for i, m in enumerate(self.members) if m.size]
        self.path, self.norm2 = self.path[live], self.norm2[live]
        self.members = [self.members[i] for i in live]
        self.thresholds = [self.thresholds[i] for i in live]

    def next_thresholds(self) -> np.ndarray:
        return np.array([t[-1] for t in self.thresholds])


def run_trajectories(
    p: JunctionParams,
    tls: Optional[TlsParams],
    d: BiasDrive,
    cfg: EngineConfig,
    init_flags: Sequence[int],
    stream_ids: Sequence[int],
    rates_fn: Optional[RatesFn] = None,
    grid: Optional[RampGrid] = None,
) -> list[SwitchRecord]:
    """Run one ramp per (init_flag, stream_id) pair, all sharing one grid.

    Waiting-time quantum jumps: before its jump j a trajectory draws the
    threshold r = 1 - u_2j from its stream and jumps at the first step
    where its no-jump norm, relative to its last restart, falls below r;
    u_2j+1 then picks the channel with weight rate_k * |psi_source|^2,
    summed over the two ends of that step.  A record is therefore a pure
    function of (master_seed, stream_id, init_flag), whatever the batch.

    Trajectories that have not jumped yet share the row of their start
    state, |0g> for flag 0 and |0e> for flag 1, and are read off its
    monotone norm in threshold order.  The grid is built one piece of
    _PASS steps at a time, and rows advance a block of _BLOCK steps of it
    at a time: every step's state is the block-start state times a
    prefix product (block_products), and only steps where some row falls
    below its next threshold are handled one by one.  A relaxation
    restarts the trajectory on a new row in the target state, stepped by
    single-step maps to the end of that block, after which it is carried
    like the others; a tunneling escape ends its ramp and it leaves its
    row.  Records come back ordered like the inputs with ramp_index =
    stream_id.
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

    channels = grid.model.channels
    keys = rng.stream_keys(cfg.master_seed, stream_ids)
    n_jumps = np.zeros(init_flags.size, dtype=np.int64)
    records: list[Optional[SwitchRecord]] = [None] * init_flags.size

    def thresholds(idx: np.ndarray) -> np.ndarray:
        # draw 2j, taken as 1 - u in [2^-53, 1] so a norm of 0 always jumps
        return 1.0 - rng.uniform_at(keys[idx], 2 * n_jumps[idx])

    rows = _Rows(dim)
    starts = []
    for flag, state in ((0, 0), (1, 2)):
        idx = np.nonzero(init_flags == flag)[0]
        if idx.size:
            starts.append((state, idx, thresholds(idx)))
    rows.restart(0, starts, ())

    def jump(nstep: int, k: int, hit: np.ndarray, pt: np.ndarray, rates: np.ndarray) -> None:
        """The trajectories of the hit rows that jump at grid step nstep,
        step k of the block whose single-step maps are pt; rates are the
        channel rates of that step."""
        before, after = rows.path[:, k, 0], rows.path[:, k + 1, 0]
        norm2 = rows.norm2[:, k + 1]
        # channel weights: populations summed over both ends of the step
        re, im = slice(0, dim), slice(dim, None)
        pops = before[:, re] ** 2 + before[:, im] ** 2 + after[:, re] ** 2 + after[:, im] ** 2
        restarts: dict[int, list[int]] = {}
        for i in np.nonzero(hit)[0]:
            cut = np.searchsorted(rows.thresholds[i], norm2[i], side="right")
            idx = rows.members[i][cut:]
            rows.members[i] = rows.members[i][:cut]
            rows.thresholds[i] = rows.thresholds[i][:cut]
            u = rng.uniform_at(keys[idx], 2 * n_jumps[idx] + 1)  # draw 2j+1
            picked = pick_channels(channels, rates, pops[i], u)
            for m, j in zip(idx, picked):
                c = channels[j]
                if c.kind == "tunnel":  # escape terminates the ramp
                    records[m] = SwitchRecord(
                        int(stream_ids[m]), grid.I_end[nstep], c.flag, int(n_jumps[m])
                    )
                else:  # relaxation: restart from the target state
                    restarts.setdefault(c.target, []).append(m)
        rows.drop_empty()
        starts = []
        for state, restarted in restarts.items():
            idx = np.array(restarted)
            n_jumps[idx] += 1
            starts.append((state, idx, thresholds(idx)))
        if starts:
            rows.restart(k + 1, starts, pt)

    tol = 1.0 + NORM_GROWTH_TOL
    for step in range(0, grid.n_steps, _PASS):
        if not rows.members:
            break
        pt, rates = grid.propagator_chunk(step, min(step + _PASS, grid.n_steps))
        q = block_products(pt)
        for b in range(0, len(pt), _BLOCK):
            if not rows.members:
                break
            block = slice(b, min(b + _BLOCK, len(pt)))
            rows.start_block(q[block])
            n = block.stop - b
            done = 0  # steps of the block walked so far
            while rows.members:
                norm2 = rows.norm2
                below = norm2[:, done + 1 :] < rows.next_thresholds()[:, None]
                hit_at = below.any(axis=0)
                k = done + int(hit_at.argmax()) if hit_at.any() else n
                end = min(k + 1, n)
                grew = (norm2[:, done + 1 : end + 1] > norm2[:, done:end] * tol).any(axis=0)
                if grew.any():
                    at = step + b + done + int(grew.argmax())
                    raise StepSizeError(f"norm increased at step {at}; dt caps too loose")
                if k == n:
                    break
                jump(step + b + k, k, below[:, k - done], pt[block], rates[b + k])
                done = k + 1

    if rows.members:
        n_alive = sum(m.size for m in rows.members)
        raise ConfigError(
            f"{n_alive} trajectorie(s) never switched within the integration "
            "window (step ceiling reached); rates may be zero or the dt caps "
            "inconsistent"
        )
    return records  # type: ignore[return-value]


def sequence_variants(
    p: JunctionParams,
    tls: Optional[TlsParams],
    d: BiasDrive,
    cfg: EngineConfig,
    indices: Sequence[int],
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
    recs = run_trajectories(p, tls, d, cfg, [f for f in flags for _ in idx], idx * len(flags))
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


def run_ensemble(
    p: JunctionParams,
    tls: Optional[TlsParams],
    d: BiasDrive,
    cfg: EngineConfig,
    n_trajectories: int,
    first_index: int = 0,
) -> list[SwitchRecord]:
    """n independent single ramps, all starting from flag 0.

    Trajectory k uses stream (master_seed, first_index + k); slicing the
    index range across workers reproduces the exact same records.
    """
    if n_trajectories < 1:
        raise ConfigError("n_trajectories must be >= 1")
    idx = list(range(first_index, first_index + n_trajectories))
    return run_trajectories(p, tls, d, cfg, [0] * len(idx), idx)
