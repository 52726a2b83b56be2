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
* The grid takes its physics from Model alone: the level count, the jump
  channels and their rates, the top of the ramp, the no-jump generator
  H_eff, the longest step its frame resolves, and whether H is diagonal.
  It only plans the steps and builds their maps.
* In the rotating frame a step's map is exp(-i H_eff dt) with H_eff
  frozen at the step's midpoint bias: the exponential midpoint rule
  (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006)).  It is taylor_exp,
  the call the master-equation oracle makes, whose truncation stays below
  the unit roundoff; centring the Hermitian diagonal drops a physically
  irrelevant global phase.  The one error a step makes is the freezing
  of H_eff, dt^3 ||[H_eff, dH_eff/dt]|| / 12 at leading order, and the
  planner bounds it.  In the lab frame the steps are set by the drive
  period, not by that bound, and the map exponentiates the fourth-order
  Magnus generator instead (see RampGrid._generator).
* Step maps and states are real.  A map x -> x @ B of complex row vectors
  is stored as its real row form real_rows(B) = [[Re B, Im B], [-Im B,
  Re B]], which maps [Re x, Im x] to [Re, Im] of x @ B; products of maps
  are products of their real forms.  Small real matrix products cost numpy
  a fraction of complex ones.
* The grid stores its coarse mesh cells, not its steps: a cell's first
  step, step count, bias at its start, width and step size.  It is built,
  multiplied and stepped one piece at a time; each piece computes its
  step ends and sizes once, so the temporaries of a piece stay in cache
  and memory does not grow with the grid.  A step's physics is a function
  of the biases it spans alone: Model derives the lab-frame drive phase
  from the bias, so the grid keeps no clock.
* Before its first jump every trajectory of a start flag is in the same
  no-jump state, so those trajectories share one stepped row; a
  relaxation moves a trajectory onto a new row, and an escape removes it.
* Between jumps a row's state is a product of step maps that depend on the
  grid alone.  Rows therefore advance a block of _BLOCK steps per product,
  with within-block prefix products formed for a whole piece in _BLOCK
  passes, so Python handles blocks and jump steps, not every grid step.
  Block boundaries fall at multiples of _BLOCK from the start of the grid,
  whatever the batch.
* A row is carried to the block end by one product.  Since a norm falls,
  or grows by at most NORM_GROWTH_TOL a step, only a row that ends the
  block within (1 + NORM_GROWTH_TOL)^_BLOCK of its next threshold can
  have crossed it; such rows, and rows whose norm grew over the block, get
  the state of every step from the prefix products and are checked step
  by step.  The per-step growth check thus sees only those rows: a norm
  that rises inside a block on another row and falls back by its end goes
  unreported.  Records equal the per-step walk whenever that walk raises
  no StepSizeError.
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
from .errors import ConfigError, StepSizeError
from .hamiltonian import KILL_HAZARD, Channel, Model, TlsParams
from .physics import BiasDrive, JunctionParams

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
    cap dt_rate_cap / (sum of raw rates), the Magnus cap theta_max
    ||[H_eff, dH_eff/dt]||^(-1/3), which keeps the local error of freezing
    H_eff over a step at theta_max^3 / 12 or below (theta_max is
    dimensionless), and the model's max_step (one twentieth of the drive
    period in the lab frame); a grid of more than _STEP_CEILING steps is
    refused.
    master_seed roots all random streams.  The level count is not set
    here: it follows from whether TLS parameters are given (see Model).
    How many ramps run, and from which flag, is up to the caller of
    run_trajectories.
    """

    frame: str = "rwa"
    master_seed: int = 20260808
    dt_max: float = 5e-9
    dt_rate_cap: float = 0.05
    theta_max: float = 0.15

    def __post_init__(self):
        if self.frame not in ("lab", "rwa"):
            raise ConfigError("frame must be 'lab' or 'rwa'")
        if self.dt_max <= 0 or self.dt_rate_cap <= 0 or self.theta_max <= 0:
            raise ConfigError("dt caps must be > 0")
        if self.dt_rate_cap > 1.0:
            raise ConfigError("dt_rate_cap must be <= 1")


# ---------------------------------------------------------------------------
# Ramp grid: the deterministic step schedule shared by all trajectories
# ---------------------------------------------------------------------------

_MESH_POINTS = 4097  # coarse-mesh edges for step-size planning
_PASS = 1024         # steps per piece the grid is built and stepped in
_BLOCK = 64          # steps per prefix-product block; divides _PASS
_STEP_CEILING = 10**9  # most grid steps a ramp may plan
# Largest 1-norm at which the remainder of the degree-16 Taylor series, at
# most theta^17/17! e^theta, stays below 2^-53: theta <= 0.789.
_THETA_16 = 0.78


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


def taylor_exp(A: np.ndarray) -> np.ndarray:
    """exp of each real matrix of the stack A, shape (n, D, D): its
    degree-16 Taylor polynomial at A / 2^s, squared s times, with s >= 0
    the least integer that takes its 1-norm to _THETA_16 or below, where
    the truncation stays below the unit roundoff.  Each matrix is scaled
    and squared by its own s, so its exponential does not depend on the
    stack.  A is scaled in place, so no unscaled copy stays alive beside
    it: pass a stack the caller no longer needs.  The polynomial is
    evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2, 60 (1973)): Horner
    in A^4 over blocks of 4 terms, 6 products."""
    degree = 16
    norm = np.abs(A).sum(axis=1).max(axis=1)
    s = np.ceil(np.log2(np.maximum(norm / _THETA_16, 1.0))).astype(np.int64)
    A *= np.ldexp(1.0, -s)[:, None, None]
    q = math.isqrt(degree)
    powers = [np.eye(A.shape[-1]), A]  # A^0 .. A^q
    for k in range(2, q + 1):
        powers.append(powers[k // 2] @ powers[k - k // 2])
    c = [1.0 / math.factorial(k) for k in range(degree + 1)]
    top = q * ((degree - 1) // q)  # the top block runs from c_top to c_degree A^q
    P = c[degree] * powers[degree - top]
    for k in range(degree - 1, -1, -1):
        if k < top and k % q == q - 1:  # into the next block down
            P = P @ powers[q]
        P += c[k] * powers[k % q]
    for k in range(int(s.max(initial=0))):
        if s.min() > k:  # every matrix squares: no masked copies
            P = P @ P
        else:
            doubled = s > k
            P[doubled] = P[doubled] @ P[doubled]
    return P


def taylor_propagator(H: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Real row forms (n, 2d, 2d) of the transposed one-step maps
    P^T = exp(-i dt H)^T of i dpsi/dt = H psi for a stack of n frozen
    generators (n, d, d): taylor_exp of the real form of -i dt H^T, the
    call the oracle makes, so the maps are exact to rounding.  Each map's
    bottom rows are then set from its top rows, which real products keep
    only up to rounding."""
    P = taylor_exp(real_rows(-1j * dt[:, None, None] * np.swapaxes(H, 1, 2)))
    _mirror(P)
    return P


class RampGrid:
    """The step schedule of one ramp configuration.

    Steps are planned on a coarse bias mesh from dc_start to the model's
    bias_limit(): within each cell the step size is the tightest of the
    configured ceilings evaluated at the cell edges, and the cell is
    divided evenly so the fine grid lands exactly on cell boundaries.  The
    grid ends once the cumulative escape hazard of the hardiest state
    (ground level, g branch) exceeds KILL_HAZARD, after which survival
    probability is e^(-KILL_HAZARD).  The Magnus cap reads H_eff at the
    mesh edges and its ramp derivative from their differences; a diagonal
    H_eff commutes with its derivative, so it has no cap.  In the lab frame
    the mesh does not resolve the drive's phase and the derivative misses
    the drive's oscillation; there max_step, a twentieth of a drive period,
    is the cap that binds (the Magnus cap stays 15 to 70 times above it on
    the shipped configs), and the steps' maps are fourth order.

    Only the mesh cells are stored (see the module notes); the steps of a
    piece, and the physics inside them, are computed as the piece is asked
    for.
    """

    def __init__(
        self,
        p: JunctionParams,
        tls: Optional[TlsParams],
        d: BiasDrive,
        cfg: EngineConfig,
    ):
        self.model = model = Model(p, tls, d, cfg.frame)
        mesh = np.linspace(d.dc_start, model.bias_limit(), _MESH_POINTS)
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
        # a diagonal H never moves amplitude off the ground states where
        # trajectories start and relaxations land
        reachable = model.ground if model.diagonal else range(model.dim)

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
            # Magnus cap: freezing H_eff over a step errs by
            # dt^3 ||[H_eff, dH_eff/dt]|| / 12 at leading order, so this dt
            # keeps it at theta_max^3 / 12 (1-norm).  The derivative is a
            # difference between mesh edges, which stay on the ramp.
            H = model.H_eff(mesh, rates)
            dH = np.gradient(H, mesh, axis=0) * d.ramp_rate
            C = np.abs(H @ dH - dH @ H).sum(axis=1).max(axis=1)
            dt_magnus = cfg.theta_max * C ** (-1.0 / 3.0)
        dt_edge = np.minimum(np.minimum(dt_rate, dt_magnus), min(cfg.dt_max, model.max_step))

        # per-cell step size from the tighter edge; even subdivision keeps
        # the fine grid exactly on mesh boundaries
        dt_cell = np.minimum(dt_edge[:-1], dt_edge[1:])
        width = np.diff(mesh)
        cell_time = width / d.ramp_rate
        m_cell = np.maximum(1, np.ceil(cell_time / dt_cell).astype(np.int64))
        total = int(m_cell.sum())
        if total > _STEP_CEILING:
            raise ConfigError(
                f"ramp grid needs {total} steps, above the ceiling "
                f"{_STEP_CEILING}; check rates and dt caps"
            )

        # per-cell arrays only; a piece's per-step arrays come from them
        self.n_steps = total
        self._first = np.concatenate(([0], np.cumsum(m_cell)))
        self._m = m_cell
        self._I_start = mesh[:-1]
        self._width = width
        self._dt = cell_time / m_cell

    # -- per-step physics ------------------------------------------------------

    def steps(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Bias at the end, and size, of steps [lo, hi): step k of a cell
        of m steps ends k/m of its width past its start."""
        first = self._first
        a = int(np.searchsorted(first, lo, side="right")) - 1
        b = int(np.searchsorted(first, hi - 1, side="right"))
        counts = np.minimum(first[a + 1 : b + 1], hi) - np.maximum(first[a:b], lo)

        def per_step(cells: np.ndarray) -> np.ndarray:
            return np.repeat(cells[a:b], counts)

        frac = (np.arange(lo, hi) - per_step(first) + 1) / per_step(self._m)
        return per_step(self._I_start) + frac * per_step(self._width), per_step(self._dt)

    @property
    def I_end(self) -> np.ndarray:
        """Bias at the end of every step of the grid, built when read."""
        return self.steps(0, self.n_steps)[0]

    def _generator(self, I_end: np.ndarray, dt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Generators G (n, d, d) of the n steps that end at bias I_end
        after dt, each step's map being exp(-i G dt), with the Hermitian
        diagonal centred on zero (a pure global-phase shift); and the
        model's rate rows at the steps' midpoint biases.

        In the rotating frame G is H_eff at the midpoint: the exponential
        midpoint rule.  A lab-frame step spans a twentieth of a drive
        period, and freezing the drive over it errs at second order in
        omega dt; there G is the fourth-order Magnus generator from H_eff
        at the two Gauss points, (H1 + H2) / 2 + i sqrt(3) dt [H1, H2] / 12
        (Blanes & Moan 2006).  Both take the midpoint's rates, which change
        over nanoamperes of bias, not over a step."""
        model = self.model
        I = I_end - 0.5 * model.d.ramp_rate * dt
        rates = model.rates(I)
        if model.frame == "rwa":
            G = model.H_eff(I, rates)
        else:
            c = (math.sqrt(3.0) / 6.0) * model.d.ramp_rate * dt
            H1, H2 = (model.H_eff(J, rates) for J in (I - c, I + c))
            G = 0.5 * (H1 + H2) + (1j * math.sqrt(3.0) / 12.0) * dt[:, None, None] * (
                H1 @ H2 - H2 @ H1
            )
        if model.diagonal:
            # amplitudes never interfere, so the Hermitian phases are pure
            # gauge: only the decay part is integrated
            G.real = 0.0
        else:
            # |0g> sits at zero: centre between it and the top level
            np.einsum("nkk->nk", G)[...] -= 0.5 * G[:, -1:, -1].real
        return G, rates

    def propagator_chunk(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Step maps of steps [lo, hi) in real row form, shape
        (hi-lo, 2d, 2d) (see taylor_propagator): a state [Re psi, Im psi]
        advances as [Re psi, Im psi] @ M, which is psi @ P^T.  Also the
        raw rate of each jump channel at the middle of each step, shape
        (hi-lo, channels), in the order of model.channels, and the bias
        at the end of each step."""
        I_end, dt = self.steps(lo, hi)
        G, rates = self._generator(I_end, dt)
        return taylor_propagator(G, dt), rates, I_end


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


# A norm grows by at most NORM_GROWTH_TOL a step (else StepSizeError), so a
# row that ends a block above its next threshold times this factor stayed
# above it on every step of the block; the one step more covers rounding.
_REACH = (1.0 + NORM_GROWTH_TOL) ** (_BLOCK + 1)


class _Rows:
    """The distinct no-jump states being stepped, across one block.

    path[i, c] is walked row i's state after c steps of the block (column 0
    is the block start) as a real (1, 2d) row [Re psi, Im psi] (see
    real_rows), and norm2[i, c] its squared norm.  Rows that cannot jump in
    the block are not walked: they wait at the block end until end_block.
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
        self._waiting: tuple = ()

    def start_block(self, q: np.ndarray) -> None:
        """Carry every row from the end of its path to the end of the next
        block, whose prefix products are q (see block_products), by one
        product with q[-1].  Walk, with a product per step, only the rows
        that end the block within _REACH of their next threshold, and those
        whose norm grew over the block, so that the growth check can name
        its step."""
        psi, norm2 = self.path[:, -1:], self.norm2[:, -1:]
        end = psi @ q[-1:]
        end2 = _norm2(end)
        walk = (end2 < self.next_thresholds()[:, None] * _REACH) | (
            end2 > norm2 * (1.0 + NORM_GROWTH_TOL)
        )
        walk = walk[:, 0]
        members, thresholds = self.members, self.thresholds
        if walk.any():
            wait = np.nonzero(~walk)[0]
            walk = np.nonzero(walk)[0]
            self._waiting = (
                end[wait],
                end2[wait],
                [members[i] for i in wait],
                [thresholds[i] for i in wait],
            )
            self.members = [members[i] for i in walk]
            self.thresholds = [thresholds[i] for i in walk]
        else:  # most blocks: every row waits
            self._waiting = (end, end2, members, thresholds)
            self.members, self.thresholds = [], []
        psi = psi[walk]
        self.path = np.concatenate((psi, psi @ q), axis=1)
        self.norm2 = _norm2(self.path)
        self.norm2[:, 0] = norm2[walk, 0]

    def end_block(self) -> None:
        """Put the rows that waited back beside the walked ones, every row
        at the end of the block."""
        end, end2, members, thresholds = self._waiting
        self.path = np.concatenate((end, self.path[:, -1:]))
        self.norm2 = np.concatenate((end2, self.norm2[:, -1:]))
        self.members = members + self.members
        self.thresholds = thresholds + self.thresholds

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
    *,
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
    state, the junction ground state of their flag's branch (|0g> for
    flag 0, |0e> for flag 1; model.ground), and are read off its
    monotone norm in threshold order.  The grid is built one piece of
    _PASS steps at a time, and rows advance a block of _BLOCK steps of it
    at a time: a row's block-end state is its block-start state times the
    block's product (block_products).  Only rows that may fall below their
    next threshold in the block, or whose norm grew over it, get the state
    of every step, from the within-block prefix products, and only steps
    where one of them falls below its next threshold are handled one by
    one.  A relaxation
    restarts the trajectory on a new row in the target state, stepped by
    single-step maps to the end of that block, after which it is carried
    like the others; a tunneling escape ends its ramp and it leaves its
    row.  Records come back ordered like the inputs with ramp_index =
    stream_id.  A prebuilt grid of the same configuration may be passed.
    """
    if grid is None:
        grid = RampGrid(p, tls, d, cfg)
    dim = grid.model.dim
    init_flags = np.asarray(init_flags, dtype=int)
    stream_ids = np.asarray(stream_ids, dtype=int)
    if init_flags.shape != stream_ids.shape or init_flags.ndim != 1:
        raise ConfigError("init_flags and stream_ids must be 1-d and equal length")
    if not np.isin(init_flags, range(len(grid.model.ground))).all():
        raise ConfigError("init flags must name a TLS branch: 0, or 1 with a TLS")

    channels = grid.model.channels
    keys = rng.stream_keys(cfg.master_seed, stream_ids)
    n_jumps = np.zeros(init_flags.size, dtype=np.int64)
    records: list[Optional[SwitchRecord]] = [None] * init_flags.size

    def thresholds(idx: np.ndarray) -> np.ndarray:
        # draw 2j, taken as 1 - u in [2^-53, 1] so a norm of 0 always jumps
        return 1.0 - rng.uniform_at(keys[idx], 2 * n_jumps[idx])

    rows = _Rows(dim)
    starts = []
    for flag, state in enumerate(grid.model.ground):
        idx = np.nonzero(init_flags == flag)[0]
        if idx.size:
            starts.append((state, idx, thresholds(idx)))
    rows.restart(0, starts, ())

    def jump(k: int, hit: np.ndarray, pt: np.ndarray, rates: np.ndarray, current: float) -> None:
        """The trajectories of the hit rows that jump at step k of the
        block whose single-step maps are pt; rates are the channel rates of
        that step, and current the bias at its end."""
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
                        int(stream_ids[m]), current, c.flag, int(n_jumps[m])
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
        hi = min(step + _PASS, grid.n_steps)
        pt, rates, I_end = grid.propagator_chunk(step, hi)
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
                jump(k, below[:, k - done], pt[block], rates[b + k], I_end[b + k])
                done = k + 1
            rows.end_block()

    if rows.members:
        n_alive = sum(m.size for m in rows.members)
        raise ConfigError(
            f"{n_alive} trajectorie(s) never switched within the integration "
            "window (step ceiling reached); rates may be zero or the dt caps "
            "inconsistent"
        )
    return records  # type: ignore[return-value]


def fold_sequence(
    variants: Sequence[Sequence[SwitchRecord]], init_flag: int = 0
) -> list[SwitchRecord]:
    """Chain ramp variants: ramp i+1 starts from ramp i's flag at switch.

    variants[flag][i] is ramp i started from flag.  A ramp's outcome
    depends only on its initial flag and its random stream, so chaining
    after the fact is what makes telegraph sequences batchable and
    parallelizable without breaking the flag dependency.
    """
    out = []
    flag = init_flag
    for i in range(len(variants[0])):
        rec = variants[flag][i]
        out.append(rec)
        flag = rec.flag_at_switch
    return out
