"""Master-equation oracle: generator identities, integration, distances."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from jjswitch.analysis import Histogram
from jjswitch.errors import DisjointSupportError, ToleranceError
from jjswitch.hamiltonian import Model, TlsParams
from jjswitch.oracle import (
    SwitchingDistribution,
    _real_coordinates,
    distribution_distance,
    integrate_master,
    liouvillian,
)
from jjswitch.physics import BiasDrive

from conftest import (
    F_DRIVE,
    F_TLS,
    RAMP_RATE,
    TWO_PI,
    closed_form_H,
    closed_form_outflow,
    fast_drive,
    reference_model,
)


def lindblad_rhs(rho: np.ndarray, H: np.ndarray, rates) -> np.ndarray:
    """Time derivative of the density matrix (H in rad/s) from one
    per-channel rate row (see closed_form_outflow): the reference the
    oracle's Liouvillian must equal.

    d rho/dt = -i[H, rho]
               + sum_b gamma_b (L_b rho L_b+ - 1/2 {L_b+ L_b, rho})
               - 1/2 sum_k Gamma_k {P_k, rho}
    with lowering maps L_b onto the branch ground states and projectors P_k
    onto the basis states; escape has no refeeding term, so it drains the
    trace.
    """
    dim = rho.shape[0]
    out = closed_form_outflow(rates, dim)
    drho = -1j * (H @ rho - rho @ H)
    drho -= 0.5 * (out[:, None] + out[None, :]) * rho
    for k, c in enumerate(reference_model(dim).channels):
        if c.kind == "relax":
            drho[c.target, c.target] += rates[k] * rho[c.source, c.source].real
    return drho


def binned(dist, edges):
    """Switched mass of a distribution in each bin, then its survival."""
    cum = np.concatenate(
        ([0.0], np.cumsum(0.5 * (dist.density[1:] + dist.density[:-1]) * np.diff(dist.grid)))
    )
    q = np.diff(np.interp(edges, dist.grid, cum, left=0.0, right=cum[-1]))
    return np.append(q, dist.survival[-1])


def binned_tv(a, b, width=0.01e-6):
    """TV distance between two oracle distributions on common bins."""
    lo, hi = min(a.grid[0], b.grid[0]), max(a.grid[-1], b.grid[-1])
    edges = lo + width * np.arange(int(np.ceil((hi - lo) / width)) + 1)
    return 0.5 * np.abs(binned(a, edges) - binned(b, edges)).sum()


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestLindbladRhs:
    def test_pure_relaxation_closed_form(self):
        gamma = 1e6
        H = np.diag([0.0, 2e9]).astype(complex)
        r = [0.0, 0.0, gamma]
        rho0 = np.zeros((2, 2), dtype=complex)
        rho0[1, 1] = 1.0

        def rhs(t, y):
            return lindblad_rhs(y.reshape(2, 2), H, r).ravel()

        t_final = 2e-6
        sol = solve_ivp(rhs, (0, t_final), rho0.ravel(), method="DOP853",
                        rtol=1e-11, atol=1e-14)
        rho = sol.y[:, -1].reshape(2, 2)
        assert rho[1, 1].real == pytest.approx(math.exp(-gamma * t_final), rel=1e-8)
        assert rho[0, 0].real == pytest.approx(1 - math.exp(-gamma * t_final), rel=1e-8)

    def test_unitary_limit_trace_frozen(self):
        rng = np.random.default_rng(3)
        H = np.array([[0.0, 1e8], [1e8, 3e8]], dtype=complex)
        r0 = np.zeros(3)
        for _ in range(10):
            rho = random_density(rng, 2)
            drho = lindblad_rhs(rho, H, r0)
            assert abs(np.trace(drho)) < 1e-8 * np.abs(drho).max()

    def test_trace_identity(self):
        # d(tr rho)/dt = -sum_k Gamma_k rho_kk, exactly
        rng = np.random.default_rng(5)
        H = rng.normal(size=(4, 4))
        H = (H + H.T).astype(complex) * 1e8
        r = np.array([1e3, 2e6, 3e4, 8e7, 7e5, 7e5])
        gammas = r[:4]  # the escape rates
        for _ in range(10):
            rho = random_density(rng, 4)
            drho = lindblad_rhs(rho, H, r)
            expected = -float(gammas @ np.diag(rho).real)
            assert np.trace(drho).real == pytest.approx(expected, rel=1e-12)

    def test_outflow_matches_decay_bookkeeping(self, junction, tls, drive_off):
        """The drain of the reference equals twice the decay diagonal of
        the generator the oracle is built from."""
        rows = {2: np.array([1e3, 2e6, 7e5]), 4: np.array([1e3, 2e6, 3e4, 8e7, 7e5, 7e5])}
        for p_tls, dim in ((None, 2), (tls, 4)):
            r = rows[dim]
            H_eff = Model(junction, p_tls, drive_off).H_eff(np.array([35.5e-6]), 0.0, r[None])
            assert np.allclose(closed_form_outflow(r, dim), -2 * np.diag(H_eff[0]).imag)


class TestIntegrateMaster:
    def test_no_drive_unimodal_and_conserving(self, junction, drive_off):
        dist = integrate_master(junction, None, drive_off, grid_resolution=20000)
        conservation = dist.switched_mass() + dist.survival[-1]
        assert conservation == pytest.approx(1.0, abs=1e-6)
        # survival monotone from 1
        assert dist.survival[0] == 1.0
        assert np.all(np.diff(dist.survival) <= 0)
        assert np.all(dist.density >= 0)
        # unimodal after light smoothing
        d = dist.density
        k = np.convolve(d, np.ones(41) / 41, mode="same")
        peaks = [
            i
            for i in range(1, len(k) - 1)
            if k[i] > k[i - 1] and k[i] >= k[i + 1] and k[i] > 0.02 * k.max()
        ]
        assert len(peaks) == 1

    def test_hazard_consistency(self, junction, drive_off):
        # -dS/dI equals the density wherever both are meaningful
        dist = integrate_master(junction, None, drive_off, grid_resolution=20000)
        ds = -np.gradient(dist.survival, dist.grid)
        core = dist.density > 0.02 * dist.density.max()
        rel = np.abs(ds[core] - dist.density[core]) / dist.density.max()
        assert rel.max() < 2e-3

    def test_peak_matches_engine_histogram(self, junction, drive_off):
        from jjswitch.analysis import histogram
        from jjswitch.engine import EngineConfig, run_ensemble

        cfg = EngineConfig(frame="rwa", master_seed=41)
        recs = run_ensemble(junction, None, drive_off, cfg, 600)
        hist = histogram(recs, 0.01e-6)
        dist = integrate_master(junction, None, drive_off)
        mode_engine = hist.bin_centers[hist.counts.argmax()]
        mode_master = dist.grid[dist.density.argmax()]
        assert abs(mode_engine - mode_master) <= 0.01e-6

    def test_lab_and_rwa_modes_agree(self, junction):
        """The two frames' oracles put the density peak in the same 0.01 uA
        on a short window above the drive resonance."""
        d = fast_drive(junction, rabi_hz=10e6, dc_start=35.62e-6, ramp_rate=2.0)
        lab = integrate_master(junction, None, d, "lab")
        rwa = integrate_master(junction, None, d, "rwa")
        assert abs(lab.grid[lab.density.argmax()] - rwa.grid[rwa.density.argmax()]) <= 0.01e-6

    def test_tighter_rtol_moves_distribution_little(self, junction_tls, tls):
        """Step doubling has converged: a 100-fold tighter tolerance moves
        the binned junction-TLS distribution by less than 1e-4 in TV."""
        d = fast_drive(junction_tls)
        loose = integrate_master(junction_tls, tls, d)
        tight = integrate_master(junction_tls, tls, d, rtol=1e-8)  # default 1e-6
        assert binned_tv(loose, tight) < 1e-4

    def test_matches_uniform_midpoint_steps(self, junction_tls, tls):
        """Step doubling is as accurate as eight uniform exponential midpoint
        steps per cell, built here from liouvillian and scipy's expm alone:
        survival within 4e-7.  Two steps per cell, with no doubling, miss by
        9e-7."""
        from scipy.linalg import expm

        d = fast_drive(junction_tls)
        dist = integrate_master(junction_tls, tls, d)
        model = Model(junction_tls, tls, d)
        end = int(np.argmax(dist.survival == 0.0))
        T = _real_coordinates(4)
        rho = np.zeros(16, dtype=complex)
        rho[0] = 1.0
        x = (T @ rho).real
        survival = [1.0]
        for lo, hi in zip(dist.grid[:end], dist.grid[1 : end + 1]):
            L = liouvillian(model, lo + (hi - lo) * (np.arange(8) + 0.5) / 8)
            for step in expm(L * ((hi - lo) / 8 / d.ramp_rate)):
                x = step @ x
            survival.append(np.trace((T.conj().T @ x).reshape(4, 4)).real)
        assert np.abs(np.array(survival) - dist.survival[: end + 1]).max() < 4e-7

    def test_non_finite_generator_raises(self, junction, drive_off, monkeypatch):
        from jjswitch import oracle

        nan_rates = lambda self, I: np.full((np.size(I), len(self.channels)), np.nan)  # noqa: E731
        monkeypatch.setattr(oracle.Model, "rates", nan_rates)
        with pytest.raises(ToleranceError):
            integrate_master(junction, None, drive_off)

    def test_step_doubling_gives_up(self, junction, monkeypatch):
        from jjswitch import oracle

        monkeypatch.setattr(oracle, "_MAX_STEPS", 4)
        with pytest.raises(ToleranceError):
            integrate_master(junction, None, fast_drive(junction), rtol=1e-12)


class TestExponential:
    def test_matches_scipy_expm(self):
        """The oracle's batched Pade-13 against scipy's expm, per matrix and
        relative to its largest entry: a mixed stack of 1-norms 0 to 2179
        (the range of L dt on the shipped configs), and the real generators
        of default.cfg at one step per output cell, its largest steps.
        Measured: at most 6.6e-14 on the mixed stack (at norm 2179) and
        7.8e-12 on default.cfg (lz_midregime.cfg 1.1e-11, bare 5.4e-12).
        On the worst default.cfg matrices a 40-digit reference puts the
        oracle within 1.0e-13 and scipy within 7.8e-12, so the bound is
        scipy's own error."""
        from scipy.linalg import expm

        from jjswitch.config import build_physics, load_config
        from jjswitch.oracle import _expm

        rng = np.random.default_rng(17)
        K, B = rng.normal(size=(2, 5, 16, 16))
        A = K - K.transpose(0, 2, 1) - 0.1 * B @ B.transpose(0, 2, 1)  # decays
        A *= (np.array([0.0, 1e-3, 5.0, 123.0, 2179.0]) / np.abs(A).sum(axis=1).max(axis=1))[
            :, None, None
        ]
        p, tls, d, ecfg = build_physics(load_config("configs/default.cfg"))
        model = Model(p, tls, d, ecfg.frame)
        grid = np.linspace(d.dc_start, model.bias_limit(), 2000)
        grid = grid[: model.kill_index(grid, model.rates(grid)) + 1]
        L = liouvillian(model, 0.5 * (grid[1:] + grid[:-1]))
        L *= (np.diff(grid) / d.ramp_rate)[:, None, None]
        for stack, bound in ((A, 3e-13), (L, 3e-11)):
            got, ref = _expm(stack), expm(stack)
            err = np.abs(got - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
            assert err.max() < bound

    def test_integrate_master_equals_scipy_route(self, junction_tls, tls, monkeypatch):
        """Equivalence gate: integrate_master with scipy's expm patched in
        through the oracle's one exponential name takes the same number of
        steps (so the same step doubling in every cell) and gives density
        and survival within 1e-10 of each column's maximum, in both frames.
        Measured: 4.9e-14 (rwa) and 7.5e-15 (lab)."""
        from scipy.linalg import expm

        from jjswitch import oracle

        def run(frame, d, exponential):
            count = [0]

            def counted(A):
                count[0] += len(A)
                return exponential(A)

            monkeypatch.setattr(oracle, "_expm", counted)
            return integrate_master(junction_tls, tls, d, frame), count[0]

        pade = oracle._expm
        lab_window = fast_drive(junction_tls, dc_start=35.62e-6, ramp_rate=20.0)
        for frame, d in (("rwa", fast_drive(junction_tls)), ("lab", lab_window)):
            ours, n_ours = run(frame, d, pade)
            ref, n_ref = run(frame, d, expm)
            assert n_ours == n_ref
            for col in ("density", "survival"):
                a, b = getattr(ours, col), getattr(ref, col)
                assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


class TestDistributionDistance:
    def synthetic(self):
        grid = np.linspace(0.0, 1.0, 2001)
        density = np.exp(-0.5 * ((grid - 0.5) / 0.05) ** 2)
        density /= np.trapezoid(density, grid)
        survival = 1.0 - np.concatenate(
            ([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid)))
        )
        return SwitchingDistribution(grid=grid, density=density, survival=survival)

    def sample_histogram(self, dist, n, seed, width=0.01):
        rng = np.random.default_rng(seed)
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (dist.density[1:] + dist.density[:-1]) * np.diff(dist.grid)))
        )
        cum /= cum[-1]
        samples = np.interp(rng.uniform(size=n), cum, dist.grid)
        lo = samples.min()
        n_bins = int(np.floor((samples.max() - lo) / width)) + 1
        edges = lo + width * np.arange(n_bins + 1)
        counts = np.bincount(
            np.clip(((samples - lo) / width).astype(int), 0, n_bins - 1),
            minlength=n_bins,
        )
        return Histogram(bin_edges=edges, counts=counts)

    def test_sampling_consistency_shrinks(self):
        dist = self.synthetic()
        tv_small = distribution_distance(self.sample_histogram(dist, 400, 1), dist)
        tv_large = distribution_distance(self.sample_histogram(dist, 40000, 2), dist)
        assert tv_large < tv_small
        assert tv_large < 0.03

    def test_disjoint_supports(self):
        dist = self.synthetic()
        edges = np.array([2.0, 2.1, 2.2])
        hist = Histogram(bin_edges=edges, counts=np.array([3, 4]))
        assert distribution_distance(hist, dist) == pytest.approx(1.0, abs=1e-9)

    def test_mass_off_one_rejected(self):
        """Switched mass plus survival must be 1 within 0.01: the shipped
        configs give 0.99999 to 1.0075."""
        dist = self.synthetic()
        hist = self.sample_histogram(dist, 400, 1)
        for scale, ok in ((1.009, True), (0.991, True), (1.011, False), (0.989, False)):
            off = SwitchingDistribution(dist.grid, scale * dist.density, dist.survival)
            if ok:
                assert 0.0 <= distribution_distance(hist, off) <= 1.0
            else:
                with pytest.raises(ToleranceError, match="switched mass"):
                    distribution_distance(hist, off)

    def test_empty_histogram_rejected(self):
        dist = self.synthetic()
        hist = Histogram(bin_edges=np.array([0.0, 0.1]), counts=np.array([0]))
        with pytest.raises(DisjointSupportError):
            distribution_distance(hist, dist)


class TestFrameConsistency:
    def test_lab_frame_generator_matches_engine(self, junction_tls):
        """The oracle's lab-frame Liouvillian is the engine's generator at the
        same bias: its drive phase also counts from dc_start."""
        from jjswitch.physics import microwave_amplitude_for_rabi, resonance_current

        i_res = resonance_current(junction_tls, TWO_PI * F_DRIVE)
        i_uw = microwave_amplitude_for_rabi(junction_tls, TWO_PI * 10e6, i_res)
        d = BiasDrive(35.4e-6, RAMP_RATE, i_uw, TWO_PI * F_DRIVE)
        tls = TlsParams(TWO_PI * F_TLS, TWO_PI * 20e6)
        # 44 us of ramp: any other phase origin turns the drive term around
        I = d.dc_start + 0.2e-6
        rho = random_density(np.random.default_rng(11), 4)
        model = Model(junction_tls, tls, d, "lab")
        L = liouvillian(model, I)
        T = _real_coordinates(4)
        got = L[0] @ (T @ rho.ravel()).real
        H = closed_form_H(junction_tls, tls, d, I, (I - d.dc_start) / RAMP_RATE, "lab")
        expected = (T @ lindblad_rhs(rho, H, model.rates(np.array([I]))[0]).ravel()).real
        assert np.abs(got - expected).max() < 1e-7 * np.abs(expected).max()

    def test_static_bias_lab_vs_rwa_populations(self, junction):
        """Lindblad populations agree between frames at fixed bias."""
        from jjswitch.physics import (
            level_splitting,
            microwave_amplitude_for_rabi,
            rabi_at_splitting,
            resonance_current,
        )

        i_res = resonance_current(junction, TWO_PI * F_DRIVE)
        i_uw = microwave_amplitude_for_rabi(junction, TWO_PI * 10e6, i_res)
        d = BiasDrive(35.4e-6, RAMP_RATE, i_uw, TWO_PI * F_DRIVE)
        r = Model(junction, None, d).rates(np.array([i_res]))[0]
        t_final = 0.3e-6
        # the bias is fixed: splitting and Rabi frequency are computed once
        w10 = level_splitting(junction, i_res, "g")
        om = rabi_at_splitting(junction, i_uw, w10)

        def rhs(frame):
            model = Model(junction, None, d, frame)
            t_probe = 0.37 * t_final
            assert np.allclose(
                model.hermitian(t_probe, w10, om),
                closed_form_H(junction, None, d, i_res, t_probe, frame),
                rtol=1e-12,
                atol=0.0,
            )

            def f(t, y):
                H = model.hermitian(t, w10, om)
                return lindblad_rhs(y.reshape(2, 2), H, r).ravel()

            return f

        rho0 = np.zeros((2, 2), dtype=complex)
        rho0[0, 0] = 1.0
        t_eval = np.linspace(0, t_final, 7)
        lab = solve_ivp(rhs("lab"), (0, t_final), rho0.ravel(), method="DOP853",
                        rtol=1e-9, atol=1e-12, t_eval=t_eval)
        rwa = solve_ivp(rhs("rwa"), (0, t_final), rho0.ravel(), method="DOP853",
                        rtol=1e-11, atol=1e-13, t_eval=t_eval)
        pop_lab = lab.y.reshape(2, 2, -1)[1, 1].real
        pop_rwa = rwa.y.reshape(2, 2, -1)[1, 1].real
        assert np.abs(pop_lab - pop_rwa).max() < 0.02
