"""Closed-form junction physics against independently recomputed values."""

import math
import os

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq as scipy_brentq

from jjswitch import config
from jjswitch.config import build_physics, load_config
from jjswitch.constants import HBAR, K_BOLTZMANN, PHI0, R_QUANTUM
from jjswitch.errors import NoBracketError, PhysicsDomainError
from jjswitch.hamiltonian import Model, TlsParams
from jjswitch.physics import (
    BiasDrive,
    JunctionParams,
    barrier_height,
    barrier_ratio,
    effective_critical_current,
    level_splitting,
    microwave_amplitude_for_rabi,
    plasma_frequency,
    rabi_at_splitting,
    relaxation_rate,
    resonance_current,
    saturation_rate,
    tunneling_rate,
    two_level_bias_limit,
)

from conftest import C, COUPLING, F_DRIVE, F_TLS, I0, R, T_BASE, TWO_PI

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# independent constants for oracle recomputation (CODATA literals, not the
# package's derived values)
PHI0_LIT = 2.067833848e-15
HBAR_LIT = 1.054571817e-34


def scipy_root(p, omega, branch="g"):
    """Reference resonance current: scipy's brentq on the bracket
    [0, I_edge - 1e-13 I0] below the shallow-well edge."""
    i0 = effective_critical_current(p, branch)
    i_hi = two_level_bias_limit(p, branch)
    return scipy_brentq(
        lambda i: level_splitting(p, i, branch) - omega,
        0.0,
        i_hi * (1.0 - 1e-13 * i0 / i_hi),
        xtol=1e-30,
        rtol=8.9e-16,
        maxiter=200,
    )


def _cubic_well_roots(a: float, b: float, energy: float) -> tuple[float, float, float]:
    """Real roots x1 < x2 < x3 of a x^2 - b x^3 = E for 0 < E < barrier top."""
    # x^3 - (a/b) x^2 + E/b = 0
    coeffs = [1.0, -a / b, 0.0, energy / b]
    roots = np.roots(coeffs)
    real = np.sort(roots.real[np.abs(roots.imag) < 1e-9 * np.max(np.abs(roots))])
    assert real.size == 3, "cubic turning-point solve did not yield three real roots"
    return float(real[0]), float(real[1]), float(real[2])


def _wkb_quadrature_rate(u_total: float, energy_ratio: float, epsrel: float = 1e-10) -> float:
    """Energy-resolved WKB escape rate in units of omega_p: the reference
    the closed-form tunneling rate is checked against.

    Dimensionless cubic well (m = omega_p = hbar = 1): U(x) = x^2/2 - b x^3
    with b = (54 u_total)^(-1/2) so the barrier height equals u_total.  The
    rate is exp(-2 S_f) / T at energy E = energy_ratio, with the oscillation
    period T between the inner turning points and the action S_f across the
    forbidden region, both by adaptive quadrature (relative tolerance 1e-8
    enforced on the results).
    """
    b = math.sqrt(1.0 / (54.0 * u_total))
    e = energy_ratio
    x1, x2, x3 = _cubic_well_roots(0.5, b, e)

    # Oscillation period: T = 2 int_{x1}^{x2} dx / sqrt(2 (E - U))
    # with E - U = b (x - x1)(x2 - x)(x3 - x).  The endpoint inverse-root
    # singularities are removed by x = mid + half sin(phi).
    mid, half = 0.5 * (x1 + x2), 0.5 * (x2 - x1)

    def period_integrand(phi):
        x = mid + half * math.sin(phi)
        return 1.0 / math.sqrt(x3 - x)

    val_t, err_t = quad(period_integrand, -math.pi / 2.0, math.pi / 2.0,
                        epsabs=0.0, epsrel=epsrel, limit=200)
    period = 2.0 * val_t / math.sqrt(2.0 * b)
    assert err_t <= 1e-8 * abs(val_t), "period quadrature failed its relative tolerance"

    # Forbidden-region action: S_f = int_{x2}^{x3} sqrt(2 (U - E)) dx with
    # U - E = b (x - x1)(x - x2)(x3 - x); endpoints vanish like sqrt, again
    # mapped through a sine substitution for smoothness.
    mid_f, half_f = 0.5 * (x2 + x3), 0.5 * (x3 - x2)

    def action_integrand(phi):
        x = mid_f + half_f * math.sin(phi)
        c = math.cos(phi)
        return c * c * math.sqrt(x - x1)

    val_s, err_s = quad(action_integrand, -math.pi / 2.0, math.pi / 2.0,
                        epsabs=0.0, epsrel=epsrel, limit=200)
    action = math.sqrt(2.0 * b) * half_f * half_f * val_s
    assert err_s <= 1e-8 * abs(val_s), "action quadrature failed its relative tolerance"

    return math.exp(-2.0 * action) / period


def bisect_splitting(p, target, lo, hi, iters=200):
    """Independent bisection oracle on the level splitting."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if level_splitting(p, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPlasmaFrequency:
    def test_paper_point(self, junction):
        # direct evaluation with literal constants as the oracle
        expected = (
            2.0**0.25
            * math.sqrt(TWO_PI * I0 / (PHI0_LIT * C))
            * 0.01**0.25
        )
        got = plasma_frequency(junction, 0.99 * I0)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got / TWO_PI == pytest.approx(9.9e9, rel=0.01)

    def test_vanishing_at_critical_current(self, junction):
        eps = 1e-12
        assert plasma_frequency(junction, I0 * (1 - eps)) < 1e-3 * plasma_frequency(
            junction, 0.0
        )
        with pytest.raises(PhysicsDomainError):
            plasma_frequency(junction, I0)

    def test_capacitance_scaling(self, junction):
        quadrupled = JunctionParams(I0, 4 * C, R, T_BASE)
        i_dc = 0.95 * I0
        assert plasma_frequency(quadrupled, i_dc) == pytest.approx(
            plasma_frequency(junction, i_dc) / 2.0, rel=1e-12
        )

    def test_branch_uses_suppressed_critical_current(self, junction_tls):
        i_dc = 0.95 * I0
        wg = plasma_frequency(junction_tls, i_dc, "g")
        we = plasma_frequency(junction_tls, i_dc, "e")
        assert we < wg


class TestBarrierHeight:
    def test_paper_point(self, junction):
        expected = (2.0 * math.sqrt(2.0) * I0 * PHI0_LIT / (3.0 * math.pi)) * 0.01**1.5
        got = barrier_height(junction, 0.99 * I0)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(2.23e-23, rel=0.005)

    def test_zero_bias_closed_form(self, junction):
        assert barrier_height(junction, 0.0) == pytest.approx(
            2.0 * math.sqrt(2.0) * I0 * PHI0 / (3.0 * math.pi), rel=1e-14
        )

    def test_vanishing_limit(self, junction):
        assert barrier_height(junction, I0 * (1 - 1e-12)) < 1e-15 * barrier_height(
            junction, 0.0
        )


class TestLevelSplitting:
    def test_resonance_neighbourhood(self, junction):
        # 35.6 uA sits close to the 9.02 GHz drive of the reference setup
        w10 = level_splitting(junction, 35.6e-6)
        assert w10 / TWO_PI == pytest.approx(9.0e9, abs=0.05e9)

    def test_below_plasma_frequency(self, junction):
        for frac in (0.0, 0.5, 0.9, 0.99, 0.992):
            i_dc = frac * I0
            assert level_splitting(junction, i_dc) < plasma_frequency(junction, i_dc)

    def test_strictly_decreasing(self, junction):
        grid = np.linspace(0.0, two_level_bias_limit(junction) * 0.99999, 1000)
        w = np.asarray(level_splitting(junction, grid))
        assert np.all(np.diff(w) < 0)

    def test_domain_error_when_well_too_shallow(self, junction):
        beyond = two_level_bias_limit(junction) * (1 + 1e-7)
        with pytest.raises(PhysicsDomainError):
            level_splitting(junction, beyond)


class TestResonanceCurrent:
    def test_drive_resonance_location(self, junction):
        i_res = resonance_current(junction, TWO_PI * 9.02e9)
        assert i_res == pytest.approx(35.6e-6, abs=0.05e-6)
        oracle = bisect_splitting(junction, TWO_PI * 9.02e9, 0.0, 35.8e-6)
        assert i_res == pytest.approx(oracle, rel=1e-9)

    def test_round_trip(self, junction):
        for f in (8.7e9, 9.02e9, 9.5e9):
            i_res = resonance_current(junction, TWO_PI * f)
            assert level_splitting(junction, i_res) == pytest.approx(
                TWO_PI * f, rel=1e-9
            )

    def test_fixed_point(self, junction):
        i_dc = 35.5e-6
        target = level_splitting(junction, i_dc)
        assert resonance_current(junction, target) == pytest.approx(i_dc, rel=1e-10)

    def test_lower_frequency_at_larger_current(self, junction):
        assert resonance_current(junction, TWO_PI * 8.7e9) > resonance_current(
            junction, TWO_PI * 9.02e9
        )

    def test_root_bit_equal_to_scipy(self, junction):
        """The closed-form inversion returns scipy's root to the last bit at
        the drive and TLS resonances, and within 1e-12 relative on random
        targets from the shallow edge to the zero-bias splitting."""
        for f in (F_DRIVE, F_TLS):
            w = TWO_PI * f
            assert resonance_current(junction, w) == scipy_root(junction, w)
        w_edge = level_splitting(junction, 0.999 * two_level_bias_limit(junction))
        targets = np.random.default_rng(7).uniform(w_edge, level_splitting(junction, 0.0), 100)
        for w in targets:
            assert resonance_current(junction, w) == pytest.approx(
                scipy_root(junction, w), rel=1e-12, abs=0.0
            )

    @pytest.mark.parametrize("name", ["default.cfg", "bare_junction.cfg", "lz_midregime.cfg"])
    def test_shipped_physics_bit_equal_to_scipy_root(self, name, monkeypatch):
        """Every shipped config builds the same drive amplitude and TLS
        crossing with scipy's root as with the closed-form inversion."""
        cfg = load_config(os.path.join(ROOT, "configs", name))

        def physics_and_crossing(root):
            monkeypatch.setattr(config, "resonance_current", root)
            p, tls, d, ecfg = build_physics(cfg)
            return p, tls, d, ecfg, tls and root(p, tls.omega_tls)

        ours = physics_and_crossing(resonance_current)
        assert ours[2].microwave_amplitude > 0.0
        assert physics_and_crossing(scipy_root) == ours

    def test_no_bracket(self, junction):
        with pytest.raises(NoBracketError):
            resonance_current(junction, 1.01 * level_splitting(junction, 0.0))
        with pytest.raises(NoBracketError):
            resonance_current(junction, -1.0)
        i_hi = two_level_bias_limit(junction)
        edge = level_splitting(junction, i_hi * (1.0 - 1e-13 * I0 / i_hi))
        with pytest.raises(NoBracketError, match="shallow-well edge"):
            resonance_current(junction, 0.5 * edge)
        # a 1 MHz drive resonates so close to the edge that one ulp of bias
        # moves the splitting by more than rtol: out of reach, not a failure
        with pytest.raises(NoBracketError, match="double precision"):
            resonance_current(junction, 2.0 * math.pi * 1e6)


class TestRelaxationRate:
    def test_zero_temperature_closure(self):
        p = JunctionParams(I0, C, R, temperature=0.0)
        got = relaxation_rate(p, 35.6e-6)
        assert abs(got * R * C - 1.0) < 1e-12

    def test_base_temperature_nearly_identical(self, junction):
        # hbar*w10/kB ~ 0.43 K >> 18 mK: thermal factor within 1e-6
        cold = JunctionParams(I0, C, R, temperature=0.0)
        assert relaxation_rate(junction, 35.6e-6) == pytest.approx(
            relaxation_rate(cold, 35.6e-6), rel=1e-6
        )

    def test_resistance_inversion_for_paper_rate(self, junction):
        # gamma10 = 0.6 /us requires R = 1/(gamma10 C) ~ 417 kOhm
        r_needed = 1.0 / (0.6e6 * C)
        assert r_needed == pytest.approx(416.67e3, rel=1e-3)
        p = JunctionParams(I0, C, r_needed, T_BASE)
        assert relaxation_rate(p, 35.6e-6) == pytest.approx(0.6e6, rel=1e-6)

    def test_inverse_resistance_scaling(self, junction):
        doubled = JunctionParams(I0, C, 2 * R, T_BASE)
        assert relaxation_rate(doubled, 35.5e-6) == pytest.approx(
            relaxation_rate(junction, 35.5e-6) / 2.0, rel=1e-12
        )

    def test_thermal_factor_grows_when_hot(self, junction):
        hot = JunctionParams(I0, C, R, temperature=1.0)
        assert relaxation_rate(hot, 35.5e-6) > relaxation_rate(junction, 35.5e-6)


class TestTunnelingRate:
    def test_reference_magnitude(self, junction):
        i_dc = 35.6e-6
        assert barrier_ratio(junction, i_dc) == pytest.approx(2.72, abs=0.05)
        rate = tunneling_rate(junction, i_dc, 0)
        assert 1e3 < rate < 1e4

    def test_modes_agree_within_factor_two(self, junction):
        from scipy.optimize import brentq

        for u_target in (2.0, 3.0, 5.0, 8.0, 10.0):
            i_at = brentq(
                lambda i: barrier_ratio(junction, i) - u_target, 0.0, 0.9999 * I0
            )
            analytic = tunneling_rate(junction, i_at, 0, "g")
            # level 0 sits at the harmonic energy hbar omega_p / 2
            wp = plasma_frequency(junction, i_at)
            quadrature = _wkb_quadrature_rate(barrier_ratio(junction, i_at), 0.5) * wp
            assert 0.5 < analytic / quadrature < 2.0

    def test_level_ratio(self, junction):
        i_dc = 35.6e-6
        g0 = tunneling_rate(junction, i_dc, 0)
        g1 = tunneling_rate(junction, i_dc, 1)
        assert 3e2 < g1 / g0 < 4e3

    def test_deep_barrier_suppression(self, junction):
        assert tunneling_rate(junction, 0.5 * I0, 0) < 1e-200

    def test_saturation_cap(self, junction):
        # level-1 barrier gone: finite attempt-frequency cap
        i_high = I0 * (1 - 1e-4)
        cap = saturation_rate(junction)
        assert tunneling_rate(junction, i_high, 1) == pytest.approx(cap, rel=1e-9)

    def test_strictly_increasing_in_bias(self, junction):
        # below u ~ 100 barrier quanta the rate underflows float64 to an
        # exact 0, so strictness is asserted on the representable range
        k_edge = (2.0 * math.sqrt(2.0) * I0 * PHI0 / (3 * math.pi)) / (
            HBAR * 2.0**0.25 * math.sqrt(TWO_PI * I0 / (PHI0 * C))
        )
        eps_at = lambda u: (u / k_edge) ** 0.8
        grid = np.linspace(I0 * (1 - eps_at(80.0)), I0 * (1 - 1e-7), 1000)
        g0 = np.asarray(tunneling_rate(junction, grid, 0))
        assert np.all(np.diff(g0) > 0)
        # level 1: additionally stop where its barrier is gone (rate capped)
        grid1 = np.linspace(
            I0 * (1 - eps_at(80.0)), I0 * (1 - 1.01 * eps_at(1.0)), 1000
        )
        g1 = np.asarray(tunneling_rate(junction, grid1, 1))
        assert np.all(np.diff(g1) > 0)

    def test_monotone_spectra(self, junction):
        grid = np.linspace(0.0, two_level_bias_limit(junction) * 0.99999, 1000)
        wp = np.asarray(plasma_frequency(junction, grid))
        du = np.asarray(barrier_height(junction, grid))
        assert np.all(np.diff(wp) < 0)
        assert np.all(np.diff(du) < 0)


def rate_row(p, i_dc, tls=TlsParams(TWO_PI * F_TLS, TWO_PI * COUPLING)):
    """Model's rate row at one bias, in channel order: tunnel_0g,
    tunnel_1g, tunnel_0e, tunnel_1e, relax_1g, relax_1e with the TLS, and
    tunnel_0g, tunnel_1g, relax_1g without.  The drive does not enter the
    rates."""
    return Model(p, tls, BiasDrive(0.0, 1.0, 0.0, 1.0)).rates(np.array([i_dc]))[0]


class TestRateSet:
    """Model.rates, the one place the rates are bundled."""

    def test_composition_matches_components(self, junction_tls):
        i_dc = 35.55e-6
        assert list(rate_row(junction_tls, i_dc)) == [
            tunneling_rate(junction_tls, i_dc, 0, "g"),
            tunneling_rate(junction_tls, i_dc, 1, "g"),
            tunneling_rate(junction_tls, i_dc, 0, "e"),
            tunneling_rate(junction_tls, i_dc, 1, "e"),
            relaxation_rate(junction_tls, i_dc),
            relaxation_rate(junction_tls, i_dc),
        ]
        assert list(rate_row(junction_tls, i_dc, None)) == [
            tunneling_rate(junction_tls, i_dc, 0, "g"),
            tunneling_rate(junction_tls, i_dc, 1, "g"),
            relaxation_rate(junction_tls, i_dc),
        ]

    def test_branch_symmetry_without_suppression(self, junction):
        tunnel_0g, tunnel_1g, tunnel_0e, tunnel_1e, _, _ = rate_row(junction, 35.55e-6)
        assert tunnel_0e == tunnel_0g
        assert tunnel_1e == tunnel_1g

    def test_excited_branch_escapes_faster(self, junction_tls):
        tunnel_0g, tunnel_1g, tunnel_0e, tunnel_1e, _, _ = rate_row(junction_tls, 35.55e-6)
        assert tunnel_0e > tunnel_0g
        assert tunnel_1e > tunnel_1g
        assert tunnel_1g > tunnel_0g
        assert tunnel_1e > tunnel_0e


class TestRabiFrequency:
    def test_zero_amplitude(self, junction):
        assert rabi_at_splitting(junction, 0.0, level_splitting(junction, 35.5e-6)) == 0.0

    def test_paper_inversion(self, junction):
        i_res = resonance_current(junction, TWO_PI * 9.02e9)
        i_uw = microwave_amplitude_for_rabi(junction, TWO_PI * 10e6, i_res)
        assert i_uw == pytest.approx(0.43e-9, rel=0.02)
        # forward evaluation closes the loop
        assert rabi_at_splitting(junction, i_uw, level_splitting(junction, i_res)) == pytest.approx(
            TWO_PI * 10e6, rel=1e-12
        )

    def test_exact_linearity(self, junction):
        i_dc = 35.5e-6
        w10 = level_splitting(junction, i_dc)
        base = rabi_at_splitting(junction, 1e-10, w10)
        for k in (2.0, 5.0, 11.0):
            assert rabi_at_splitting(junction, k * 1e-10, w10) == pytest.approx(
                k * base, rel=1e-14
            )


class TestParameterValidation:
    def test_invariants(self):
        with pytest.raises(PhysicsDomainError):
            JunctionParams(-1e-6, C, R)
        with pytest.raises(PhysicsDomainError):
            JunctionParams(I0, C, R, tls_critical_suppression=0.2)
        with pytest.raises(PhysicsDomainError):
            BiasDrive(35e-6, -1.0, 0.0, 1e9)
        assert effective_critical_current(
            JunctionParams(I0, C, R, tls_critical_suppression=0.01), "e"
        ) == pytest.approx(I0 * 0.99, rel=1e-14)
