"""Hamiltonian builders, effective forms, and crossing physics."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from jjswitch.constants import HBAR
from jjswitch.errors import PhysicsDomainError
from jjswitch.hamiltonian import (
    Model,
    TlsParams,
    check_rwa_validity,
    crossing_survival_numeric,
    decay_diagonal,
    effective_hamiltonian_2,
    effective_hamiltonian_4,
    hamiltonian_2,
    hamiltonian_4,
    landau_zener_probability,
    resonant_transition_rate,
    sweep_rate,
)
from jjswitch.physics import (
    BiasDrive,
    JunctionParams,
    RateSet,
    level_splitting,
    microwave_amplitude_for_rabi,
    rabi_at_splitting,
    rabi_frequency,
    resonance_current,
)

from conftest import C, F_DRIVE, I0, R, RAMP_RATE, T_BASE, TWO_PI

# frozen from the reference setup: hbar |d w10/dI| * dI/dt at the 8.7 GHz
# crossing, ramping at 4.5e3 uA/s
SWEEP_RATE_REFERENCE = 3.0989363028e-20  # J/s


@pytest.fixture
def drive(junction):
    i_res = resonance_current(junction, TWO_PI * F_DRIVE)
    i_uw = microwave_amplitude_for_rabi(junction, TWO_PI * 10e6, i_res)
    return BiasDrive(35.40e-6, RAMP_RATE, i_uw, TWO_PI * F_DRIVE)


def random_valid_inputs(rng):
    p = JunctionParams(
        critical_current=rng.uniform(5e-6, 60e-6),
        capacitance=rng.uniform(1e-12, 10e-12),
        shunt_resistance=rng.uniform(1e4, 1e7),
        temperature=rng.uniform(0.0, 0.1),
        tls_critical_suppression=rng.uniform(0.0, 0.01),
    )
    w10_max = level_splitting(p, 0.0)
    omega = rng.uniform(0.3, 0.9) * w10_max
    i_dc = rng.uniform(0.0, 0.9) * resonance_current(p, omega)
    d = BiasDrive(
        dc_start=i_dc * 0.5 + 1e-9,
        ramp_rate=rng.uniform(1e-4, 1e-1),
        microwave_amplitude=rng.uniform(0.0, 2e-9),
        microwave_frequency=omega,
    )
    tls = TlsParams(
        omega_tls=rng.uniform(0.3, 0.9) * w10_max,
        coupling=rng.uniform(TWO_PI * 20e6, TWO_PI * 200e6),
    )
    return p, d, tls, i_dc


class TestBuilders:
    def test_lab_two_level_structure(self, junction, drive):
        i_dc = 35.55e-6
        H = hamiltonian_2(junction, drive, i_dc, 0.0, "lab")
        omega_m = rabi_frequency(junction, drive.microwave_amplitude, i_dc)
        assert H[0, 1] == pytest.approx(omega_m, rel=1e-12)
        assert H[1, 0] == pytest.approx(omega_m, rel=1e-12)
        assert H[0, 0] == 0.0
        assert H[1, 1].real == pytest.approx(
            level_splitting(junction, i_dc), rel=1e-12
        )

    def test_rwa_two_level_structure(self, junction, drive):
        i_dc = 35.55e-6
        H = hamiltonian_2(junction, drive, i_dc, 0.3e-9, "rwa")
        omega_m = rabi_frequency(junction, drive.microwave_amplitude, i_dc)
        assert H[0, 1] == pytest.approx(omega_m / 2, rel=1e-12)
        assert H[1, 1].real == pytest.approx(
            level_splitting(junction, i_dc) - drive.microwave_frequency, rel=1e-12
        )

    def test_rwa_resonant_gap(self, junction, drive):
        i_res = resonance_current(junction, drive.microwave_frequency)
        H = hamiltonian_2(junction, drive, i_res, 0.0, "rwa")
        omega_m = rabi_frequency(junction, drive.microwave_amplitude, i_res)
        evals = np.linalg.eigvalsh(H)
        assert evals[1] - evals[0] == pytest.approx(omega_m, rel=1e-9)

    def test_no_drive_kills_drive_entries(self, junction, tls):
        d0 = BiasDrive(35.4e-6, RAMP_RATE, 0.0, TWO_PI * F_DRIVE)
        for frame in ("lab", "rwa"):
            H = hamiltonian_4(junction, tls, d0, 35.55e-6, 1e-9, frame)
            assert H[0, 1] == 0.0 and H[2, 3] == 0.0
            H2 = hamiltonian_2(junction, d0, 35.55e-6, 1e-9, frame)
            assert H2[0, 1] == 0.0

    def test_four_level_lab_placement(self, junction, drive, tls):
        i_dc = 35.55e-6
        H = hamiltonian_4(junction, tls, drive, i_dc, 0.0, "lab")
        assert H[1, 2] == pytest.approx(TWO_PI * 200e6, rel=1e-12)
        assert H[2, 2].real / TWO_PI == pytest.approx(8.7e9, rel=1e-12)
        w10 = level_splitting(junction, i_dc)
        assert H[3, 3].real == pytest.approx(w10 + tls.omega_tls, rel=1e-12)
        assert H[0, 2] == 0.0 and H[0, 3] == 0.0 and H[1, 3] == 0.0

    def test_no_couplings_diagonal_spectrum(self, junction):
        d0 = BiasDrive(35.4e-6, RAMP_RATE, 0.0, TWO_PI * F_DRIVE)
        tls0 = TlsParams(TWO_PI * 8.7e9, 0.0)
        i_dc = 35.55e-6
        H = hamiltonian_4(junction, tls0, d0, i_dc, 0.0, "lab")
        w10 = level_splitting(junction, i_dc)
        expected = np.diag([0.0, w10, tls0.omega_tls, w10 + tls0.omega_tls])
        assert np.allclose(H, expected, rtol=1e-14, atol=0.0)

    def test_hermiticity_random_inputs(self):
        rng = np.random.default_rng(7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(25):
                p, d, tls, i_dc = random_valid_inputs(rng)
                t = rng.uniform(0.0, 1e-6)
                for frame in ("lab", "rwa"):
                    H2 = hamiltonian_2(p, d, i_dc, t, frame)
                    H4 = hamiltonian_4(p, tls, d, i_dc, t, frame)
                    scale2 = np.abs(H2).max()
                    scale4 = np.abs(H4).max()
                    assert np.abs(H2 - H2.conj().T).max() <= 1e-14 * scale2
                    assert np.abs(H4 - H4.conj().T).max() <= 1e-14 * scale4


class TestEffectiveHamiltonians:
    def rates(self):
        return RateSet(
            gamma10=6e5, tunnel_0g=1e3, tunnel_1g=1.3e6, tunnel_0e=4e4, tunnel_1e=5e7
        )

    def test_zero_rates_identity(self, junction, drive):
        H = hamiltonian_2(junction, drive, 35.55e-6, 0.0, "rwa")
        r0 = RateSet(0, 0, 0, 0, 0)
        assert np.array_equal(effective_hamiltonian_2(H, r0), H)
        H4 = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        assert np.array_equal(effective_hamiltonian_4(H4, r0), H4)

    def test_decay_diagonal_two_level(self, junction, drive):
        r = self.rates()
        H = hamiltonian_2(junction, drive, 35.55e-6, 0.0, "rwa")
        He = effective_hamiltonian_2(H, r)
        imag_diag = np.diag(He).imag
        assert imag_diag[0] == pytest.approx(-r.tunnel_0g / 2)
        assert imag_diag[1] == pytest.approx(-(r.gamma10 + r.tunnel_1g) / 2)
        # off-diagonals untouched
        assert np.array_equal(He - np.diag(np.diag(He)), H - np.diag(np.diag(H)))

    def test_decay_diagonal_four_level(self, junction, drive, tls):
        r = self.rates()
        H = hamiltonian_4(junction, tls, drive, 35.55e-6, 0.0, "rwa")
        He = effective_hamiltonian_4(H, r)
        expected = -0.5 * np.array(
            [
                r.tunnel_0g,
                r.gamma10 + r.tunnel_1g,
                r.tunnel_0e,
                r.gamma10 + r.tunnel_1e,
            ]
        )
        assert np.allclose(np.diag(He).imag, expected, rtol=1e-14)
        anti = (He - He.conj().T) / 2j
        trace_expected = -(
            r.tunnel_0g + r.tunnel_1g + r.tunnel_0e + r.tunnel_1e + 2 * r.gamma10
        ) / 2.0
        assert np.trace(anti).real == pytest.approx(trace_expected, rel=1e-14)
        # anti-Hermitian part diagonal, non-positive
        assert np.abs(anti - np.diag(np.diag(anti))).max() == 0.0
        assert np.all(np.diag(anti).real <= 0.0)

    @pytest.mark.parametrize("frame", ["rwa", "lab"])
    def test_model_generator_matches_builders(self, junction, drive, tls, frame):
        from jjswitch.hamiltonian import Model
        from jjswitch.physics import rate_set

        I = np.array([35.5e-6, 35.62e-6])
        t = np.array([0.0, 3e-9])
        H_eff = Model(junction, tls, drive, frame).H_eff(I, t)
        for k in range(2):
            H = hamiltonian_4(junction, tls, drive, I[k], t[k], frame)
            r = rate_set(junction, I[k], clamp_e_branch=True)
            assert np.allclose(H_eff[k], effective_hamiltonian_4(H, r), rtol=1e-12, atol=0.0)

    def test_decay_diagonal_op(self):
        r = self.rates()
        d2 = decay_diagonal(r, 2)
        assert d2[0] == r.tunnel_0g / 2


class TestResonantTransitionRate:
    def test_on_resonance_peak(self):
        rate = resonant_transition_rate(TWO_PI * 10e6, 6e5, 1e3, 1.3e6, 0.0)
        gamma = 0.5 * (6e5 + 1e3 + 1.3e6)
        assert rate == pytest.approx((TWO_PI * 10e6) ** 2 / (2 * gamma), rel=1e-12)

    def test_half_width(self):
        gamma = 0.5 * (6e5 + 1e3 + 1.3e6)
        peak = resonant_transition_rate(TWO_PI * 10e6, 6e5, 1e3, 1.3e6, 0.0)
        half = resonant_transition_rate(TWO_PI * 10e6, 6e5, 1e3, 1.3e6, gamma)
        assert half == pytest.approx(peak / 2, rel=1e-12)

    def test_no_drive_no_transition(self):
        assert resonant_transition_rate(0.0, 6e5, 1e3, 1.3e6, 1e9) == 0.0


class TestLandauZener:
    def test_no_coupling_fully_diabatic(self):
        assert landau_zener_probability(0.0, 1e-20) == 1.0

    def test_adiabatic_limit(self):
        assert landau_zener_probability(TWO_PI * 200e6, 1e-24) == 0.0

    def test_half_probability_inversion(self):
        coupling = TWO_PI * 5e6
        sweep = 2 * math.pi * HBAR * coupling**2 / math.log(2.0)
        assert landau_zener_probability(coupling, sweep) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_invalid_sweep(self):
        with pytest.raises(PhysicsDomainError):
            landau_zener_probability(1e6, 0.0)

    def test_numeric_crossing_matches_closed_form(self):
        coupling = TWO_PI * 5e6
        for target in (0.25, 0.6):
            sweep = 2 * math.pi * HBAR * coupling**2 / (-math.log(target))
            numeric = crossing_survival_numeric(coupling, sweep)
            assert numeric == pytest.approx(target, abs=0.02)


class TestSweepRate:
    def test_reference_value(self, junction, tls, drive):
        v = sweep_rate(junction, tls, drive)
        assert v == pytest.approx(SWEEP_RATE_REFERENCE, rel=1e-6)
        assert landau_zener_probability(tls.coupling, v) < 1e-300

    def test_linear_in_ramp_rate(self, junction, tls, drive):
        d2 = BiasDrive(
            drive.dc_start,
            2 * drive.ramp_rate,
            drive.microwave_amplitude,
            drive.microwave_frequency,
        )
        assert sweep_rate(junction, tls, d2) == pytest.approx(
            2 * sweep_rate(junction, tls, drive), rel=1e-12
        )

    def test_independent_of_drive_amplitude(self, junction, tls, drive):
        d2 = BiasDrive(
            drive.dc_start, drive.ramp_rate, 0.0, drive.microwave_frequency
        )
        assert sweep_rate(junction, tls, d2) == sweep_rate(junction, tls, drive)


class TestRwaValidity:
    def test_fidelity_over_rabi_periods(self, junction, drive):
        i_res = resonance_current(junction, drive.microwave_frequency)
        T = 5.0 / 10e6  # five Rabi periods at 10 MHz
        # the bias is fixed: splitting and Rabi frequency are computed once
        lab_model = Model(junction, None, drive, "lab")
        w10 = level_splitting(junction, i_res, "g")
        om = rabi_at_splitting(junction, drive.microwave_amplitude, w10)
        t_probe = 0.37 * T
        assert np.array_equal(
            lab_model.hermitian(t_probe, w10, om),
            hamiltonian_2(junction, drive, i_res, t_probe, "lab"),
        )

        def rhs_lab(t, y):
            return -1j * (lab_model.hermitian(t, w10, om) @ y)

        H_rwa = hamiltonian_2(junction, drive, i_res, 0.0, "rwa")

        def rhs_rwa(t, y):
            return -1j * (H_rwa @ y)

        y0 = np.array([1.0, 0.0], dtype=complex)
        t_eval = np.linspace(0.0, T, 17)
        lab = solve_ivp(
            rhs_lab, (0, T), y0, method="DOP853", rtol=1e-8, atol=1e-10, t_eval=t_eval
        )
        rwa = solve_ivp(
            rhs_rwa, (0, T), y0, method="DOP853", rtol=1e-11, atol=1e-13, t_eval=t_eval
        )
        diff = np.abs(np.abs(lab.y[1]) ** 2 - np.abs(rwa.y[1]) ** 2)
        assert diff.max() < 0.02

    def test_warning_threshold(self, junction, tls):
        quiet = BiasDrive(35.4e-6, RAMP_RATE, 0.0, TWO_PI * F_DRIVE)
        i_res = resonance_current(junction, TWO_PI * F_DRIVE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = check_rwa_validity(junction, quiet, i_res)
        assert ratio < 0.1
        far = 35.30e-6  # detuning above a tenth of the drive frequency
        with pytest.warns(UserWarning, match="RWA marginal"):
            check_rwa_validity(junction, quiet, far)
