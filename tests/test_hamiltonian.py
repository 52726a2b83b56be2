"""Model's Hamiltonian and no-jump generator against their closed forms,
and crossing physics."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from jjswitch.constants import HBAR
from jjswitch.errors import PhysicsDomainError
from jjswitch.hamiltonian import (
    Model,
    TlsParams,
    landau_zener_probability,
    sweep_rate,
)
from jjswitch.physics import (
    BiasDrive,
    JunctionParams,
    level_splitting,
    microwave_amplitude_for_rabi,
    rabi_at_splitting,
    resonance_current,
)

from conftest import (
    F_DRIVE,
    RAMP_RATE,
    TWO_PI,
    closed_form_H,
    closed_form_H_eff,
    closed_form_outflow,
)

# one rate row per level count, in Model.rates column order (1/s):
# tunnel_0g, tunnel_1g, (tunnel_0e, tunnel_1e,) then relax_1g (, relax_1e)
RATES = {2: np.array([1e3, 1.3e6, 6e5]), 4: np.array([1e3, 1.3e6, 4e4, 5e7, 6e5, 6e5])}

# The structure Model generates, written out as the reference: the basis
# in index order, then every channel as (name, kind, source, target,
# flag) in channel order, which the inverse-CDF jump pick walks.
BASIS = {2: ("0g", "1g"), 4: ("0g", "1g", "0e", "1e")}
GROUND = {2: (0,), 4: (0, 2)}  # |0g>, |0e>: start and relaxation targets
CHANNELS = {
    2: (
        ("0g", "tunnel", 0, -1, 0),
        ("1g", "tunnel", 1, -1, 0),
        ("1g->0g", "relax", 1, 0, 0),
    ),
    4: (
        ("0g", "tunnel", 0, -1, 0),
        ("1g", "tunnel", 1, -1, 0),
        ("0e", "tunnel", 2, -1, 1),
        ("1e", "tunnel", 3, -1, 1),
        ("1g->0g", "relax", 1, 0, 0),
        ("1e->0e", "relax", 3, 2, 1),
    ),
}


def hamiltonian(p, tls, d, I, t, frame):
    """Model's Hermitian part at one bias point and a free time t."""
    model = Model(p, tls, d, frame)
    return model.hermitian(t, *model.levels(I))


def generator(p, tls, d, I, frame, rates):
    """Model's no-jump generator at one bias point from one rate row."""
    return Model(p, tls, d, frame).H_eff(np.array([I]), rates[None])[0]


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


class TestStructure:
    def test_generated_tables(self, junction, drive, tls):
        """Model's basis, branch ground states and channels equal the
        written-out tables, on two and four levels."""
        for p_tls, dim in ((None, 2), (tls, 4)):
            model = Model(junction, p_tls, drive)
            assert model.dim == dim
            assert model.basis == BASIS[dim]
            assert [(c.name, c.kind, c.source, c.target, c.flag) for c in model.channels] == list(
                CHANNELS[dim]
            )
            assert model.ground == GROUND[dim]


class TestBuilders:
    def test_lab_two_level_structure(self, junction, drive):
        i_dc = 35.55e-6
        H = hamiltonian(junction, None, drive, i_dc, 0.0, "lab")
        omega_m = rabi_at_splitting(
            junction, drive.microwave_amplitude, level_splitting(junction, i_dc)
        )
        assert H[0, 1] == pytest.approx(omega_m, rel=1e-12)
        assert H[1, 0] == pytest.approx(omega_m, rel=1e-12)
        assert H[0, 0] == 0.0
        assert H[1, 1].real == pytest.approx(
            level_splitting(junction, i_dc), rel=1e-12
        )

    def test_rwa_two_level_structure(self, junction, drive):
        i_dc = 35.55e-6
        H = hamiltonian(junction, None, drive, i_dc, 0.3e-9, "rwa")
        omega_m = rabi_at_splitting(
            junction, drive.microwave_amplitude, level_splitting(junction, i_dc)
        )
        assert H[0, 1] == pytest.approx(omega_m / 2, rel=1e-12)
        assert H[1, 1].real == pytest.approx(
            level_splitting(junction, i_dc) - drive.microwave_frequency, rel=1e-12
        )

    def test_rwa_resonant_gap(self, junction, drive):
        i_res = resonance_current(junction, drive.microwave_frequency)
        H = hamiltonian(junction, None, drive, i_res, 0.0, "rwa")
        omega_m = rabi_at_splitting(
            junction, drive.microwave_amplitude, level_splitting(junction, i_res)
        )
        evals = np.linalg.eigvalsh(H)
        assert evals[1] - evals[0] == pytest.approx(omega_m, rel=1e-9)

    def test_no_drive_kills_drive_entries(self, junction, tls):
        d0 = BiasDrive(35.4e-6, RAMP_RATE, 0.0, TWO_PI * F_DRIVE)
        for frame in ("lab", "rwa"):
            H = hamiltonian(junction, tls, d0, 35.55e-6, 1e-9, frame)
            assert H[0, 1] == 0.0 and H[2, 3] == 0.0
            H2 = hamiltonian(junction, None, d0, 35.55e-6, 1e-9, frame)
            assert H2[0, 1] == 0.0

    def test_four_level_lab_placement(self, junction, drive, tls):
        i_dc = 35.55e-6
        H = hamiltonian(junction, tls, drive, i_dc, 0.0, "lab")
        assert H[1, 2] == pytest.approx(TWO_PI * 200e6, rel=1e-12)
        assert H[2, 2].real / TWO_PI == pytest.approx(8.7e9, rel=1e-12)
        w10 = level_splitting(junction, i_dc)
        assert H[3, 3].real == pytest.approx(w10 + tls.omega_tls, rel=1e-12)
        assert H[0, 2] == 0.0 and H[0, 3] == 0.0 and H[1, 3] == 0.0

    def test_no_couplings_diagonal_spectrum(self, junction):
        d0 = BiasDrive(35.4e-6, RAMP_RATE, 0.0, TWO_PI * F_DRIVE)
        tls0 = TlsParams(TWO_PI * 8.7e9, 0.0)
        i_dc = 35.55e-6
        H = hamiltonian(junction, tls0, d0, i_dc, 0.0, "lab")
        w10 = level_splitting(junction, i_dc)
        expected = np.diag([0.0, w10, tls0.omega_tls, w10 + tls0.omega_tls])
        assert np.allclose(H, expected, rtol=1e-14, atol=0.0)

    def test_hermiticity_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p, d, tls, i_dc = random_valid_inputs(rng)
            t = rng.uniform(0.0, 1e-6)
            for frame in ("lab", "rwa"):
                H2 = hamiltonian(p, None, d, i_dc, t, frame)
                H4 = hamiltonian(p, tls, d, i_dc, t, frame)
                scale2 = np.abs(H2).max()
                scale4 = np.abs(H4).max()
                assert np.abs(H2 - H2.conj().T).max() <= 1e-14 * scale2
                assert np.abs(H4 - H4.conj().T).max() <= 1e-14 * scale4


class TestEffectiveHamiltonians:
    def test_zero_rates_identity(self, junction, drive, tls):
        for p_tls, dim in ((None, 2), (tls, 4)):
            zero = np.zeros(len(RATES[dim]))
            H = hamiltonian(junction, p_tls, drive, 35.55e-6, 0.0, "rwa")
            He = generator(junction, p_tls, drive, 35.55e-6, "rwa", zero)
            assert np.array_equal(He, H)

    def test_decay_diagonal_two_level(self, junction, drive):
        tunnel_0g, tunnel_1g, gamma10 = RATES[2]
        H = hamiltonian(junction, None, drive, 35.55e-6, 0.0, "rwa")
        He = generator(junction, None, drive, 35.55e-6, "rwa", RATES[2])
        imag_diag = np.diag(He).imag
        assert imag_diag[0] == pytest.approx(-tunnel_0g / 2)
        assert imag_diag[1] == pytest.approx(-(gamma10 + tunnel_1g) / 2)
        # Hermitian part untouched
        assert np.array_equal(He.real, H.real)
        assert np.array_equal(He - np.diag(np.diag(He)), H - np.diag(np.diag(H)))

    def test_decay_diagonal_four_level(self, junction, drive, tls):
        tunnel_0g, tunnel_1g, tunnel_0e, tunnel_1e, relax_g, relax_e = RATES[4]
        He = generator(junction, tls, drive, 35.55e-6, "rwa", RATES[4])
        expected = -0.5 * np.array(
            [tunnel_0g, relax_g + tunnel_1g, tunnel_0e, relax_e + tunnel_1e]
        )
        assert np.allclose(np.diag(He).imag, expected, rtol=1e-14)
        anti = (He - He.conj().T) / 2j
        trace_expected = -(tunnel_0g + tunnel_1g + tunnel_0e + tunnel_1e + relax_g + relax_e) / 2.0
        assert np.trace(anti).real == pytest.approx(trace_expected, rel=1e-14)
        # anti-Hermitian part diagonal, non-positive
        assert np.abs(anti - np.diag(np.diag(anti))).max() == 0.0
        assert np.all(np.diag(anti).real <= 0.0)

    @pytest.mark.parametrize("frame", ["rwa", "lab"])
    def test_model_generator_matches_builders(self, junction, drive, tls, frame):
        """H_eff over a stack of bias points equals the closed forms, at
        the ramp time of each bias."""
        I = np.array([35.5e-6, 35.62e-6])
        t = (I - drive.dc_start) / drive.ramp_rate
        for p_tls in (None, tls):
            model = Model(junction, p_tls, drive, frame)
            rates = model.rates(I)
            H_eff = model.H_eff(I, rates)
            for k in range(2):
                H = closed_form_H(junction, p_tls, drive, I[k], t[k], frame)
                expected = closed_form_H_eff(H, rates[k])
                assert np.allclose(H_eff[k], expected, rtol=1e-12, atol=0.0)

    def test_decay_diagonal_op(self, junction, drive, tls):
        """Model.outflow maps stacked rate rows to the closed-form outflow,
        and the decay diagonal of H_eff is half of it."""
        for p_tls, dim in ((None, 2), (tls, 4)):
            rows = np.array([RATES[dim], RATES[dim][::-1]])
            out = Model(junction, p_tls, drive).outflow(rows)
            for row, o in zip(rows, out):
                assert np.array_equal(o, closed_form_outflow(row, dim))
            He = generator(junction, p_tls, drive, 35.55e-6, "rwa", RATES[dim])
            assert np.array_equal(-2.0 * np.diag(He).imag, out[0])


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
        assert np.allclose(
            lab_model.hermitian(t_probe, w10, om),
            closed_form_H(junction, None, drive, i_res, t_probe, "lab"),
            rtol=1e-12,
            atol=0.0,
        )

        def rhs_lab(t, y):
            return -1j * (lab_model.hermitian(t, w10, om) @ y)

        H_rwa = hamiltonian(junction, None, drive, i_res, 0.0, "rwa")

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
