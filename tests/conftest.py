import math

import numpy as np
import pytest

from jjswitch.hamiltonian import Model, TlsParams
from jjswitch.physics import (
    BiasDrive,
    JunctionParams,
    level_splitting,
    microwave_amplitude_for_rabi,
    rabi_at_splitting,
    resonance_current,
)

TWO_PI = 2.0 * math.pi

# Reference parameter set used throughout: 35.9 uA / 4 pF junction with a
# 416.667 kOhm shunt (0.6 /us relaxation), driven at 9.02 GHz and coupled
# to an 8.7 GHz defect with a 200 MHz matrix element.
I0 = 35.9e-6
C = 4e-12
R = 1e3 / 2.4 * 1e3
T_BASE = 0.018
ETA_DEFAULT = 5e-3
F_DRIVE = 9.02e9
F_TLS = 8.7e9
COUPLING = 200e6
RAMP_RATE = 4.5e-3  # A/s


def fast_drive(junction, rabi_hz=10e6, dc_start=35.55e-6, ramp_rate=0.2):
    """Drive with an artificially fast ramp: full physics, small grids."""
    i_res = resonance_current(junction, TWO_PI * F_DRIVE)
    i_uw = microwave_amplitude_for_rabi(junction, TWO_PI * rabi_hz, i_res)
    return BiasDrive(dc_start, ramp_rate, i_uw, TWO_PI * F_DRIVE)


def as_complex(M):
    """The complex maps B (..., d, d) of real row forms M (..., 2d, 2d) =
    [[Re B, Im B], [-Im B, Re B]]: the inverse of engine.real_rows."""
    d = M.shape[-1] // 2
    return M[..., :d, :d] + 1j * M[..., :d, d:]


def closed_form_H(p, tls, d, I, t, frame):
    """H/hbar (rad/s) at one bias I and ramp time t, written out from the
    documented forms as the reference for Model.

    Bare junction, basis {|0>, |1>}:
        rwa : [[0, Om/2], [Om/2, w10 - w]]
        lab : [[0, Om cos(w t)], [Om cos(w t), w10]]
    With a TLS, basis {|0g>, |1g>, |0e>, |1e>}: the drive acts on |0g>-|1g>
    and |0e>-|1e>, the TLS splitting (less w in the RWA) lifts the e
    states, and the coupling g joins |1g> and |0e>.
    """
    w = d.microwave_frequency
    w10 = level_splitting(p, I)
    om = rabi_at_splitting(p, d.microwave_amplitude, w10)
    if frame == "rwa":
        drive, delta = om / 2, w10 - w
    else:
        drive, delta = om * math.cos(w * t), w10
    if tls is None:
        return np.array([[0, drive], [drive, delta]], dtype=complex)
    e, g = tls.omega_tls - (w if frame == "rwa" else 0.0), tls.coupling
    return np.array(
        [
            [0, drive, 0, 0],
            [drive, delta, g, 0],
            [0, g, e, drive],
            [0, 0, drive, delta + e],
        ],
        dtype=complex,
    )


def reference_model(dimension):
    """Model of the undriven reference junction, bare (dimension 2) or
    coupled to the reference TLS (dimension 4)."""
    tls = TlsParams(TWO_PI * F_TLS, TWO_PI * COUPLING) if dimension == 4 else None
    drive = BiasDrive(35.45e-6, RAMP_RATE, 0.0, TWO_PI * F_DRIVE)
    return Model(JunctionParams(I0, C, R, T_BASE), tls, drive)


def closed_form_outflow(rates, dimension):
    """Total outflow of each basis state from one per-channel rate row:
    (tunnel_0g, tunnel_1g, relax_1g) on two levels, (tunnel_0g, tunnel_1g,
    tunnel_0e, tunnel_1e, relax_1g, relax_1e) on four.  Every state escapes
    at its own rate, and the excited junction levels also relax."""
    if dimension == 2:
        t0g, t1g, r1g = rates
        return np.array([t0g, r1g + t1g])
    t0g, t1g, t0e, t1e, r1g, r1e = rates
    return np.array([t0g, r1g + t1g, t0e, r1e + t1e])


def closed_form_H_eff(H, rates):
    """No-jump generator H - (i/2) diag(outflow) from one per-channel rate
    row."""
    return H - 0.5j * np.diag(closed_form_outflow(rates, H.shape[0]))


@pytest.fixture
def junction():
    return JunctionParams(I0, C, R, T_BASE)


@pytest.fixture
def junction_tls():
    return JunctionParams(I0, C, R, T_BASE, tls_critical_suppression=ETA_DEFAULT)


@pytest.fixture
def tls():
    return TlsParams(TWO_PI * F_TLS, TWO_PI * COUPLING)


@pytest.fixture
def drive_off():
    return BiasDrive(35.45e-6, RAMP_RATE, 0.0, TWO_PI * F_DRIVE)
