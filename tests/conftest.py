import math
import warnings

import pytest

from jjswitch.hamiltonian import TlsParams
from jjswitch.physics import (
    BiasDrive,
    JunctionParams,
    microwave_amplitude_for_rabi,
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


@pytest.fixture(autouse=True)
def _quiet_expected_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="RWA marginal")
        warnings.filterwarnings("ignore", message="TLS coupling")
        yield


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
