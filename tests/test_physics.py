"""Detuning physics: mixing angle, charge branches, sweep windows, waveforms."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from charge_oracle import (charge_hamiltonian, detuning_at, hold_at,
                           hybridized_states, square_pulse)

from dotmol import (DetuningWaveform, MoleculeParams, adiabatic_angle,
                    charge_branch_energies, full_sweep, sin_sq_mixing,
                    sweep_rate_window, validate_waveform)
from dotmol.constants import HBAR_UEV_NS


def test_mixing_angle_range_and_limits():
    tc, ec = 10.0, 5000.0
    assert -math.pi / 2 < adiabatic_angle(-ec / 2, tc) < 0
    assert -math.pi / 2 < adiabatic_angle(+ec / 2, tc) < 0
    assert sin_sq_mixing(-ec / 2, tc) < 1e-4
    assert sin_sq_mixing(+ec / 2, tc) > 1 - 1e-4


# eps >> Tc rounds eps - hypot(eps, 2 Tc) to +0.0, and eps near -1e308
# overflows it; theta must still take its limit, with no numpy warning
DEGENERATE_ANGLES = {4e12: -math.pi / 2, 1e20: -math.pi / 2, 1.7e308: -math.pi / 2,
                     -1.7e308: 0.0}


def test_mixing_angle_takes_its_limit_where_the_denominator_rounds_away():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps, limit in DEGENERATE_ANGLES.items():
            theta = adiabatic_angle(eps, 10.0)
            assert type(theta) is float and theta == limit
            assert sin_sq_mixing(eps, 10.0) == (1.0 if limit else 0.0)
        # short of the rounding, the angle nears the same limit from above
        assert -math.pi / 2 < adiabatic_angle(1e8, 10.0) < -math.pi / 2 + 1e-6


def test_mixing_angle_array_takes_its_limit_where_the_denominator_rounds_away():
    eps = np.array([-2500.0, 0.0, 2500.0, *DEGENERATE_ANGLES])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = adiabatic_angle(eps, 10.0)
    assert theta.shape == eps.shape
    assert theta.tolist() == [adiabatic_angle(e, 10.0) for e in eps.tolist()]
    assert theta[3:].tolist() == list(DEGENERATE_ANGLES.values())
    assert np.all((theta >= -math.pi / 2) & (theta <= 0.0))


# where 2*Tc or hypot(eps, 2*Tc) overflows, the angle is still the one that
# eps and Tc scaled down by 16 give; (1e308, 8e307) is about -1.065 rad
OVERFLOWING_ROOTS = [(1e308, 8e307), (-1e308, 8e307), (0.0, 1e308),
                     (1.7e308, 1.7e308), (-1.7e308, 1e308)]


def scaled_angle(eps, tc):
    e, t = eps / 16, tc / 16
    return math.atan(2 * t / (e - math.hypot(e, 2 * t)))


def test_mixing_angle_survives_an_overflowing_root():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps, tc in OVERFLOWING_ROOTS:
            theta = adiabatic_angle(eps, tc)
            assert type(theta) is float
            assert theta == pytest.approx(scaled_angle(eps, tc), rel=1e-12)
        assert adiabatic_angle(1e308, 8e307) == pytest.approx(-1.0647, abs=1e-4)
        assert adiabatic_angle(0.0, 1e308) == pytest.approx(-math.pi / 4, rel=1e-15)


def test_mixing_angle_array_survives_an_overflowing_root():
    # at Tc = 8e307 only the large |eps| overflow, so the array mixes both forms
    eps = np.array([-2500.0, 0.0, 2500.0, 1e308, -1e308, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tc in (8e307, 1e308):
            theta = adiabatic_angle(eps, tc)
            assert theta.tolist() == [adiabatic_angle(e, tc) for e in eps.tolist()]
            assert theta.tolist() == pytest.approx(
                [scaled_angle(e, tc) for e in eps.tolist()], rel=1e-12)


def test_mixing_limits_hold_whenever_ec_dominates():
    rng = np.random.default_rng(3)
    for _ in range(50):
        tc = rng.uniform(0.5, 30.0)
        ec = tc * rng.uniform(100.0, 5000.0)
        assert sin_sq_mixing(-ec / 2, tc) < 1e-4
        assert sin_sq_mixing(+ec / 2, tc) > 1 - 1e-4


def test_hybridized_states_are_hamiltonian_eigenvectors():
    rng = np.random.default_rng(11)
    for _ in range(100):
        tc = rng.uniform(0.1, 50.0)
        eps = rng.uniform(-5000.0, 5000.0)
        h = charge_hamiltonian(eps, tc)
        lower, upper = charge_branch_energies(eps, tc)
        s, g = hybridized_states(adiabatic_angle(eps, tc))
        assert np.max(np.abs(h @ s - lower * s)) < 1e-12 * max(1.0, abs(lower))
        assert np.max(np.abs(h @ g - upper * g)) < 1e-12 * max(1.0, abs(upper))


def test_hybridized_states_orthonormal():
    rng = np.random.default_rng(4)
    for theta in rng.uniform(-math.pi / 2, 0.0, size=100):
        s, g = hybridized_states(theta)
        assert abs(np.dot(s, s) - 1.0) < 1e-12
        assert abs(np.dot(g, g) - 1.0) < 1e-12
        assert abs(np.dot(s, g)) < 1e-12


def test_sin_sq_monotone_in_detuning():
    eps = np.linspace(-2500.0, 2500.0, 1000)
    values = sin_sq_mixing(eps, 10.0)
    assert np.all(np.diff(values) > 0)


def test_branch_energies():
    lower, upper = charge_branch_energies(0.0, 10.0)
    assert (lower, upper) == (-10.0, 10.0)
    lower, upper = charge_branch_energies(2500.0, 10.0)
    # frozen: sqrt(1250^2 + 100)
    assert math.isclose(upper, 1250.0399993600203, rel_tol=1e-12)
    assert lower == -upper
    rng = np.random.default_rng(8)
    for eps in rng.uniform(-3000, 3000, size=50):
        lo, hi = charge_branch_energies(eps, 7.0)
        assert hi - lo >= 2 * 7.0


def test_sweep_window_default_values():
    window = sweep_rate_window(MoleculeParams())
    # frozen: 10*hbar/10 and (hbar / (0.44*57.8838e-3*3)) / 10
    assert math.isclose(window.min_duration, 0.6582119569, rel_tol=1e-12)
    assert math.isclose(window.max_duration, 0.861459375324252, rel_tol=1e-12)
    assert not window.is_empty


def test_sweep_window_mean_speed_of_one_ns_sweep():
    # A full 5000 ueV sweep over 1 ns means 5 meV/ns.
    params = MoleculeParams()
    w = full_sweep(params, 1.0)
    rate = abs(w.detunings[1] - w.detunings[0]) / w.duration
    assert math.isclose(rate, 5000.0)


def test_sweep_window_empty_and_unbounded():
    weak = MoleculeParams(tunnel_coupling=1.0)  # min = 6.58 > max = 0.86
    assert sweep_rate_window(weak).is_empty
    free = MoleculeParams(nuclear_field=0.0)
    window = sweep_rate_window(replace(free, safety_factor=1.0))
    assert math.isinf(window.max_duration)
    assert not window.is_empty


def test_params_validation():
    with pytest.raises(ValueError):
        MoleculeParams(tunnel_coupling=-1.0)
    with pytest.raises(ValueError):
        MoleculeParams(charging_energy=0.0)
    with pytest.raises(ValueError):
        MoleculeParams(tunnel_coupling=600.0, charging_energy=5000.0)
    with pytest.raises(ValueError):
        MoleculeParams(nuclear_field=-0.1)
    with pytest.raises(ValueError):
        MoleculeParams(coherence_time=0.0)
    assert math.isinf(MoleculeParams(nuclear_field=0.0).nuclear_mixing_time)


@pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf, 0.5])
def test_params_refuse_a_bad_sweep_margin(margin):
    with pytest.raises(ValueError, match="safety_factor must be finite and >= 1"):
        MoleculeParams(safety_factor=margin)


def test_waveform_construction():
    with pytest.raises(ValueError):
        DetuningWaveform((0.0, 1.0, 1.0), (0.0, 1.0, 2.0))  # non-increasing t
    with pytest.raises(ValueError):
        DetuningWaveform((0.0,), (0.0,))
    with pytest.raises(ValueError):
        DetuningWaveform((0.0, math.nan), (0.0, 1.0))
    w = square_pulse(MoleculeParams(), ramp=0.75, hold=0.37)
    assert math.isclose(w.duration, 2 * 0.75 + 0.37)
    assert detuning_at(w, 0.75) == 2500.0
    assert detuning_at(w, 0.0) == -2500.0
    segs = list(w.segments())
    assert len(segs) == 3 and segs[1][2] == segs[1][3] == 2500.0


def test_validate_waveform_hold_is_valid(params):
    w = hold_at(params.detuning_min, 5.0)
    assert validate_waveform(w, params) == []


def test_validate_waveform_flags_fast_sweep(params):
    violations = validate_waveform(full_sweep(params, 0.01), params)
    assert any(v.reason == "too_fast" for v in violations)
    assert any("violates adiabaticity with respect to Tc" in v.message
               for v in violations)


def test_validate_waveform_flags_slow_sweep(params):
    violations = validate_waveform(full_sweep(params, 5.0), params)
    assert [v.reason for v in violations] == ["too_slow"]


def test_validate_waveform_in_window_passes(params):
    assert validate_waveform(full_sweep(params, 0.75), params) == []
    # a 1 ns full sweep (the 5 meV/ns flavor) needs the window at safety 5
    params = replace(params, safety_factor=5.0)
    window = sweep_rate_window(params)
    assert window.min_duration < 1.0 < window.max_duration
    assert validate_waveform(full_sweep(params, 1.0), params) == []


def test_validate_waveform_range_and_endpoint(params):
    out_of_range = DetuningWaveform((0.0, 0.75), (-2500.0, 3000.0))
    reasons = {v.reason for v in validate_waveform(out_of_range, params)}
    assert "detuning_out_of_range" in reasons

    # gate pulses must start and end at the idle point
    stranded = DetuningWaveform((0.0, 0.75), (-2500.0, 2500.0))
    reasons = {v.reason for v in validate_waveform(stranded, params)}
    assert "endpoint_not_idle" in reasons
    # but measurement excursions are allowed to end charge-sensitive
    assert validate_waveform(full_sweep(params, 0.75), params) == []


def test_gate_square_pulse_validates(params):
    ramp = math.sqrt(0.6582119569 * 0.861459375324252)
    w = square_pulse(params, ramp=ramp, hold=0.5)
    assert validate_waveform(w, params) == []


def test_nuclear_mixing_time_frozen():
    assert math.isclose(MoleculeParams().nuclear_mixing_time,
                        8.61459375324252, rel_tol=1e-12)
    assert math.isclose(MoleculeParams().nuclear_mixing_time,
                        HBAR_UEV_NS / (0.44 * 57.8838e-3 * 3.0), rel_tol=1e-12)
