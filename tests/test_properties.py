"""Randomized invariant suites for the difference operators, angular transfer,
advection operator, conservative truncation, gauge freedom, and the energy of
one low-rank step."""

import property_suites as suites


def test_summation_by_parts():
    assert suites.summation_by_parts_suite(500) <= 1e-12


def test_forward_difference_bound():
    # sum (D+ phi)^2 <= (4/dx^2) sum phi^2, exact inequality up to roundoff
    assert suites.forward_difference_bound_suite(500) <= 1e-12


def test_moment_space_transfer_identities():
    assert suites.moment_transfer_suite(200) <= 1e-10


def test_advection_positivity_identity():
    defect, smallest = suites.advection_positivity_suite(200)
    assert defect <= 1e-11
    assert smallest >= -1e-12


def test_advection_boundedness():
    assert suites.advection_boundedness_suite(200) <= 1e-12


def test_truncation_factor_identity():
    assert suites.truncation_factor_identity_suite(200) <= 1e-9


def test_gauge_invariance_of_fixed_rank_step():
    assert suites.gauge_invariance_suite(200) <= 1e-11


def test_low_rank_steps_do_not_gain_energy():
    # one bug_fixed and one bug_adaptive step at the CFL bound from random pinned states
    assert suites.step_energy_suite(100) <= 1e-12
