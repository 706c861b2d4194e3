import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zxq.phase import TWO_PI, Phase, circular_distance
from zxq.phase_algebra import (
    EulerTriple,
    GeneralPhaseTriple,
    SingularConfiguration,
    chain_parameters,
    degenerate_case,
    euler_xzx_extract,
    generalized_color_swap,
    p_rule_angles,
    swap_residual,
    x_general,
    xzx_matrix,
    z_general,
    zxz_matrix,
)
from zxq.semantics import equal_up_to_scalar


def triple(a, b, g):
    return EulerTriple(Phase.approx(a), Phase.approx(b), Phase.approx(g))


def test_hand_anchor_i_i_i():
    inp = GeneralPhaseTriple(1j, 1j, 1j)
    sol = generalized_color_swap(inp)
    assert abs(sol.out.a - 1j) < 1e-12
    assert abs(sol.out.b - 1j) < 1e-12
    assert abs(sol.out.c - 1j) < 1e-12
    assert abs(sol.k - 2.0) < 1e-12
    # intermediate products, worked by hand from the defining polynomials
    assert sol.intermediates.tau == pytest.approx(2 + 2j)
    assert sol.intermediates.u == pytest.approx(-2 - 2j)
    assert sol.intermediates.v == pytest.approx(0)
    assert sol.intermediates.s == pytest.approx(2 + 2j)
    assert sol.intermediates.t == pytest.approx(-16 + 16j)
    # k * LHS = [[2+2i, 2+2i], [2+2i, -2-2i]]
    lhs = z_general(1j) @ x_general(1j) @ z_general(1j)
    assert np.allclose(sol.k * lhs, np.array([[2 + 2j, 2 + 2j], [2 + 2j, -2 - 2j]]))


unit = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)
radial = st.floats(min_value=0.25, max_value=4.0)


@st.composite
def general_phases(draw):
    r = draw(radial) if draw(st.booleans()) else 1.0
    return r * cmath.exp(1j * draw(unit))


@settings(max_examples=150, deadline=None)
@given(general_phases(), general_phases(), general_phases())
def test_swap_identity_round_trip(a, b, c):
    inp = GeneralPhaseTriple(a, b, c)
    try:
        sol = generalized_color_swap(inp)
    except SingularConfiguration:
        assume(False)
    assert swap_residual(inp, sol) <= 1e-9
    assert sol.k != 0


@settings(max_examples=100, deadline=None)
@given(unit, unit)
def test_equal_outer_phases_give_equal_outputs(ta, tb):
    a, b = cmath.exp(1j * ta), cmath.exp(1j * tb)
    try:
        sol = generalized_color_swap(GeneralPhaseTriple(a, b, a))
    except SingularConfiguration:
        assume(False)
    assert abs(sol.out.a - sol.out.c) < 1e-9


@settings(max_examples=100, deadline=None)
@given(general_phases(), general_phases())
def test_reciprocal_outer_phases_give_opposite_outputs(a, b):
    try:
        sol = generalized_color_swap(GeneralPhaseTriple(a, b, 1 / a))
    except SingularConfiguration:
        assume(False)
    assert abs(sol.out.a + sol.out.c) < 1e-9


@settings(max_examples=100, deadline=None)
@given(unit, unit, unit)
def test_unit_modulus_closure(ta, tb, tc):
    inp = GeneralPhaseTriple(cmath.exp(1j * ta), cmath.exp(1j * tb), cmath.exp(1j * tc))
    try:
        sol = generalized_color_swap(inp)
    except SingularConfiguration:
        assume(False)
    for value in (sol.out.a, sol.out.b, sol.out.c):
        assert abs(abs(value) - 1.0) < 1e-9


@pytest.mark.parametrize(
    "inp, reason",
    [
        ((1 + 0j, 0.3j, 1 + 0j), "T=0"),  # U = V = 0
        ((2 + 0j, complex(-1, 0) / 9, 2 + 0j), "S=0"),
        ((2 + 0j, 0j, 3 + 0j), "tau-degenerate"),  # S tau^2 + T = 0 exactly
    ],
)
def test_singular_configurations(inp, reason):
    with pytest.raises(SingularConfiguration) as exc:
        generalized_color_swap(GeneralPhaseTriple(*inp))
    assert exc.value.reason == reason


def test_quarter_turn_chain_is_fixed_point():
    t = EulerTriple(Phase.exact(1, 2), Phase.exact(1, 2), Phase.exact(1, 2))
    out = p_rule_angles(t)
    for angle in out.radians:
        assert angle == pytest.approx(math.pi / 2, abs=1e-12)
    # both sides are proportional to the Hadamard
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert equal_up_to_scalar(zxz_matrix(t), h).equal
    assert equal_up_to_scalar(xzx_matrix(out), h).equal


@settings(max_examples=200, deadline=None)
@given(unit, unit, unit)
def test_recomposition(a, b, g):
    t = triple(a, b, g)
    out = p_rule_angles(t)
    v = equal_up_to_scalar(zxz_matrix(t), xzx_matrix(out), 1e-9)
    assert v.equal, v.residual


@settings(max_examples=150, deadline=None)
@given(unit, unit, unit)
@example(0.0, 1.0, 2.4844023926397053e-12)
def test_agrees_with_extraction_oracle(a, b, g):
    # the oracle reads arg(q) off matrix entries that carry ~1e-16 rounding,
    # so its angle error is ~1e-16/|z1|; at the example above (|z1| = 1.2e-12)
    # it is off by 4e-6 while p_rule_angles is exact to 50 digits.  The
    # matrix-free check below covers |z1| down to 1e-15.
    t = triple(a, b, g)
    assume(degenerate_case(t) is None)
    assume(abs(chain_parameters(t)[1]) > 1e-5)
    ours = p_rule_angles(t)
    oracle = euler_xzx_extract(zxz_matrix(t))
    for x, y in zip(ours.radians, oracle.radians):
        assert circular_distance(x, y) < 1e-7


def _closed_form_50_digits(t: EulerTriple, case: str | None):
    """p_rule_angles' closed form (and its z1=0 / z=0 branches) evaluated
    with 50 significant digits at the same float inputs; also |z1|."""
    with mpmath.workdps(50):
        a, b, g = (mpmath.mpf(x) for x in t.radians)
        z = mpmath.mpc(
            mpmath.cos(b / 2) * mpmath.cos((a + g) / 2), mpmath.sin(b / 2) * mpmath.cos((a - g) / 2)
        )
        z1 = mpmath.mpc(
            mpmath.cos(b / 2) * mpmath.sin((a + g) / 2), -mpmath.sin(b / 2) * mpmath.sin((a - g) / 2)
        )
        if case == "z1=0":
            angles = (2 * mpmath.arg(z), 0, 0)
        elif case == "z=0":
            angles = (2 * mpmath.arg(z1), mpmath.pi, 0)
        else:
            angles = (
                mpmath.arg(z) + mpmath.arg(z1),
                2 * mpmath.arg(abs(z / z1) + 1j),
                mpmath.arg(z) - mpmath.arg(z1),
            )
        return [float(x) for x in angles], float(abs(z1))


#: a signed power of ten from 1e-15 to 1; |z1| scales with it
tiny = st.builds(lambda s, e: s * 10.0**e, st.sampled_from((-1.0, 1.0)), st.floats(-15.0, 0.0))
middle = st.floats(min_value=0.1, max_value=TWO_PI - 0.1)


@st.composite
def near_z1_zero(draw):
    """Chains with z1 near 0: alpha = 0 with a tiny gamma, or gamma = -alpha
    with alpha near 0 or pi, where alpha + gamma rounds in floats."""
    eps, b = draw(tiny), draw(middle)
    family = draw(st.sampled_from(("alpha=0", "near 0", "near pi")))
    if family == "alpha=0":
        return triple(0.0, b, eps % TWO_PI)
    a = (eps if family == "near 0" else math.pi + eps) % TWO_PI
    return triple(a, b, (TWO_PI - a) % TWO_PI)


@settings(max_examples=300, deadline=None)
@given(near_z1_zero())
@example(triple(0.0, 1.0, 2.4844023926397053e-12))
def test_p_rule_angles_match_50_digit_closed_form(t):
    # a float rounding of ~1e-16 in z1 moves arg(z1) by ~1e-16/|z1|; over
    # 1,500 draws per family the error times |z1| stayed under 6e-16
    case = degenerate_case(t)
    assume(case != "beta1=0")
    want, z1 = _closed_form_50_digits(t, case)
    bound = max(1e-12, 4e-15 / z1)
    for x, y in zip(p_rule_angles(t).radians, want):
        assert circular_distance(x, y) <= bound, (case, z1)


@settings(max_examples=150, deadline=None)
@given(unit, unit)
def test_equal_angles_side_condition(a, b):
    t = triple(a, b, a)
    assume(degenerate_case(t) is None)
    out = p_rule_angles(t)
    assert circular_distance(out.alpha.radians, out.gamma.radians) < 1e-9


@settings(max_examples=150, deadline=None)
@given(unit, unit)
def test_opposite_angles_side_condition(a, b):
    # the float error in building gamma = -alpha (~1e-16) enters arg(z1)
    # amplified by 1/|z1|, so the family must stay off the degenerate set
    t = triple(a, b, (TWO_PI - a) % TWO_PI)
    assume(abs(chain_parameters(t)[1]) > 1e-5)
    out = p_rule_angles(t)
    assert circular_distance(out.alpha.radians, math.pi + out.gamma.radians) < 1e-9


def test_pure_x_chain_degenerate():
    t = triple(0.0, 1.234, 0.0)
    assert degenerate_case(t) == "z1=0"
    out = p_rule_angles(t)
    assert out.alpha.radians == pytest.approx(1.234, abs=1e-12)
    assert out.beta.radians == 0.0
    assert out.gamma.radians == 0.0


def test_beta_zero_degenerate():
    t = triple(0.7, 0.0, 1.1)
    assert degenerate_case(t) == "beta1=0"
    out = p_rule_angles(t)
    v = equal_up_to_scalar(zxz_matrix(t), xzx_matrix(out), 1e-9)
    assert v.equal
    # canonical: a single middle rotation
    assert out.beta.radians == pytest.approx(1.8, abs=1e-12)
    assert out.alpha.radians == pytest.approx(0.0, abs=1e-12)
    assert out.gamma.radians == pytest.approx(0.0, abs=1e-12)


def test_z_zero_degenerate():
    a = 0.9
    t = triple(a, math.pi, a + math.pi)
    assert degenerate_case(t) == "z=0"
    out = p_rule_angles(t)
    assert out.beta.radians == pytest.approx(math.pi)
    assert out.gamma.radians == 0.0
    assert equal_up_to_scalar(zxz_matrix(t), xzx_matrix(out), 1e-9).equal


def test_extract_pure_x_phase():
    from zxq.phase_algebra import x_phase_matrix

    out = euler_xzx_extract(x_phase_matrix(0.8))
    assert out.alpha.radians == pytest.approx(0.8, abs=1e-9)
    assert out.beta.radians == 0.0
    assert out.gamma.radians == 0.0


def test_extract_hadamard():
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    out = euler_xzx_extract(h)
    for angle in out.radians:
        assert angle == pytest.approx(math.pi / 2, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(unit, unit, unit, unit)
def test_extract_random_unitary_self_check(a, b, g, phase):
    u = cmath.exp(1j * phase) * zxz_matrix(triple(a, b, g))
    out = euler_xzx_extract(u)
    assert equal_up_to_scalar(u, xzx_matrix(out), 1e-9).equal


def test_extract_rejects_singular():
    with pytest.raises(ValueError, match="invertible"):
        euler_xzx_extract(np.array([[1.0, 1.0], [1.0, 1.0]]))
