import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zxq.circuits import circuit_to_diagram, parse_circuit
from zxq.diagram import VertexKind
from zxq.diagram_io import deserialize, serialize
from zxq.phase import TWO_PI, Phase, circular_distance, parse_phase

from .conftest import approx_phases, phases


def test_exact_addition():
    assert Phase.exact(1, 4) + Phase.exact(1, 4) == Phase.exact(1, 2)


def test_exact_addition_wraps():
    assert Phase.exact(7, 4) + Phase.exact(1, 2) == Phase.exact(1, 4)


def test_mixed_addition_promotes():
    p = Phase.exact(1, 4) + Phase.approx(0.1)
    assert not p.is_exact
    assert p.radians == pytest.approx(math.pi / 4 + 0.1, abs=1e-12)


def test_normalisation_examples():
    assert Phase.exact(-1, 4) == Phase.exact(7, 4)
    assert Phase.exact(9, 4) == Phase.exact(1, 4)
    assert Phase.exact(4, 2) == Phase.exact(0)
    assert Phase.exact(0).denominator == 1
    assert Phase.approx(-0.5).radians == pytest.approx(TWO_PI - 0.5)
    assert Phase.approx(TWO_PI).radians == 0.0


@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=12))
def test_exact_normal_form(num, den):
    p = Phase.exact(num, den)
    assert 0 <= p.numerator < 2 * p.denominator
    assert math.gcd(p.numerator, p.denominator) == 1
    assert p.frac == Fraction(num, den) % 2


@given(approx_phases())
def test_approx_range(p):
    assert 0.0 <= p.radians < TWO_PI


@given(phases(), phases())
def test_addition_commutes(p, q):
    assert (p + q).close_to(q + p, 1e-12)


@given(phases(), phases(), phases())
def test_addition_associates(p, q, r):
    assert ((p + q) + r).close_to(p + (q + r), 1e-9)


@given(phases())
def test_negation_cancels(p):
    assert (p + (-p)).close_to(Phase.zero(), 1e-12)


def test_clifford_t_membership():
    assert Phase.exact(3, 4).is_clifford_t
    assert Phase.exact(1, 2).is_clifford_t
    assert Phase.exact(1).is_clifford_t
    assert Phase.exact(0).is_clifford_t
    assert not Phase.exact(1, 3).is_clifford_t
    assert not Phase.approx(math.pi / 4).is_clifford_t


def test_exact_checks_agree_with_the_fraction_definition():
    nums, dens = range(-16, 17), range(1, 9)
    queries = [(n, d) for n in nums for d in dens] + [(1, -2), (-3, -4)]
    radians = [Phase.approx(r) for r in (0.0, math.pi, math.pi / 2, -math.pi, 1e-15, 5.0)]
    for p in [Phase.exact(n, d) for n in nums for d in dens] + radians:
        exact = p.frac is not None
        assert p.is_zero == (exact and p.frac == Fraction(0) % 2)
        assert p.is_pi == (exact and p.frac == Fraction(1) % 2)
        for n, d in queries:
            assert p.equals_exact(n, d) == (exact and p.frac == Fraction(n, d) % 2), (p, n, d)


def test_exactly_one_representation():
    with pytest.raises(ValueError):
        Phase(frac=Fraction(1, 2), rad=0.3)
    with pytest.raises(ValueError):
        Phase()


def test_interned_exact_phases_compare_as_before():
    assert Phase.exact(3, 4) is Phase.exact(3, 4)
    for p, num, den in [(Phase.exact(3, 4), 3, 4), (Phase.exact(-1, 4), 7, 4),
                        (Phase.exact(4, 2), 0, 1), (Phase.zero(), 0, 1)]:
        fresh = Phase(frac=Fraction(num, den))
        assert p == fresh and hash(p) == hash(fresh)
        assert repr(p) == repr(fresh) == f"Phase.exact({num}, {den})"
    assert Phase.exact(-1, 4) == Phase.exact(7, 4)
    assert Phase.exact(1, 4) != Phase.approx(math.pi / 4)


def test_exact_phase_errors_are_not_cached():
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            Phase.exact(1, 0)
    # an equal key of another type is not served from the cache
    assert Phase.exact(1, 4).frac == Fraction(1, 4)
    for _ in range(2):
        with pytest.raises(TypeError):
            Phase.exact(1.0, 4)


def test_exact_phase_cache_is_bounded():
    size = Phase.exact.cache_info().maxsize
    assert isinstance(size, int) and size > 0
    for num in range(size + 10):
        assert Phase.exact(num, 1 + size).frac == Fraction(num, 1 + size) % 2
    assert Phase.exact.cache_info().currsize == size


def test_zxg_round_trip_through_interned_phases_is_byte_identical():
    c = parse_circuit("qubits 2\nrz 0 -1/4\nt 1\ncz 0 1\nrx 1 9/8\nsdg 0\nrz 1 f:0.25\n")
    d = circuit_to_diagram(c)
    d.add_vertex(VertexKind.X, Phase.exact(5, 3))
    text = serialize(d)
    assert serialize(deserialize(text)) == text
    assert '"num": 7,\n        "den": 4' in text and '"rad": 0.25' in text


@pytest.mark.parametrize("rad", [math.nan, math.inf, -math.inf])
def test_radian_phase_must_be_finite(rad):
    with pytest.raises(ValueError, match="finite"):
        Phase.approx(rad)


def test_parse_phase_grammar():
    assert parse_phase("3/4") == Phase.exact(3, 4)
    assert parse_phase("-1/4") == Phase.exact(7, 4)
    assert parse_phase("f:0.5") == Phase.approx(0.5)
    for text, match in [
        ("1/0", "positive"),
        ("1/-2", "positive"),
        ("1/x", "bad rational"),
        ("f:x", "bad float"),
        ("f:nan", "finite"),
        ("0.5", "want p/d"),
    ]:
        with pytest.raises(ValueError, match=match):
            parse_phase(text)


def test_circular_distance_wraps():
    assert circular_distance(0.05, TWO_PI - 0.05) == pytest.approx(0.1)
    assert Phase.approx(1e-12).close_to(Phase.zero())
