import math
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxq.circuits import (
    GATES,
    Circuit,
    FixtureError,
    Gate,
    ZxcSyntaxError,
    _unitary,
    circuit_matrix,
    circuit_to_diagram,
    export_fixtures,
    fixture_asset_names,
    format_circuit,
    gate_matrix,
    parse_circuit,
    selinger_bian_fixtures,
)
from zxq.diagram import VertexKind
from zxq.harness import random_clifford_t_circuit
from zxq.phase import Phase
from zxq.semantics import HADAMARD, equal_up_to_scalar, evaluate


def test_parse_basic():
    c = parse_circuit("qubits 2\nh 0\ncnot 0 1\n")
    assert c.width == 2
    assert c.gates == (Gate("h", (0,)), Gate("cnot", (0, 1)))


def test_parse_rational_rotation_is_t():
    c = parse_circuit("qubits 1\nrz 0 1/4\n")
    assert c.gates == (Gate("rz", (0,), Phase.exact(1, 4)),)
    assert np.allclose(circuit_matrix(c), circuit_matrix(parse_circuit("qubits 1\nt 0\n")))


def test_parse_float_rotation():
    c = parse_circuit("qubits 1\nrx 0 f:0.25\n")
    assert c.gates[0].phase == Phase.approx(0.25)


def test_parse_comments_and_blank_lines():
    c = parse_circuit("# leading comment\n\nqubits 1\nt 0  # trailing\n")
    assert c.gates == (Gate("t", (0,)),)


#: (text, a short name for its fault, the whole message of its error)
_PARSE_ERRORS = [
    ("qubits 2\ncnot 0 0\n", "distinct", "line 2: cnot qubits must be distinct"),
    ("qubits 1\nh 5\n", "out of range", "line 2: qubit index out of range 0..0"),
    ("qubits 1\nfoo 0\n", "unknown gate", "line 2: unknown gate 'foo'"),
    ("h 0\n", "qubits", "line 1: expected 'qubits N' header"),
    ("qubits 1\nrz 0\n", "argument", "line 2: rz expects 2 argument(s)"),
    ("qubits 1\nrz 0 x\n", "bad", "line 2: bad phase 'x' (want p/d or f:<float>)"),
    ("qubits 1\nrz 0 1/0\n", "denominator must be positive",
     "line 2: phase denominator must be positive"),
    ("qubits 1\nrz 0 1/-2\n", "denominator must be positive",
     "line 2: phase denominator must be positive"),
    ("qubits 1\nrz 0 f:inf\n", "finite", "line 2: radian phase must be finite, got inf"),
    ("qubits 1\nrx 0 f:nan\n", "finite", "line 2: radian phase must be finite, got nan"),
    ("qubits 0\n", "positive", "line 1: qubit count must be positive"),
    # two faults on one line: the phase is reported before the range
    ("qubits 1\nrz 5 x\n", "phase before range",
     "line 2: bad phase 'x' (want p/d or f:<float>)"),
]


@pytest.mark.parametrize(
    "text, message", [pytest.param(t, m, id=f"{t}-{fault}") for t, fault, m in _PARSE_ERRORS]
)
def test_parse_errors_carry_line(text, message):
    with pytest.raises(ZxcSyntaxError) as exc:
        parse_circuit(text)
    assert str(exc.value) == message


def test_parse_error_line_number():
    with pytest.raises(ZxcSyntaxError) as exc:
        parse_circuit("qubits 2\nh 0\ncnot 1 1\n")
    assert exc.value.line == 3


@st.composite
def circuits(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_clifford_t_circuit(random.Random(seed), width=2, max_gates=12)


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_parse_print_round_trip(c):
    assert parse_circuit(format_circuit(c)) == c


# every ROADMAP baseline is measured on these draws; the seed draws every name
_DRAWN_11 = """qubits 3
cz 1 2
cz 2 0
tdg 2
cnot 2 0
t 1
sdg 0
t 2
rx 2 0/1
swap 1 2
rz 2 1/2
swap 0 2
h 0
s 0
swap 0 1
z 1
swap 0 2
rz 1 7/4
h 2
t 1
rz 1 3/2
cz 0 1
z 0
cz 1 0
t 2
t 1
t 1
x 0
h 2
"""


def test_random_circuit_draws_are_pinned():
    c = random_clifford_t_circuit(random.Random(11), width=3, max_gates=40)
    assert format_circuit(c) == _DRAWN_11
    assert {g.name for g in c.gates} == set(GATES)


@settings(max_examples=40, deadline=None)
@given(circuits())
def test_translation_soundness(c):
    got = evaluate(circuit_to_diagram(c))
    want = circuit_matrix(c)
    assert equal_up_to_scalar(got, want, 1e-9).equal


def test_cnot_translation_scalar():
    c = parse_circuit("qubits 2\ncnot 0 1\n")
    v = equal_up_to_scalar(circuit_matrix(c), evaluate(circuit_to_diagram(c)))
    assert v.equal
    # the spider pair carries a 1/sqrt(2) normalisation
    assert v.scalar == pytest.approx(1 / np.sqrt(2))


def test_t_translation():
    c = parse_circuit("qubits 1\nt 0\n")
    assert np.allclose(evaluate(circuit_to_diagram(c)), np.diag([1, np.exp(1j * np.pi / 4)]))


def test_empty_circuit_is_identity():
    c = parse_circuit("qubits 2\n")
    assert np.allclose(evaluate(circuit_to_diagram(c)), np.eye(4))


def test_swap_is_wire_crossing():
    c = parse_circuit("qubits 2\nswap 0 1\n")
    d = circuit_to_diagram(c)
    assert d.spider_count == 0 and d.hbox_count == 0
    want = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert np.allclose(evaluate(d), want)


def test_cz_translation_uses_h_bridge():
    d = circuit_to_diagram(parse_circuit("qubits 2\ncz 0 1\n"))
    assert d.hbox_count == 1
    assert d.spider_count == 2
    assert all(d.kind(v) == VertexKind.Z for v in d.spiders())


def test_circuit_matrix_examples():
    assert np.allclose(circuit_matrix(parse_circuit("qubits 1\nh 0\nh 0\n")), np.eye(2))
    assert np.allclose(circuit_matrix(parse_circuit("qubits 1\n" + "t 0\n" * 8)), np.eye(2))
    assert np.allclose(
        circuit_matrix(parse_circuit("qubits 2\ncnot 0 1\ncnot 0 1\n")), np.eye(4)
    )


def test_circuit_matrix_width_cap():
    with pytest.raises(ValueError, match="cap"):
        circuit_matrix(Circuit(13, ()))
    # gate_matrix goes through the same cap, before any 2^13-square identity
    with pytest.raises(ValueError, match="cap"):
        gate_matrix(Gate("h", (0,)), 13)


# -- the axis-wise oracle against the kron-embedding one it replaced ----------------

_ID2 = np.eye(2, dtype=complex)
_T = np.diag([1.0, np.exp(1j * math.pi / 4)]).astype(complex)
_S = np.diag([1.0, 1j]).astype(complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)


def _embed(us, width):
    out = np.array(1.0, dtype=complex)
    for q in range(width):
        out = np.kron(out, us.get(q, _ID2))
    return out


def _reference_gate_matrix(gate, w):
    qs = gate.qubits
    name = gate.name
    if name in ("rz", "rx"):
        u = np.diag([1.0, np.exp(1j * gate.phase.radians)]).astype(complex)
        if name == "rx":
            u = HADAMARD @ u @ HADAMARD
        return _embed({qs[0]: u}, w)
    single = {"h": HADAMARD, "t": _T, "tdg": _T.conj().T, "s": _S, "sdg": _S.conj().T,
              "z": _Z, "x": _X}
    if name in single:
        return _embed({qs[0]: single[name]}, w)
    a, b = qs
    if name == "cnot":
        return _embed({a: _P0}, w) + _embed({a: _P1, b: _X}, w)
    if name == "cz":
        return _embed({a: _P0}, w) + _embed({a: _P1, b: _Z}, w)
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    e10 = e01.T.copy()
    return (
        _embed({a: _P0, b: _P0}, w)
        + _embed({a: _P1, b: _P1}, w)
        + _embed({a: e01, b: e10}, w)
        + _embed({a: e10, b: e01}, w)
    )


def _reference_circuit_matrix(c):
    """The old oracle: a dense kron embedding per gate, multiplied in order."""
    mats = [_reference_gate_matrix(g, c.width) for g in c.gates]
    return reduce(lambda acc, m: m @ acc, mats, np.eye(2**c.width, dtype=complex))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("width", range(1, 8))
def test_oracle_bit_identical_to_kron_reference(width):
    rng = random.Random(1000 + width)
    for _ in range(35):
        c = random_clifford_t_circuit(rng, width=width, max_gates=40 * width)
        assert _same_bits(circuit_matrix(c), _reference_circuit_matrix(c)), format_circuit(c)


def test_oracle_bit_identical_on_fixture_sides():
    for fx in selinger_bian_fixtures():
        for side in (fx.lhs, fx.rhs):
            assert _same_bits(circuit_matrix(side), _reference_circuit_matrix(side)), fx.id


def _every_placement(width):
    """Every gate name on every qubit, or every ordered pair of qubits."""
    for name in ("h", "t", "tdg", "s", "sdg", "z", "x"):
        for q in range(width):
            yield Gate(name, (q,))
    for name, phase in (("rz", Phase.exact(3, 4)), ("rx", Phase.approx(0.3))):
        for q in range(width):
            yield Gate(name, (q,), phase)
    for name in ("cnot", "cz", "swap"):
        for a in range(width):
            for b in range(width):
                if a != b:
                    yield Gate(name, (a, b))


@pytest.mark.parametrize("width", [2, 3, 4])
def test_oracle_bit_identical_on_every_gate_placement(width):
    gates = list(_every_placement(width))
    for g in gates:
        one = Circuit(width, (g,))
        assert _same_bits(circuit_matrix(one), _reference_circuit_matrix(one)), g
        # equal values; a bare kron embedding may hold -0 where a product has +0
        assert np.array_equal(gate_matrix(g, width), _reference_gate_matrix(g, width)), g
    # all of them in one circuit, and again in reverse, so that each gate
    # acts on a matrix with no zero entries left to hide a wrong axis
    c = Circuit(width, tuple(gates + gates[::-1]))
    assert _same_bits(circuit_matrix(c), _reference_circuit_matrix(c))


@pytest.mark.parametrize("width", [2, 3])
def test_translation_sound_on_every_gate_placement(width):
    # a row added to the gate table must be added to _every_placement too
    assert {g.name for g in _every_placement(width)} == set(GATES)
    for g in _every_placement(width):
        c = Circuit(width, (g,))
        assert equal_up_to_scalar(evaluate(circuit_to_diagram(c)), circuit_matrix(c), 1e-9).equal, g


def test_gate_matrix_reversed_and_non_adjacent_qubits():
    # cnot 2 0 flips qubit 0 (the MSB) when qubit 2 (the LSB) is set
    want = np.eye(8)[[0, 5, 2, 7, 4, 1, 6, 3]]
    assert np.array_equal(gate_matrix(Gate("cnot", (2, 0)), 3), want)
    want = np.eye(8)[[0, 4, 2, 6, 1, 5, 3, 7]]
    assert np.array_equal(gate_matrix(Gate("swap", (0, 2)), 3), want)


def test_oracle_close_to_kron_reference_at_width_8():
    # a 256x256 BLAS product rounds in another order, so bits may differ here;
    # unitary entries are at most 1, so atol is relative to the unit scale
    rng = random.Random(1008)
    circuits = [random_clifford_t_circuit(rng, width=8, max_gates=320) for _ in range(6)]
    rng = random.Random(1)
    while len(circuits) < 7:
        c = random_clifford_t_circuit(rng, width=8, max_gates=1100)
        if len(c.gates) > 990:
            circuits.append(c)
    assert len(circuits[-1].gates) == 1045
    for c in circuits:
        np.testing.assert_allclose(
            circuit_matrix(c), _reference_circuit_matrix(c), rtol=1e-12, atol=1e-12
        )


# -- the tracked-axis oracle against the tensordot loop it replaced ---------------


def _reference_tensordot_oracle(c):
    """The previous oracle: per gate, ``tensordot`` into the gate's qubit axes,
    then ``moveaxis`` back so that axis q holds qubit q again."""
    n = 2**c.width
    state = np.eye(n, dtype=complex).reshape((2,) * c.width + (n,))
    for g in c.gates:
        qs = list(g.qubits)
        k = len(qs)
        u = _unitary(g).reshape((2,) * 2 * k)
        state = np.tensordot(u, state, axes=(list(range(k, 2 * k)), qs))
        state = np.moveaxis(state, list(range(k)), qs)
    return state.reshape(n, n)


@pytest.mark.parametrize("width, count, max_gates", [(8, 3, 320), (9, 2, 120), (10, 2, 60)])
def test_oracle_bit_identical_to_tensordot_loop(width, count, max_gates):
    # the same dot products on the same operands, so the bits must match even
    # where the kron reference only comes close
    rng = random.Random(2000 + width)
    for _ in range(count):
        c = random_clifford_t_circuit(rng, width=width, max_gates=max_gates)
        assert _same_bits(circuit_matrix(c), _reference_tensordot_oracle(c)), format_circuit(c)


def test_oracle_bit_identical_to_tensordot_loop_on_every_gate_placement():
    gates = list(_every_placement(5))
    for g in gates:
        one = Circuit(5, (g,))
        assert _same_bits(circuit_matrix(one), _reference_tensordot_oracle(one)), g
    c = Circuit(5, tuple(gates + gates[::-1]))
    assert _same_bits(circuit_matrix(c), _reference_tensordot_oracle(c))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("cz", (1, 1))
    with pytest.raises(ValueError):
        Gate("h", (0,), Phase.zero())
    with pytest.raises(ValueError):
        Gate("rz", (0,))
    with pytest.raises(ValueError):
        Circuit(1, (Gate("h", (3,)),))
    with pytest.raises(ValueError, match="out of range"):
        gate_matrix(Gate("h", (3,)), 2)


def test_is_clifford_t():
    assert parse_circuit("qubits 2\nt 0\ncnot 0 1\n").is_clifford_t
    assert not parse_circuit("qubits 1\nrz 0 f:0.3\n").is_clifford_t
    assert not parse_circuit("qubits 1\nrz 0 1/3\n").is_clifford_t
    assert parse_circuit("qubits 1\nrz 0 3/2\n").is_clifford_t


# -- the relation corpus ---------------------------------------------------------


def test_fixture_count():
    assert len(selinger_bian_fixtures()) == 17
    assert len(fixture_asset_names()) == 34


def test_fixtures_are_two_qubit_unitaries():
    eye = np.eye(4)
    for fx in selinger_bian_fixtures():
        for side in (fx.lhs, fx.rhs):
            assert side.width == 2
            m = circuit_matrix(side)
            assert equal_up_to_scalar(m.conj().T @ m, eye, 1e-9).equal


def test_fixtures_hold_up_to_scalar():
    for fx in selinger_bian_fixtures():
        v = equal_up_to_scalar(circuit_matrix(fx.lhs), circuit_matrix(fx.rhs), 1e-9)
        assert v.equal, f"relation {fx.id}: residual {v.residual}"


def test_squared_fixtures_are_identity():
    eye = np.eye(4)
    by_id = {fx.id: fx for fx in selinger_bian_fixtures()}
    for fid in (15, 16, 17):
        v = equal_up_to_scalar(eye, circuit_matrix(by_id[fid].lhs), 1e-9)
        assert v.equal, f"relation {fid} lhs is not proportional to I"
        assert by_id[fid].rhs.gates == ()
    # relation 15 squares a circuit: its half is a genuine non-identity
    half = by_id[15].lhs.gates[: len(by_id[15].lhs.gates) // 2]
    m = circuit_matrix(Circuit(2, half))
    assert not equal_up_to_scalar(eye, m, 1e-6).equal
    assert equal_up_to_scalar(m @ m, eye, 1e-9).equal


def test_fixture_17_is_inverse_pair():
    fx = {f.id: f for f in selinger_bian_fixtures()}[17]
    # the composite is C followed by its inverse; C alone is not trivial
    assert len(fx.lhs.gates) > 8


def test_export_fixtures(tmp_path):
    paths = export_fixtures(str(tmp_path))
    assert len(paths) == 34
    reloaded = parse_circuit((tmp_path / "rel01_lhs.zxc").read_text())
    assert reloaded.gates == (Gate("h", (0,)), Gate("h", (0,)))


def test_missing_fixture_asset(monkeypatch):
    import zxq.circuits as mod

    def boom(name):
        raise FixtureError(f"missing fixture asset {name!r}")

    monkeypatch.setattr(mod, "_read_asset", boom)
    with pytest.raises(FixtureError, match="missing"):
        selinger_bian_fixtures()
