"""Clifford+T circuits: parsing, diagrams, matrices and relation fixtures.

The ``.zxc`` text format: the first non-comment line is ``qubits N``,
then one gate per line in application order (the first line acts first).
``#`` starts a comment.  Rotation phases are written ``p/d`` meaning
(p/d)*pi, or ``f:<float>`` for plain radians (:func:`zxq.phase.parse_phase`).

This module owns the gate set: names, arities, diagram patterns and
unitaries.  The diagram-free oracle :func:`circuit_matrix` holds the product
so far as a ``(2,)*w + (2^w,)`` tensor, one axis per qubit plus the column
index last, and applies each gate's 2x2 or 4x4 matrix to that gate's own
qubit axes only: a gate costs O(4^w), where a dense 2^w x 2^w embedding
would cost O(8^w).  Each gate is one ``np.dot`` into a copy of the tensor
transposed so that the gate's qubits lead and the others follow in qubit
order (the operands ``tensordot`` would build); the axes are not moved
back, but a list records which qubit each axis holds, and one transpose at
the end puts qubit 0 first, as the most significant bit.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass

import numpy as np

from .diagram import Diagram, VertexKind
from .phase import Phase, parse_phase
from .phase_algebra import x_phase_matrix, z_phase_matrix
from .semantics import HADAMARD

GATE_ARITY = {
    "h": 1, "t": 1, "tdg": 1, "s": 1, "sdg": 1, "z": 1, "x": 1,
    "rz": 1, "rx": 1, "cnot": 2, "cz": 2, "swap": 2,
}
_PARAMETRIC = ("rz", "rx")

_FIXED_PHASES = {
    "t": Phase.exact(1, 4),
    "tdg": Phase.exact(7, 4),
    "s": Phase.exact(1, 2),
    "sdg": Phase.exact(3, 2),
    "z": Phase.exact(1),
    "x": Phase.exact(1),
}


class ZxcSyntaxError(ValueError):
    """Malformed ``.zxc`` text; carries the 1-based line number."""

    def __init__(self, line: int, msg: str):
        super().__init__(f"line {line}: {msg}")
        self.line = line


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    phase: Phase | None = None

    def __post_init__(self) -> None:
        if self.name not in GATE_ARITY:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(self.qubits) != GATE_ARITY[self.name]:
            raise ValueError(f"{self.name} takes {GATE_ARITY[self.name]} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} qubits must be distinct")
        if (self.phase is not None) != (self.name in _PARAMETRIC):
            raise ValueError(f"phase mismatch for {self.name}")


@dataclass(frozen=True)
class Circuit:
    width: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be positive")
        for g in self.gates:
            if any(q < 0 or q >= self.width for q in g.qubits):
                raise ValueError(f"gate {g.name} addresses a qubit out of range")

    @property
    def is_clifford_t(self) -> bool:
        """True iff every parametric rotation is an exact multiple of pi/4."""
        return all(g.phase is None or g.phase.is_clifford_t for g in self.gates)


def parse_circuit(text: str) -> Circuit:
    """Parse ``.zxc`` text into a circuit."""
    width = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.lower().split()
        if width is None:
            if toks[0] != "qubits" or len(toks) != 2:
                raise ZxcSyntaxError(lineno, "expected 'qubits N' header")
            try:
                width = int(toks[1])
            except ValueError:
                raise ZxcSyntaxError(lineno, "qubit count must be an integer") from None
            if width <= 0:
                raise ZxcSyntaxError(lineno, "qubit count must be positive")
            continue
        name = toks[0]
        if name not in GATE_ARITY:
            raise ZxcSyntaxError(lineno, f"unknown gate {name!r}")
        arity = GATE_ARITY[name]
        want = arity + (1 if name in _PARAMETRIC else 0)
        if len(toks) - 1 != want:
            raise ZxcSyntaxError(lineno, f"{name} expects {want} argument(s)")
        try:
            qubits = tuple(int(t) for t in toks[1 : 1 + arity])
        except ValueError:
            raise ZxcSyntaxError(lineno, "qubit indices must be integers") from None
        phase = None
        if name in _PARAMETRIC:
            try:
                phase = parse_phase(toks[1 + arity])
            except ValueError as e:
                raise ZxcSyntaxError(lineno, str(e)) from None
        if any(q < 0 or q >= width for q in qubits):
            raise ZxcSyntaxError(lineno, f"qubit index out of range 0..{width - 1}")
        if len(set(qubits)) != len(qubits):
            raise ZxcSyntaxError(lineno, f"{name} qubits must be distinct")
        gates.append(Gate(name, qubits, phase))
    if width is None:
        raise ZxcSyntaxError(1, "missing 'qubits N' header")
    return Circuit(width, tuple(gates))


def format_circuit(c: Circuit) -> str:
    """Render a circuit as ``.zxc`` text (inverse of :func:`parse_circuit`)."""
    lines = [f"qubits {c.width}"]
    for g in c.gates:
        parts = [g.name, *map(str, g.qubits)]
        if g.phase is not None:
            parts.append(
                f"{g.phase.numerator}/{g.phase.denominator}"
                if g.phase.is_exact
                else f"f:{g.phase.radians!r}"
            )
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load_circuit(path: str) -> Circuit:
    with open(path, encoding="utf-8") as f:
        return parse_circuit(f.read())


def circuit_to_diagram(c: Circuit) -> Diagram:
    """One wire per qubit; each gate becomes its local spider pattern.

    Phase gates become spiders on their wire, H becomes an H-box, CNOT a
    Z-X bridge (green on the control), CZ a Z-H-Z bridge, SWAP a crossing
    of the wire ends.
    """
    d = Diagram()
    ends = []
    for _ in range(c.width):
        ends.append(d.add_input())

    def put(q: int, kind: str, phase: Phase | None = None) -> int:
        v = d.add_vertex(kind, phase)
        d.add_edge(ends[q], v)
        ends[q] = v
        return v

    for g in c.gates:
        if g.name == "h":
            put(g.qubits[0], VertexKind.H)
        elif g.name in _FIXED_PHASES:
            kind = VertexKind.X if g.name == "x" else VertexKind.Z
            put(g.qubits[0], kind, _FIXED_PHASES[g.name])
        elif g.name == "rz":
            put(g.qubits[0], VertexKind.Z, g.phase)
        elif g.name == "rx":
            put(g.qubits[0], VertexKind.X, g.phase)
        elif g.name == "cnot":
            ctrl, tgt = g.qubits
            zc = put(ctrl, VertexKind.Z, Phase.zero())
            xt = put(tgt, VertexKind.X, Phase.zero())
            d.add_edge(zc, xt)
        elif g.name == "cz":
            a, b = g.qubits
            za = put(a, VertexKind.Z, Phase.zero())
            zb = put(b, VertexKind.Z, Phase.zero())
            h = d.add_vertex(VertexKind.H)
            d.add_edge(za, h)
            d.add_edge(h, zb)
        elif g.name == "swap":
            a, b = g.qubits
            ends[a], ends[b] = ends[b], ends[a]
        else:  # pragma: no cover
            raise AssertionError(g.name)

    for q in range(c.width):
        o = d.add_output()
        d.add_edge(ends[q], o)
    return d


# -- gate unitaries --------------------------------------------------------------

_OMEGA = np.exp(1j * np.pi / 4)

#: the unitary of every gate without a phase; a two-qubit gate's first
#: qubit is the most significant bit of its 4x4 matrix.  No entry holds a
#: -0 (a literal ``-1j`` has one in its real part): a -0 can survive into a
#: product's zero entries, and ``zxq eval`` prints it as ``-0``.
GATE_UNITARIES = {
    name: np.array(m, dtype=complex)
    for name, m in {
        "h": HADAMARD,
        "t": [[1, 0], [0, _OMEGA]],
        "tdg": [[1, 0], [0, _OMEGA.conjugate()]],
        "s": [[1, 0], [0, 1j]],
        "sdg": [[1, 0], [0, complex(0, -1)]],
        "z": [[1, 0], [0, -1]],
        "x": [[0, 1], [1, 0]],
        "cnot": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        "cz": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
        "swap": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    }.items()
}


def _unitary(g: Gate) -> np.ndarray:
    if g.phase is None:
        return GATE_UNITARIES[g.name]
    rotation = x_phase_matrix if g.name == "rx" else z_phase_matrix
    return rotation(g.phase.radians)


#: the widest circuit the oracle multiplies out: its matrix is 2^w x 2^w
ORACLE_MAX_WIDTH = 12


def circuit_matrix(c: Circuit) -> np.ndarray:
    """Ordered product of the gate unitaries (the diagram-free oracle), each
    applied to its own qubit axes of the identity (see the module doc).  A
    circuit wider than :data:`ORACLE_MAX_WIDTH` raises ``ValueError``."""
    w = c.width
    if w > ORACLE_MAX_WIDTH:
        raise ValueError(f"width {w} exceeds the cap of {ORACLE_MAX_WIDTH}")
    n = 2**w
    shape = (2,) * w + (n,)
    state = np.eye(n, dtype=complex).reshape(shape)
    held = list(range(w))  # held[i]: the qubit on axis i; the column axis is last
    for g in c.gates:
        order = [*g.qubits, *(q for q in range(w) if q not in g.qubits)]
        lead = state.transpose([held.index(q) for q in order] + [w])
        u = _unitary(g)
        state = np.dot(u, lead.reshape(len(u), -1)).reshape(shape)
        held = order
    return state.transpose([held.index(q) for q in range(w)] + [w]).reshape(n, n)


def gate_matrix(gate: Gate, width: int | None = None) -> np.ndarray:
    """Standard unitary of one gate on ``width`` qubits, qubit 0 = MSB."""
    w = width if width is not None else max(gate.qubits) + 1
    return circuit_matrix(Circuit(w, (gate,)))


# -- the 2-qubit relation corpus ------------------------------------------------


class FixtureError(RuntimeError):
    """A relation fixture asset is missing or corrupt."""


@dataclass(frozen=True)
class RelationFixture:
    id: int
    lhs: Circuit
    rhs: Circuit


FIXTURE_COUNT = 17
#: the three composite relations: two squared circuits and an inverse pair
SQUARED_FIXTURES = (15, 16)
INVERSE_PAIR_FIXTURE = 17


def fixture_asset_names() -> list[str]:
    return [f"rel{i:02d}_{side}.zxc" for i in range(1, FIXTURE_COUNT + 1) for side in ("lhs", "rhs")]


def _read_asset(name: str) -> str:
    try:
        return (importlib.resources.files("zxq.fixtures") / name).read_text(encoding="utf-8")
    except (FileNotFoundError, ModuleNotFoundError) as e:
        raise FixtureError(f"missing fixture asset {name!r}: {e}") from e


def selinger_bian_fixtures() -> list[RelationFixture]:
    """Load the seventeen 2-qubit Clifford+T relation fixtures.

    Each fixture is a pair of ``.zxc`` assets whose circuits denote the
    same unitary up to a scalar; relations 15 and 16 square a circuit to
    the identity and 17 composes a circuit with its inverse.
    """
    fixtures = []
    for i in range(1, FIXTURE_COUNT + 1):
        sides = {}
        for side in ("lhs", "rhs"):
            name = f"rel{i:02d}_{side}.zxc"
            try:
                sides[side] = parse_circuit(_read_asset(name))
            except ZxcSyntaxError as e:
                raise FixtureError(f"corrupt fixture asset {name!r}: {e}") from e
        if sides["lhs"].width != 2 or sides["rhs"].width != 2:
            raise FixtureError(f"fixture {i} is not a 2-qubit relation")
        fixtures.append(RelationFixture(i, sides["lhs"], sides["rhs"]))
    return fixtures


def export_fixtures(directory: str) -> list[str]:
    """Copy every fixture asset into ``directory``; returns the paths."""
    import os

    os.makedirs(directory, exist_ok=True)
    written = []
    for name in fixture_asset_names():
        text = _read_asset(name)  # a missing asset leaves no empty file behind
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        written.append(path)
    return written

