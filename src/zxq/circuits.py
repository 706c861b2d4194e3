"""Clifford+T circuits: parsing, diagrams, matrices and relation fixtures.

The ``.zxc`` text format: the first non-comment line is ``qubits N``,
then one gate per line in application order (the first line acts first).
``#`` starts a comment.  Rotation phases are written ``p/d`` meaning
(p/d)*pi, or ``f:<float>`` for plain radians (:func:`zxq.phase.parse_phase`).

This module owns the gate set, all of it in the one table :data:`GATES`.
The diagram-free oracle :func:`circuit_matrix` holds the product so far
as a ``(2,)*w + (2^w,)`` tensor, one axis per qubit plus the column index
last, and applies each gate's 2x2 or 4x4 matrix to that gate's own qubit
axes only: a gate costs O(4^w), where a dense 2^w x 2^w embedding would
cost O(8^w).  Each gate is one ``np.dot`` into a copy of the tensor
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

_OMEGA = np.exp(1j * np.pi / 4)


@dataclass(frozen=True)
class GateSpec:
    """One row of :data:`GATES`.  ``kind`` and ``phase`` are the vertex a
    one-qubit gate puts on its wire; ``phase`` is None for an H-box and for
    a rotation, which puts the gate's own phase there.  ``unitary`` is None
    for a rotation, whose matrix comes from its phase."""

    arity: int
    kind: str | None
    phase: Phase | None
    unitary: np.ndarray | None

    @property
    def parametric(self) -> bool:
        return self.unitary is None


#: the gate set, in the order :func:`zxq.harness.random_clifford_t_circuit`
#: draws names.  A two-qubit gate's first qubit is the most significant bit
#: of its 4x4 matrix.  No entry holds a -0 (a literal ``-1j`` has one in its
#: real part): a -0 can survive into a product's zero entries, and
#: ``zxq eval`` prints it as ``-0``.
GATES = {
    name: GateSpec(arity, kind, phase, None if u is None else np.array(u, dtype=complex))
    for name, (arity, kind, phase, u) in {
        "h": (1, VertexKind.H, None, HADAMARD),
        "t": (1, VertexKind.Z, Phase.exact(1, 4), [[1, 0], [0, _OMEGA]]),
        "tdg": (1, VertexKind.Z, Phase.exact(7, 4), [[1, 0], [0, _OMEGA.conjugate()]]),
        "s": (1, VertexKind.Z, Phase.exact(1, 2), [[1, 0], [0, 1j]]),
        "sdg": (1, VertexKind.Z, Phase.exact(3, 2), [[1, 0], [0, complex(0, -1)]]),
        "z": (1, VertexKind.Z, Phase.exact(1), [[1, 0], [0, -1]]),
        "x": (1, VertexKind.X, Phase.exact(1), [[0, 1], [1, 0]]),
        "cnot": (2, None, None, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
        "cz": (2, None, None, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]),
        "swap": (2, None, None, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
        "rz": (1, VertexKind.Z, None, None),
        "rx": (1, VertexKind.X, None, None),
    }.items()
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
        spec = GATES.get(self.name)
        if spec is None:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(self.qubits) != spec.arity:
            raise ValueError(f"{self.name} takes {spec.arity} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} qubits must be distinct")
        if (self.phase is not None) != spec.parametric:
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
        spec = GATES.get(name)
        if spec is None:
            raise ZxcSyntaxError(lineno, f"unknown gate {name!r}")
        want = spec.arity + spec.parametric
        if len(toks) - 1 != want:
            raise ZxcSyntaxError(lineno, f"{name} expects {want} argument(s)")
        try:
            qubits = tuple(int(t) for t in toks[1 : 1 + spec.arity])
        except ValueError:
            raise ZxcSyntaxError(lineno, "qubit indices must be integers") from None
        try:
            phase = parse_phase(toks[-1]) if spec.parametric else None
        except ValueError as e:
            raise ZxcSyntaxError(lineno, str(e)) from None
        if any(q < 0 or q >= width for q in qubits):
            raise ZxcSyntaxError(lineno, f"qubit index out of range 0..{width - 1}")
        try:
            gates.append(Gate(name, qubits, phase))
        except ValueError as e:
            raise ZxcSyntaxError(lineno, str(e)) from None
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
        spec = GATES[g.name]
        if spec.arity == 1:
            put(g.qubits[0], spec.kind, spec.phase if g.phase is None else g.phase)
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


def _unitary(g: Gate) -> np.ndarray:
    spec = GATES[g.name]
    if spec.unitary is not None:
        return spec.unitary
    rotation = x_phase_matrix if spec.kind == VertexKind.X else z_phase_matrix
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
    fixtures, names = [], fixture_asset_names()
    for i in range(1, FIXTURE_COUNT + 1):
        sides = []
        for name in names[2 * i - 2 : 2 * i]:  # relation i's lhs and rhs
            try:
                sides.append(parse_circuit(_read_asset(name)))
            except ZxcSyntaxError as e:
                raise FixtureError(f"corrupt fixture asset {name!r}: {e}") from e
        if any(side.width != 2 for side in sides):
            raise FixtureError(f"fixture {i} is not a 2-qubit relation")
        fixtures.append(RelationFixture(i, *sides))
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

