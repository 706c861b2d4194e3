"""Evaluation of diagrams to complex matrices, and scalar-blind comparison.

A diagram with n inputs and m outputs denotes a 2^m x 2^n complex matrix:
a Z-spider with phase a contributes |0..0><0..0| + e^{ia}|1..1><1..1|, an
X-spider is the same tensor conjugated by Hadamards on every leg, an H-box
is the normalised Hadamard, and wires are identities.  Boundary port 0 is
the most significant bit of the row (outputs) / column (inputs) index.

Evaluation contracts the wire network greedily, always merging the pair of
tensors (joined by at least one wire) whose contraction yields the smallest
open rank; ties go to the pair created first, compared by the lower id and
then the higher.  Ids are creation order: the initial tensors in vertex
order, then one new id per contraction result.  An index from each interior
wire label to its two owning tensors is built once, and a heap holds the
rank of every adjacent pair.  A contraction kills its two operands, so their
stale heap entries are skipped when popped; only the result's labels change
owner and only the result's neighbour pairs are pushed.  A step therefore
costs the result's degree plus a heap operation, not a rescan of every
pair.  Intermediate tensors are capped in size; exceeding the cap raises
:class:`ResourceLimitError`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .diagram import Diagram, VertexKind
from .phase import Phase

DEFAULT_TOL = 1e-9
DEFAULT_ENTRY_CAP = 1 << 20

#: matrices with Frobenius norm at or below this are treated as the zero map
#: (contraction noise for unit-scale tensors sits around 1e-15)
ZERO_FLOOR = 1e-12

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_ID2 = np.eye(2, dtype=complex)


class ResourceLimitError(RuntimeError):
    """An intermediate tensor would exceed the configured entry cap."""


def _spider_tensor(kind: str, phase: Phase, degree: int) -> np.ndarray:
    if degree == 0:
        return np.array(1.0 + np.exp(1j * phase.radians), dtype=complex)
    t = np.zeros((2,) * degree, dtype=complex)
    t[(0,) * degree] = 1.0
    t[(1,) * degree] = np.exp(1j * phase.radians)
    if kind == VertexKind.X:
        for ax in range(degree):
            t = np.moveaxis(np.tensordot(HADAMARD, t, axes=(1, ax)), 0, ax)
    return t


def _trace_duplicates(t: np.ndarray, labels: list) -> tuple[np.ndarray, list]:
    # self-loops put the same wire label on two axes of one tensor
    while True:
        seen: dict = {}
        dup = None
        for i, lb in enumerate(labels):
            if lb in seen:
                dup = (seen[lb], i)
                break
            seen[lb] = i
        if dup is None:
            return t, labels
        i, j = dup
        t = np.trace(t, axis1=i, axis2=j)
        labels = [lb for k, lb in enumerate(labels) if k not in (i, j)]


def _wire_tensors(d: Diagram, max_entries: int) -> list[tuple[np.ndarray, list]]:
    """One tensor per wire between two boundaries, then one per interior
    vertex, in vertex order.  Open legs are labelled ``("in", k)`` /
    ``("out", k)``; each interior wire gets an int label held by exactly two
    tensors (a self-loop is traced away at once)."""
    ext: dict[int, tuple] = {}
    for k, v in enumerate(d.inputs):
        ext[v] = ("in", k)
    for k, v in enumerate(d.outputs):
        ext[v] = ("out", k)

    slots: dict[int, list] = {v: [] for v in d.vertices() if v not in ext}
    tensors: list[tuple[np.ndarray, list]] = []
    fresh = 0
    for u, v in d.edge_instances():
        if u in ext and v in ext:
            tensors.append((_ID2, [ext[u], ext[v]]))
        elif u in ext:
            slots[v].append(ext[u])
        elif v in ext:
            slots[u].append(ext[v])
        else:
            label = fresh
            fresh += 1
            slots[u].append(label)
            slots[v].append(label)

    for v, labels in slots.items():
        kind = d.kind(v)
        deg = len(labels)
        if 2**deg > max_entries:
            raise ResourceLimitError(f"vertex {v} needs a tensor of 2^{deg} entries")
        if kind == VertexKind.H:
            t = HADAMARD.copy()
        else:
            t = _spider_tensor(kind, d.phase(v), deg)
        tensors.append(_trace_duplicates(t, labels))
    return tensors


def _contract_greedy(tensors: list, max_entries: int) -> list[tuple[np.ndarray, list]]:
    """Contract every int label away; returns the survivors in creation order.

    A tensor's id is its index in ``tensors``; a contraction result is
    appended, so it gets the next id, and its two operands become ``None``.
    ``owners`` maps each live int label to the ids of its two tensors.  The
    heap holds ``(rank, a, b)``, a < b, for every adjacent pair, where rank
    is the number of open legs the contraction leaves; a pair's rank is
    fixed while both members live, so a popped pair with a dead member is
    just skipped.  After a contraction only the result's labels change
    owner and only the result's neighbour pairs are pushed.
    """
    owners: dict = {}
    for k, (_, labels) in enumerate(tensors):
        for lb in labels:
            if isinstance(lb, int):
                owners.setdefault(lb, []).append(k)
    shared_by_pair: dict = {}
    for o in owners.values():
        pair = tuple(o)
        shared_by_pair[pair] = shared_by_pair.get(pair, 0) + 1
    heap = [
        (len(tensors[a][1]) + len(tensors[b][1]) - 2 * s, a, b)
        for (a, b), s in shared_by_pair.items()
    ]
    heapq.heapify(heap)

    while heap:
        rank, i, j = heapq.heappop(heap)
        if tensors[i] is None or tensors[j] is None:
            continue
        if 2**rank > max_entries:
            raise ResourceLimitError(f"contraction needs a tensor of 2^{rank} entries")
        ta, la = tensors[i]
        tb, lb = tensors[j]
        shared = sorted(set(la) & set(lb), key=str)
        axes_a = [la.index(s) for s in shared]
        axes_b = [lb.index(s) for s in shared]
        t = np.tensordot(ta, tb, axes=(axes_a, axes_b))
        labels = [x for x in la if x not in shared] + [x for x in lb if x not in shared]
        k = len(tensors)
        tensors[i] = tensors[j] = None
        tensors.append((t, labels))
        shared_with: dict[int, int] = {}
        for x in labels:
            o = owners.get(x)
            if o is not None:
                side = 0 if o[0] in (i, j) else 1
                o[side] = k
                n = o[1 - side]
                shared_with[n] = shared_with.get(n, 0) + 1
        for n, s in shared_with.items():
            heapq.heappush(heap, (len(labels) + len(tensors[n][1]) - 2 * s, n, k))
    return [p for p in tensors if p is not None]


def _open_legs_matrix(d: Diagram, tensors: list) -> np.ndarray:
    """Outer product of the tensors in list order, with the open legs put
    in output-then-input port order, as a (2^outputs, 2^inputs) matrix."""
    result = np.array(1.0, dtype=complex)
    labels: list = []
    for t, lbs in tensors:
        result = np.tensordot(result, t, axes=0)
        labels = labels + lbs

    m, n = d.n_outputs, d.n_inputs
    order = [("out", k) for k in range(m)] + [("in", k) for k in range(n)]
    assert sorted(map(str, labels)) == sorted(map(str, order))
    perm = [labels.index(lb) for lb in order]
    result = np.transpose(result, perm) if perm else result
    return result.reshape(2**m, 2**n)


def evaluate(d: Diagram, *, max_entries: int = DEFAULT_ENTRY_CAP) -> np.ndarray:
    """The matrix denoted by ``d``, shape (2^outputs, 2^inputs)."""
    d.validate()
    tensors = _contract_greedy(_wire_tensors(d, max_entries), max_entries)
    return _open_legs_matrix(d, tensors)


@dataclass(frozen=True)
class ScalarVerdict:
    """Outcome of an equality-up-to-scalar test."""

    equal: bool
    scalar: complex | None
    residual: float


def equal_up_to_scalar(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> ScalarVerdict:
    """Do ``a`` and ``b`` differ only by a nonzero complex factor?

    Finds the least-squares k with b ~ k*a and reports the relative
    Frobenius residual ||b - k a|| / max(||a||, ||b||).  Matrices under
    :data:`ZERO_FLOOR` count as the zero map: two of them compare equal
    with no scalar, one against a nonzero matrix compares unequal (the
    existential "some tiny k" reading would make the verdict asymmetric).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na <= ZERO_FLOOR and nb <= ZERO_FLOOR:
        return ScalarVerdict(True, None, 0.0)
    if na <= ZERO_FLOOR or nb <= ZERO_FLOOR:
        return ScalarVerdict(False, None, 1.0)
    k = complex(np.vdot(a, b) / np.vdot(a, a))
    residual = float(np.linalg.norm(b - k * a) / max(na, nb))
    return ScalarVerdict(residual <= tol and k != 0, k if k != 0 else None, residual)


def matrix_to_text(m: np.ndarray) -> str:
    """Debug dump: tab-separated ``re+imi`` entries, row-major, MSB first."""
    rows = []
    for row in np.atleast_2d(m):
        rows.append("\t".join(f"{z.real:.12g}{z.imag:+.12g}i" for z in row))
    return "\n".join(rows) + "\n"


# -- gate unitaries -----------------------------------------------------------

_T = np.diag([1.0, np.exp(1j * math.pi / 4)]).astype(complex)
_S = np.diag([1.0, 1j]).astype(complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)


def _embed(us: dict[int, np.ndarray], width: int) -> np.ndarray:
    out = np.array(1.0, dtype=complex)
    for q in range(width):
        out = np.kron(out, us.get(q, _ID2))
    return out


def gate_matrix(gate, width: int | None = None) -> np.ndarray:
    """Standard unitary of one gate on ``width`` qubits, qubit 0 = MSB."""
    qs = gate.qubits
    w = width if width is not None else max(qs) + 1
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
    if name == "cnot":
        c, t = qs
        return _embed({c: _P0}, w) + _embed({c: _P1, t: _X}, w)
    if name == "cz":
        a, b = qs
        return _embed({a: _P0}, w) + _embed({a: _P1, b: _Z}, w)
    if name == "swap":
        a, b = qs
        e01 = np.array([[0, 1], [0, 0]], dtype=complex)
        e10 = e01.T.copy()
        return (
            _embed({a: _P0, b: _P0}, w)
            + _embed({a: _P1, b: _P1}, w)
            + _embed({a: e01, b: e10}, w)
            + _embed({a: e10, b: e01}, w)
        )
    raise ValueError(f"unknown gate {name!r}")
