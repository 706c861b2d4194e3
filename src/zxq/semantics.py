"""Evaluation of diagrams to complex matrices, and scalar-blind comparison.

This module knows only diagrams; gate unitaries and the circuit oracle
live in :mod:`zxq.circuits`.

A diagram with n inputs and m outputs denotes a 2^m x 2^n complex matrix:
a Z-spider with phase a contributes |0..0><0..0| + e^{ia}|1..1><1..1|, an
X-spider is the same tensor conjugated by Hadamards on every leg, an H-box
is the normalised Hadamard, and wires are identities.  Boundary port 0 is
the most significant bit of the row (outputs) / column (inputs) index.

A spider of degree d is built as A + e^{ia} B from a basis pair kept per
colour and degree: A = |0>^d and B = |1>^d for Z, A = |+>^d and B = |->^d
for X.  The pairs are read-only and kept only up to degree
``_BASIS_CACHE_DEGREE``; a higher degree builds its pair each time.  Every
H-box shares the read-only :data:`HADAMARD`, and every boundary-to-boundary
wire one read-only identity.

Evaluation plans on the tensors' label lists alone, then one executor
runs the plan.  A step ``(i, j, shared, out_labels)`` contracts tensors i
and j into a new one; ids are creation order, the initial tensors in vertex
order and then one per step.  The greedy plan merges the adjacent pair with
the fewest open legs first, ties going to the lower id and then the higher.
The fold merges the tensors into one in creation order; on a circuit's
diagram, whose vertices come in gate order, its peak stays near twice the
width, where greedy's depends on the gate sequence.  Greedy is kept unless
its peak is above the fold's, which one pass over the labels gives, and only
then are the fold's steps built.  Every step's rank is known before any
work, as is the result's, so a step or a result above the entry cap raises
:class:`ResourceLimitError` before any contraction.

The tensors left once no wire joins two of them (one per connected piece)
are multiplied out in creation order, starting from the first, and the
product goes through ``+ 0.0``: that turns any -0 entry into 0 and gives
the caller a fresh array, never a shared tensor or a view of one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .diagram import Diagram, VertexKind
from .phase import Phase

DEFAULT_TOL = 1e-9
DEFAULT_ENTRY_CAP = 1 << 20

#: matrices with Frobenius norm at or below this are treated as the zero map
#: (contraction noise for unit-scale tensors sits around 1e-15)
ZERO_FLOOR = 1e-12


def _read_only(t: np.ndarray) -> np.ndarray:
    t.flags.writeable = False
    return t


HADAMARD = _read_only(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0))
_ID2 = _read_only(np.eye(2, dtype=complex))

#: the one-leg states each spider colour's basis pair is a power of
_KETS = {
    VertexKind.Z: (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
    VertexKind.X: tuple(HADAMARD),
}
#: the highest degree whose basis pair is kept (2^10 entries, 16 kB an array)
_BASIS_CACHE_DEGREE = 10
_BASES: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}


class ResourceLimitError(RuntimeError):
    """An intermediate tensor would exceed the configured entry cap."""


def _basis_pair(kind: str, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only d-fold outer powers of ``kind``'s two kets."""
    pair = _BASES.get((kind, degree))
    if pair is None:
        pair = tuple(_read_only(reduce(np.multiply.outer, [ket] * degree)) for ket in _KETS[kind])
        if degree <= _BASIS_CACHE_DEGREE:
            _BASES[kind, degree] = pair
    return pair


def _spider_tensor(kind: str, phase: Phase, degree: int) -> np.ndarray:
    if degree == 0:
        return np.array(1.0 + np.exp(1j * phase.radians), dtype=complex)
    a, b = _basis_pair(kind, degree)
    return a + np.exp(1j * phase.radians) * b


def _trace_duplicates(t: np.ndarray, labels: list) -> tuple[np.ndarray, list]:
    # self-loops put the same wire label on two axes of one tensor; each
    # pass traces the first repeated label at its two positions
    while len(set(labels)) < len(labels):
        j = next(j for j, lb in enumerate(labels) if labels.index(lb) < j)
        i = labels.index(labels[j])
        t = np.trace(t, axis1=i, axis2=j)
        labels = [lb for k, lb in enumerate(labels) if k not in (i, j)]
    return t, labels


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
    for u, v, m in d.edges():
        for _ in range(m):
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
            t = HADAMARD
        else:
            t = _spider_tensor(kind, d.phase(v), deg)
        tensors.append(_trace_duplicates(t, labels))
    return tensors


def _plan_greedy(labels: list[list], max_rank: int) -> list[tuple] | None:
    """The greedy plan, or None at its first step above ``max_rank`` open
    legs.  An id is an index into ``labels``, to which each step's result
    is appended.  ``owners`` maps each live int label to its two ids.  The
    heap holds ``(rank, a, b)``, a < b, for every adjacent pair; a pair's
    rank is fixed while both members live, so a popped pair with a consumed
    member is skipped.  After a step only the result's labels change owner
    and only its neighbour pairs are pushed."""
    labels = list(labels)
    owners: dict = {}
    for k, lbs in enumerate(labels):
        for lb in lbs:
            if isinstance(lb, int):
                owners.setdefault(lb, []).append(k)
    shared_by_pair: dict = {}
    for o in owners.values():
        pair = tuple(o)
        shared_by_pair[pair] = shared_by_pair.get(pair, 0) + 1
    heap = [(len(labels[a]) + len(labels[b]) - 2 * s, a, b) for (a, b), s in shared_by_pair.items()]
    heapq.heapify(heap)

    steps = []
    while heap:
        rank, i, j = heapq.heappop(heap)
        la, lb = labels[i], labels[j]
        if la is None or lb is None:
            continue
        if rank > max_rank:
            return None
        shared = sorted(set(la) & set(lb), key=str)
        out = [x for x in la if x not in shared] + [x for x in lb if x not in shared]
        k = len(labels)
        labels[i] = labels[j] = None
        labels.append(out)
        steps.append((i, j, shared, out))
        shared_with: dict[int, int] = {}
        for x in out:
            o = owners.get(x)
            if o is not None:
                side = 0 if o[0] in (i, j) else 1
                o[side] = k
                n = o[1 - side]
                shared_with[n] = shared_with.get(n, 0) + 1
        for n, s in shared_with.items():
            heapq.heappush(heap, (len(out) + len(labels[n]) - 2 * s, n, k))
    return steps


def _fold_peak(labels: list[list]) -> int:
    """Peak rank of :func:`_plan_fold`: the running tensor's legs are the
    symmetric difference of the label sets folded in so far."""
    legs, peak = set(), 0
    for k, lbs in enumerate(labels):
        legs ^= set(lbs)
        peak = max(peak, len(legs) if k else 0)
    return peak


def _plan_fold(labels: list[list]) -> list[tuple]:
    """The fold's steps.  The new tensor goes first and the running one
    second, its shared legs in its own axis order: ``tensordot`` then mostly
    reads the running tensor's leading axes in place, not a transposed copy."""
    steps: list[tuple] = []
    run, held = 0, labels[0] if labels else []
    for k in range(1, len(labels)):
        new = labels[k]
        shared = [x for x in held if x in new]
        out = [x for x in new if x not in shared] + [x for x in held if x not in shared]
        steps.append((k, run, shared, out))
        run, held = len(labels) + len(steps) - 1, out
    return steps


def _execute(tensors: list, steps: list[tuple]) -> list[tuple[np.ndarray, list]]:
    """Run a plan; returns the tensors no step consumed, in creation order."""
    tensors = list(tensors)
    for i, j, shared, out in steps:
        (ta, la), (tb, lb) = tensors[i], tensors[j]
        t = np.tensordot(ta, tb, ([la.index(s) for s in shared], [lb.index(s) for s in shared]))
        tensors[i] = tensors[j] = None
        tensors.append((t, out))
    return [p for p in tensors if p is not None]


def _open_legs_matrix(d: Diagram, tensors: list) -> np.ndarray:
    """Outer product of the tensors in list order, with the open legs put
    in output-then-input port order, as a fresh (2^outputs, 2^inputs)
    matrix with no -0 entry."""
    (result, labels), *rest = tensors or [(np.array(1.0, dtype=complex), [])]
    for t, lbs in rest:
        result = np.multiply.outer(result, t)
        labels = labels + lbs

    m, n = d.n_outputs, d.n_inputs
    order = [("out", k) for k in range(m)] + [("in", k) for k in range(n)]
    assert sorted(map(str, labels)) == sorted(map(str, order))
    perm = [labels.index(lb) for lb in order]
    result = np.transpose(result, perm) if perm else result
    return result.reshape(2**m, 2**n) + 0.0


def evaluate(d: Diagram, *, max_entries: int = DEFAULT_ENTRY_CAP) -> np.ndarray:
    """The matrix denoted by ``d``, shape (2^outputs, 2^inputs).

    Raises :class:`ResourceLimitError`, before any contraction, if a vertex,
    a step of the chosen plan or the result needs more than ``max_entries``
    entries; the message names the vertex's degree, or the rank of the
    plan's first step above the cap and else the result's."""
    d.validate()
    tensors = _wire_tensors(d, max_entries)
    labels = [lbs for _, lbs in tensors]
    steps = _plan_greedy(labels, _fold_peak(labels))
    if steps is None:
        steps = _plan_fold(labels)
    # the product of the pieces left after the plan has the result's rank
    for rank in [len(out) for *_, out in steps] + [d.n_inputs + d.n_outputs]:
        if 2**rank > max_entries:
            raise ResourceLimitError(f"contraction needs a tensor of 2^{rank} entries")
    return _open_legs_matrix(d, _execute(tensors, steps))


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

