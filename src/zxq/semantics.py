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
for X.  The pairs are read-only and kept up to ``_BASIS_CACHE_DEGREE``; a
spider with an exact multiple of pi/4 as its phase keeps its whole tensor,
read-only, up to ``_SPIDER_CACHE_DEGREE``.  Every H-box shares the read-only
:data:`HADAMARD`, and every boundary-to-boundary wire one read-only identity.

Evaluation plans on the tensors' label lists alone, then one executor
runs the plan.  A step ``(i, j, shared, out_labels)`` contracts tensors i
and j into one with i's unshared legs, then j's; ids are creation order, the
initial tensors in vertex order and then one per step.  The greedy plan
merges the adjacent pair with the fewest open legs first, ties going to the
lower id and then the higher.  The fold merges the tensors into one in
creation order; on a circuit's diagram, whose vertices come in gate order,
its peak stays near twice the width, where greedy's depends on the gate
sequence.  Greedy is kept unless its peak is above the fold's, which one
pass over the labels gives, and only then are the fold's steps built.  Every
step's rank is known before any work, as is the result's, so a step or a
result above the entry cap raises :class:`ResourceLimitError` before any
contraction.  The executor, the one place a contraction result is made,
calls ``np.dot`` on the very matrices ``np.tensordot`` would build.

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
#: the highest degrees whose basis pair (2^10 entries, 16 kB an array) and
#: spider tensors (2 colours x 8 phases x 7 degrees at most, 33 kB) are kept
_BASIS_CACHE_DEGREE, _SPIDER_CACHE_DEGREE = 10, 6
_BASES: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
_SPIDERS: dict[tuple[str, int, int], np.ndarray] = {}


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


def _spider(kind: str, phase: Phase, degree: int, used: set) -> np.ndarray:
    """:func:`_spider_tensor`, kept in ``_SPIDERS`` for an exact pi/4 phase.
    A kept tensor already ``used`` in the diagram is copied: numpy multiplies
    an array by its own transpose with BLAS syrk, which rounds unlike gemm."""
    f = phase.frac
    if f is None or degree > _SPIDER_CACHE_DEGREE or 4 % f.denominator:
        return _spider_tensor(kind, phase, degree)
    key = (kind, f.numerator * 4 // f.denominator, degree)
    t = _SPIDERS.get(key)
    if t is None:
        t = _SPIDERS[key] = _read_only(_spider_tensor(kind, phase, degree))
    elif key in used:
        return t.copy()
    used.add(key)
    return t


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
    vertex, in vertex order, from one pass over the wires in edges() order.
    Open legs are labelled ``("in", k)`` / ``("out", k)``; each interior wire
    gets an int label held by two tensors (a self-loop is traced at once)."""
    ext = {v: ("in", k) for k, v in enumerate(d.inputs)}
    ext.update({v: ("out", k) for k, v in enumerate(d.outputs)})
    adj, kinds, phases, order = d._adj, d._kinds, d._phases, sorted(d._adj)
    slots: dict[int, list] = {v: [] for v in order if v not in ext}
    wires, tensors, used, fresh = [], [], set(), 0
    for u in order:
        nbrs, su = adj[u], slots.get(u)
        if su is None:  # a boundary: its one wire is read here if it leads up
            (v,) = nbrs
            if v > u and v in slots:
                slots[v].append(ext[u])
            elif v > u:
                wires.append((_ID2, [ext[u], ext[v]]))
            continue
        for v in sorted(nbrs):  # the wires to lower ids are labelled already
            if v > u and v not in slots:
                su.append(ext[v])
            elif v >= u:
                for _ in range(nbrs[v]):
                    su.append(fresh)
                    slots[v].append(fresh)
                    fresh += 1
        if 2 ** len(su) > max_entries:
            raise ResourceLimitError(f"vertex {u} needs a tensor of 2^{len(su)} entries")
        t = HADAMARD if kinds[u] == VertexKind.H else _spider(kinds[u], phases[u], len(su), used)
        tensors.append(_trace_duplicates(t, su) if u in nbrs else (t, su))
    return wires + tensors


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
        shared = sorted(set(la).intersection(lb), key=str)
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
    legs, peak = set(labels[0] if labels else ()), 0
    for lbs in labels[1:]:
        legs.symmetric_difference_update(lbs)
        peak = max(peak, len(legs))
    return peak


def _plan_fold(labels: list[list]) -> list[tuple]:
    """The fold's steps.  The new tensor goes first and the running one
    second, its shared legs in its own axis order: ``np.dot`` then mostly
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
    """Run a plan; returns the tensors no step consumed, in creation order.
    A step is the ``np.dot`` inside ``np.tensordot``, on the same operands."""
    tensors = list(tensors)
    for i, j, shared, out in steps:
        (ta, la), (tb, lb) = tensors[i], tensors[j]
        ka, n = len(la) - len(shared), 1 << len(shared)
        a = ta.transpose(list(map(la.index, out[:ka] + shared))).reshape(-1, n)
        b = tb.transpose(list(map(lb.index, shared + out[ka:]))).reshape(n, -1)
        tensors[i] = tensors[j] = None
        tensors.append((np.dot(a, b).reshape((2,) * len(out)), out))
    return [p for p in tensors if p is not None]


def _open_legs_matrix(d: Diagram, tensors: list) -> np.ndarray:
    """Outer product of the tensors in list order, with the open legs put
    in output-then-input port order, as a fresh (2^outputs, 2^inputs)
    matrix with no -0 entry."""
    result, labels = tensors[0] if tensors else (np.array(1.0, dtype=complex), [])
    for t, lbs in tensors[1:]:
        result = np.multiply.outer(result, t)
        labels = labels + lbs
    m, n = d.n_outputs, d.n_inputs
    pos = dict(zip(labels, range(len(labels))))
    perm = [pos.get(("out", k)) for k in range(m)] + [pos.get(("in", k)) for k in range(n)]
    assert len(pos) == len(labels) == len(perm) and None not in perm, labels
    return result.transpose(perm).reshape(2**m, 2**n) + 0.0


def evaluate(d: Diagram, *, max_entries: int = DEFAULT_ENTRY_CAP) -> np.ndarray:
    """The matrix denoted by ``d``, shape (2^outputs, 2^inputs).

    Raises :class:`ResourceLimitError`, before any contraction, if a vertex,
    a step of the chosen plan or the result needs more than ``max_entries``
    entries; the message names the vertex's degree, or the rank of the
    plan's first step above the cap and else the result's."""
    d.validate()
    tensors = _wire_tensors(d, max_entries)
    labels = [lbs for _, lbs in tensors]
    steps = _plan_greedy(labels, _fold_peak(labels)) if len(labels) > 1 else []
    if steps is None:
        steps = _plan_fold(labels)
    # the product of the pieces left after the plan has the result's rank
    for rank in [len(out) for _, _, _, out in steps] + [d.n_inputs + d.n_outputs]:
        if 2**rank > max_entries:
            raise ResourceLimitError(f"contraction needs a tensor of 2^{rank} entries")
    return _open_legs_matrix(d, _execute(tensors, steps))


@dataclass(frozen=True)
class ScalarVerdict:
    """Outcome of an equality-up-to-scalar test."""

    equal: bool
    scalar: complex | None
    residual: float


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex array, by numpy's own expression."""
    x = x.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def equal_up_to_scalar(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> ScalarVerdict:
    """Do ``a`` and ``b`` differ only by a nonzero complex factor?

    Finds the least-squares k with b ~ k*a and reports the relative
    Frobenius residual ||b - k a|| / max(||a||, ||b||).  Matrices under
    :data:`ZERO_FLOOR` count as the zero map: two of them compare equal
    with no scalar, one against a nonzero matrix compares unequal (the
    existential "some tiny k" reading would make the verdict asymmetric).
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na, nb = _norm(a), _norm(b)
    if na <= ZERO_FLOOR and nb <= ZERO_FLOOR:
        return ScalarVerdict(True, None, 0.0)
    if na <= ZERO_FLOOR or nb <= ZERO_FLOOR:
        return ScalarVerdict(False, None, 1.0)
    k = complex(np.vdot(a, b) / np.vdot(a, a))
    residual = _norm(b - k * a) / max(na, nb)
    return ScalarVerdict(residual <= tol and k != 0, k if k != 0 else None, residual)


def matrix_to_text(m: np.ndarray) -> str:
    """Debug dump: tab-separated ``re+imi`` entries, row-major, MSB first."""
    rows = []
    for row in np.atleast_2d(m):
        rows.append("\t".join(f"{z.real:.12g}{z.imag:+.12g}i" for z in row))
    return "\n".join(rows) + "\n"

