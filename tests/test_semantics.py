import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from zxq.circuits import Circuit, Gate, circuit_matrix, circuit_to_diagram, gate_matrix
from zxq.diagram import (
    Diagram,
    VertexKind,
    cap_diagram,
    empty_diagram,
    hadamard_diagram,
    identity_diagram,
    spider_diagram,
)
from zxq.harness import RULE_SAMPLERS, random_clifford_t_circuit
from zxq.phase import Phase
from zxq.rewrite import RULES
from zxq.semantics import (
    _BASES,
    _BASIS_CACHE_DEGREE,
    _ID2,
    _SPIDER_CACHE_DEGREE,
    _SPIDERS,
    DEFAULT_ENTRY_CAP,
    HADAMARD,
    ZERO_FLOOR,
    ResourceLimitError,
    ScalarVerdict,
    _basis_pair,
    _execute,
    _fold_peak,
    _open_legs_matrix,
    _plan_fold,
    _plan_greedy,
    _spider,
    _spider_tensor,
    _trace_duplicates,
    _wire_tensors,
    equal_up_to_scalar,
    evaluate,
    matrix_to_text,
)

from .conftest import phases, small_diagrams


def test_z_spider_interpretation():
    d = spider_diagram(VertexKind.Z, Phase.exact(1, 4), 1, 1)
    assert np.allclose(evaluate(d), np.diag([1.0, np.exp(1j * math.pi / 4)]), atol=1e-12)


def test_hbox_interpretation():
    assert np.allclose(evaluate(hadamard_diagram()), np.array([[1, 1], [1, -1]]) / math.sqrt(2))


def test_empty_diagram_is_one():
    assert np.allclose(evaluate(empty_diagram()), [[1.0]])


def test_cap_interpretation():
    assert np.allclose(evaluate(cap_diagram()), np.array([[1.0], [0.0], [0.0], [1.0]]))


@given(phases())
@settings(max_examples=30, deadline=None)
def test_x_spider_closed_form(p):
    # 1-leg-in, 1-leg-out X-spider equals [[1+a, 1-a], [1-a, 1+a]] / 2, a = e^{i phase}
    a = np.exp(1j * p.radians)
    want = 0.5 * np.array([[1 + a, 1 - a], [1 - a, 1 + a]])
    d = spider_diagram(VertexKind.X, p, 1, 1)
    assert np.allclose(evaluate(d), want, atol=1e-12)


@given(phases())
@settings(max_examples=20, deadline=None)
def test_spider_leg_permutation_invariance(p):
    base = evaluate(spider_diagram(VertexKind.Z, p, 2, 1))
    d = Diagram()
    v = d.add_vertex(VertexKind.Z, p)
    o = d.add_output()
    i0, i1 = d.add_input(), d.add_input()
    d.add_edge(v, o)
    d.add_edge(i1, v)
    d.add_edge(i0, v)
    assert np.allclose(evaluate(d), base, atol=1e-12)


def test_msb_convention():
    # a Z(pi) on wire 0 of two wires acts on the most significant bit
    d = spider_diagram(VertexKind.Z, Phase.pi(), 1, 1).tensor(
        spider_diagram(VertexKind.Z, Phase.zero(), 1, 1)
    )
    assert np.allclose(evaluate(d), np.diag([1, 1, -1, -1]), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(small_diagrams(max_spiders=3, max_ports=2), small_diagrams(max_spiders=3, max_ports=2))
def test_tensor_functorial(d1, d2):
    got = evaluate(d1.tensor(d2))
    want = np.kron(evaluate(d1), evaluate(d2))
    assert equal_up_to_scalar(got, want, 1e-9).equal


@settings(max_examples=30, deadline=None)
@given(small_diagrams(max_spiders=3, max_ports=2), small_diagrams(max_spiders=3, max_ports=2))
def test_compose_functorial(d1, d2):
    # wire d1's outputs into a fresh diagram with matching inputs
    need = d1.n_outputs
    d2b = d2
    while d2b.n_inputs < need:
        extra = Diagram()
        extra.add_edge(extra.add_input(), extra.add_output())
        d2b = d2b.tensor(extra)
    for _ in range(d2b.n_inputs - need):
        extra = Diagram()
        extra.add_edge(extra.add_input(), extra.add_output())
        d1 = d1.tensor(extra)
    got = evaluate(d1.compose(d2b))
    want = evaluate(d2b) @ evaluate(d1)
    assert equal_up_to_scalar(got, want, 1e-9).equal


def test_equal_up_to_scalar_finds_k():
    a = np.array([[1.0, 2.0], [3.0, 4.0j]])
    k = 2.5 * np.exp(1j * math.pi / 3)
    v = equal_up_to_scalar(a, k * a)
    assert v.equal
    assert v.scalar == pytest.approx(k)
    assert v.residual < 1e-12


def test_equal_up_to_scalar_rejects():
    assert not equal_up_to_scalar(np.eye(2), np.diag([1.0, -1.0])).equal


def test_equal_up_to_scalar_zero_matrices():
    z = np.zeros((2, 2))
    v = equal_up_to_scalar(z, z)
    assert v.equal and v.scalar is None
    assert not equal_up_to_scalar(z, np.eye(2)).equal


def test_equal_up_to_scalar_noise_is_zero_and_symmetric():
    # a numerically-zero matrix (contraction noise) must compare unequal to
    # a genuine matrix in both directions, never "equal with k ~ 0"
    noise = 1e-16 * np.array([[1.0, 2.0], [3.0, 4.0]])
    assert not equal_up_to_scalar(np.eye(2), noise).equal
    assert not equal_up_to_scalar(noise, np.eye(2)).equal
    assert equal_up_to_scalar(noise, 2 * noise).equal
    # tiny but genuine proportionality above the floor still registers
    v = equal_up_to_scalar(np.eye(2), 1e-10 * np.eye(2))
    assert v.equal and v.scalar == pytest.approx(1e-10)


def test_equal_up_to_scalar_shape_mismatch():
    with pytest.raises(ValueError):
        equal_up_to_scalar(np.eye(2), np.eye(4))


def test_hadamard_euler_scalar():
    # Z(pi/2) X(pi/2) Z(pi/2) = (1+i)/sqrt(2) * H
    chain = (
        spider_diagram(VertexKind.Z, Phase.exact(1, 2), 1, 1)
        .compose(spider_diagram(VertexKind.X, Phase.exact(1, 2), 1, 1))
        .compose(spider_diagram(VertexKind.Z, Phase.exact(1, 2), 1, 1))
    )
    v = equal_up_to_scalar(evaluate(hadamard_diagram()), evaluate(chain))
    assert v.equal
    assert v.scalar == pytest.approx((1 + 1j) / math.sqrt(2))


@settings(max_examples=30, deadline=None)
@given(small_diagrams(max_spiders=3, max_ports=2), small_diagrams(max_spiders=3, max_ports=2))
def test_scalar_verdict_symmetric(a, b):
    ma, mb = evaluate(a), evaluate(b)
    if ma.shape != mb.shape:
        return
    vab = equal_up_to_scalar(ma, mb)
    vba = equal_up_to_scalar(mb, ma)
    assert vab.equal == vba.equal
    if vab.equal and vab.scalar is not None and vba.scalar is not None:
        if abs(vab.scalar) > 1e-6:
            assert vab.scalar * vba.scalar == pytest.approx(1.0, abs=1e-6)


def test_gate_matrix_t():
    assert np.allclose(gate_matrix(Gate("t", (0,)), 1), np.diag([1, np.exp(1j * math.pi / 4)]))


def test_gate_matrix_cnot_permutation():
    want = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.allclose(gate_matrix(Gate("cnot", (0, 1)), 2), want)
    flipped = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
    assert np.allclose(gate_matrix(Gate("cnot", (1, 0)), 2), flipped)


def test_gate_matrix_cz_diag():
    assert np.allclose(gate_matrix(Gate("cz", (0, 1)), 2), np.diag([1, 1, 1, -1]))


def test_gate_matrix_embedding_msb():
    assert np.allclose(gate_matrix(Gate("h", (1,)), 2), np.kron(np.eye(2), HADAMARD))


def test_gate_matrix_swap():
    want = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    assert np.allclose(gate_matrix(Gate("swap", (0, 1)), 2), want)


def test_resource_cap():
    d = spider_diagram(VertexKind.Z, Phase.zero(), 0, 12)
    with pytest.raises(ResourceLimitError):
        evaluate(d, max_entries=2**8)


def test_matrix_dump_format():
    text = matrix_to_text(np.array([[1.0, 0.5j], [-1.0, 1 + 1j]]))
    assert text == "1+0i\t0+0.5i\n-1+0i\t1+1i\n"


# -- indexed contraction against the O(T^2) reference planner -------------------


def _reference_contract(tensors, max_entries):
    """The plain greedy loop: at every step rebuild the owner of each wire
    label, rescan every adjacent pair and contract the least ``(rank, i, j)``,
    i and j being list positions.  Survivors keep their order and the result
    is appended, so positions follow creation order."""
    while True:
        owners = {}
        for idx, (_, labels) in enumerate(tensors):
            for lb in labels:
                if isinstance(lb, int):
                    owners.setdefault(lb, []).append(idx)
        pairs = {tuple(sorted(o)) for o in owners.values() if len(o) == 2}
        if not pairs:
            return tensors
        best = None
        for i, j in sorted(pairs):
            la, lb = tensors[i][1], tensors[j][1]
            shared = len(set(la) & set(lb))
            rank = len(la) + len(lb) - 2 * shared
            if best is None or (rank, i, j) < best:
                best = (rank, i, j)
        rank, i, j = best
        if 2**rank > max_entries:
            raise ResourceLimitError(f"contraction needs a tensor of 2^{rank} entries")
        ta, la = tensors[i]
        tb, lb = tensors[j]
        shared = sorted(set(la) & set(lb), key=str)
        axes_a = [la.index(s) for s in shared]
        axes_b = [lb.index(s) for s in shared]
        t = np.tensordot(ta, tb, axes=(axes_a, axes_b))
        labels = [x for x in la if x not in shared] + [x for x in lb if x not in shared]
        tensors = [p for k, p in enumerate(tensors) if k not in (i, j)]
        tensors.append(_trace_duplicates(t, labels))


def reference_evaluate(d, max_entries=DEFAULT_ENTRY_CAP):
    """Contraction by ``np.tensordot``, every spider on an array of its own,
    as each was when spider tensors were built afresh per vertex."""
    d.validate()
    tensors = [
        (t if t is HADAMARD or t is _ID2 else np.array(t), labels)
        for t, labels in _wire_tensors(d, max_entries)
    ]
    tensors = _reference_contract(tensors, max_entries)
    rank = d.n_inputs + d.n_outputs
    if 2**rank > max_entries:
        raise ResourceLimitError(f"contraction needs a tensor of 2^{rank} entries")
    return _open_legs_matrix(d, tensors)


def assert_bit_identical(d):
    got, want = evaluate(d), reference_evaluate(d)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def record_contractions(monkeypatch):
    """Patch ``np.dot``, the executor's one contraction call, to append the
    rank of each product (a matrix of 2^rank entries) to a list."""
    ranks, real = [], np.dot

    def dot(*args, **kwargs):
        t = real(*args, **kwargs)
        ranks.append(t.size.bit_length() - 1)
        return t

    monkeypatch.setattr(np, "dot", dot)
    return ranks


def assert_plans_agree_with_executor(d, monkeypatch):
    # each step's out_labels has the rank of the tensor executed for it,
    # and the plan's peak is the largest of them
    tensors = _wire_tensors(d, DEFAULT_ENTRY_CAP)
    labels = [lbs for _, lbs in tensors]
    greedy, fold = _plan_greedy(labels, math.inf), _plan_fold(labels)
    for steps in (greedy, fold):
        with monkeypatch.context() as m:
            ranks = record_contractions(m)
            _execute(tensors, steps)
        assert ranks == [len(out) for *_, out in steps]
    assert _fold_peak(labels) == max((len(out) for *_, out in fold), default=0)
    peak = max((len(out) for *_, out in greedy), default=0)
    assert _plan_greedy(labels, peak) == greedy
    assert peak == 0 or _plan_greedy(labels, peak - 1) is None


@pytest.mark.parametrize("width", range(1, 7))
def test_indexed_contraction_matches_reference_on_circuits(width, monkeypatch):
    rng = random.Random(100 + width)
    for _ in range(6):
        d = circuit_to_diagram(random_clifford_t_circuit(rng, width, 80))
        assert_bit_identical(d)
        assert_plans_agree_with_executor(d, monkeypatch)


def test_indexed_contraction_matches_reference_on_rule_instances():
    rng = random.Random(17)
    for name, sampler in RULE_SAMPLERS.items():
        for _ in range(40):
            d, site = sampler(rng)
            assert_bit_identical(d)
            assert_bit_identical(RULES[name].apply(d, site))


def _self_loops():
    d = spider_diagram(VertexKind.Z, Phase.exact(1, 4), 1, 2)
    v = next(v for v in d.vertices() if d.kind(v) == VertexKind.Z)
    d.add_edge(v, v, 2)
    w = d.add_vertex(VertexKind.X, Phase.exact(3, 4))
    d.add_edge(w, w)
    d.add_edge(v, w)
    return d


def _parallel_edges():
    d = Diagram()
    i, o = d.add_input(), d.add_output()
    a = d.add_vertex(VertexKind.Z, Phase.exact(1, 2))
    b = d.add_vertex(VertexKind.X, Phase.exact(1, 4))
    c = d.add_vertex(VertexKind.Z, Phase.zero())
    d.add_edge(i, a)
    d.add_edge(a, b, 3)
    d.add_edge(b, c, 2)
    d.add_edge(c, a)
    d.add_edge(c, o)
    return d


def _closed_scalar():
    d = Diagram()
    a = d.add_vertex(VertexKind.Z, Phase.exact(1, 4))
    b = d.add_vertex(VertexKind.X, Phase.exact(1, 2))
    h = d.add_vertex(VertexKind.H)
    d.add_edge(a, b, 2)
    d.add_edge(a, h)
    d.add_edge(h, b)
    return d


def _pieces():
    # a wire from input to output, a degree-0 spider, a closed piece and a
    # connected piece side by side
    d = identity_diagram(1).tensor(spider_diagram(VertexKind.X, Phase.pi(), 2, 1))
    d.add_vertex(VertexKind.Z, Phase.exact(1, 3))
    return d.tensor(_closed_scalar()).tensor(_parallel_edges())


def _kept_pair():
    # two spiders with one kept tensor, (X, 3pi/2, degree 2): were both on
    # one array, numpy would take its product with itself to BLAS syrk,
    # whose rounding differs from gemm's in the last bit here
    d = Diagram()
    a = d.add_vertex(VertexKind.X, Phase.exact(3, 2))
    b = d.add_vertex(VertexKind.X, Phase.exact(3, 2))
    d.add_edge(a, b)
    d.add_edge(b, d.add_output())
    d.add_edge(a, d.add_output())
    return d


def _lone_loop():
    # a spider whose only legs are a self-loop traces to a numpy scalar,
    # which the fold then multiplies with the wire beside it
    d = identity_diagram(1)
    d.add_edge(*[d.add_vertex(VertexKind.Z, Phase.exact(1, 4))] * 2)
    return d


@pytest.mark.parametrize(
    "build",
    [
        _self_loops,
        _parallel_edges,
        lambda: identity_diagram(3),
        _pieces,
        lambda: spider_diagram(VertexKind.Z, Phase.exact(1, 4), 0, 0),
        _closed_scalar,
        empty_diagram,
        cap_diagram,
        _kept_pair,
        _lone_loop,
    ],
    ids=["self-loops", "parallel", "wires", "pieces", "degree-0", "closed", "empty", "cap",
         "kept-pair", "lone-loop"],
)
def test_indexed_contraction_matches_reference_on_edge_cases(build, monkeypatch):
    d = build()
    assert_bit_identical(d)
    assert_plans_agree_with_executor(d, monkeypatch)


def _outcome(evaluator, d, cap):
    try:
        return evaluator(d, max_entries=cap).tobytes()
    except ResourceLimitError as e:
        return str(e)


def test_resource_limit_at_the_same_caps_as_reference(monkeypatch):
    d = circuit_to_diagram(random_clifford_t_circuit(random.Random(3), 5, 120))
    caps = [2**k for k in range(14)]
    want = [_outcome(reference_evaluate, d, cap) for cap in caps]
    ranks = record_contractions(monkeypatch)
    got = []
    for cap in caps:
        ranks.clear()
        got.append(_outcome(evaluate, d, cap))
        # a limit is raised before any contraction
        assert isinstance(got[-1], bytes) or ranks == [], cap
    assert got == want
    # the caps span the peak: the vertex check, contraction limits, success
    messages = [o for o in got if isinstance(o, str)]
    assert any(m.startswith("vertex") for m in messages)
    assert any(m.startswith("contraction") for m in messages)
    assert isinstance(got[-1], bytes)


@pytest.mark.parametrize("width, cap", [(11, DEFAULT_ENTRY_CAP), (3, 2**4)])
def test_resource_limit_bounds_the_product_of_pieces(width, cap, monkeypatch):
    # bare wires need no plan step, but their product has 2^(2w) entries
    ranks = record_contractions(monkeypatch)
    with pytest.raises(ResourceLimitError, match=rf"tensor of 2\^{2 * width} entries"):
        evaluate(identity_diagram(width), max_entries=cap)
    assert ranks == []
    assert evaluate(identity_diagram(3), max_entries=2**6).tobytes() == np.eye(8, dtype=complex).tobytes()


def test_long_two_qubit_circuit_matches_oracle():
    # about 3000 one-qubit gates: far too many tensors for a per-step rescan
    rng = random.Random(9)
    one = ["h", "t", "tdg", "s", "sdg", "z", "x"]
    gates = []
    for k in range(3000):
        if k % 150 == 75:
            gates.append(Gate("cnot", tuple(rng.sample(range(2), 2))))
        else:
            gates.append(Gate(rng.choice(one), (rng.randrange(2),)))
    c = Circuit(2, tuple(gates))
    assert sum(g.name == "cnot" for g in gates) == 20
    got = evaluate(circuit_to_diagram(c))
    assert np.linalg.norm(got) > 1e6 * ZERO_FLOOR
    assert equal_up_to_scalar(got, circuit_matrix(c)).equal


# -- the creation-order fold ----------------------------------------------------


@pytest.mark.parametrize("width", range(1, 8))
def test_sweep_rank_of_a_circuit_is_bounded_by_its_width(width):
    # vertices come in gate order: the running tensor holds the inputs, one
    # cut wire per qubit and at most two more legs of the gate being folded
    rng = random.Random(300 + width)
    for _ in range(20):
        d = circuit_to_diagram(random_clifford_t_circuit(rng, width, 300))
        labels = [lbs for _, lbs in _wire_tensors(d, DEFAULT_ENTRY_CAP)]
        assert _fold_peak(labels) <= 2 * width + 2


def test_evaluate_takes_the_sweep_when_greedy_peaks_higher():
    c = random_clifford_t_circuit(random.Random(0), 6, 300)
    d = circuit_to_diagram(c)
    tensors = _wire_tensors(d, DEFAULT_ENTRY_CAP)
    labels = [lbs for _, lbs in tensors]
    assert _fold_peak(labels) == 14
    # greedy's peak is 17
    assert _plan_greedy(labels, 16) is None
    assert _plan_greedy(labels, 17) is not None
    got = evaluate(d, max_entries=2**14)
    assert got.tobytes() == _open_legs_matrix(d, _execute(tensors, _plan_fold(labels))).tobytes()
    assert equal_up_to_scalar(got, circuit_matrix(c)).equal
    with pytest.raises(ResourceLimitError, match=r"2\^14 entries"):
        evaluate(d, max_entries=2**13)


def test_deep_eight_qubit_circuit_evaluates_under_the_default_cap():
    # greedy needs 2^24 entries here and the fold 2^18, under the 2^20 cap
    rng = random.Random(1)
    c = random_clifford_t_circuit(rng, 8, 1159)
    while len(c.gates) <= 0.9 * 1159:
        c = random_clifford_t_circuit(rng, 8, 1159)
    assert len(c.gates) == 1045
    got = evaluate(circuit_to_diagram(c))
    # 1/sqrt(2) per CNOT bridge leaves a norm near 1e-28, under ZERO_FLOOR
    assert equal_up_to_scalar(got / np.linalg.norm(got), circuit_matrix(c)).equal


# -- spider tensors from cached basis pairs ---------------------------------------


def _reference_spider_tensor(kind, phase, degree):
    """The Z-spider |0..0> + e^{ia}|1..1>, and for X one Hadamard
    ``tensordot`` per leg of it."""
    if degree == 0:
        return np.array(1.0 + np.exp(1j * phase.radians), dtype=complex)
    t = np.zeros((2,) * degree, dtype=complex)
    t[(0,) * degree] = 1.0
    t[(1,) * degree] = np.exp(1j * phase.radians)
    if kind == VertexKind.X:
        for ax in range(degree):
            t = np.moveaxis(np.tensordot(HADAMARD, t, axes=(1, ax)), 0, ax)
    return t


SPIDER_PHASES = [Phase.exact(k, 4) for k in range(8)] + [
    Phase.exact(1, 3),
    Phase.exact(5, 6),
    Phase.approx(0.3),
    Phase.approx(2.0),
    Phase.approx(-1.1),
    Phase.approx(4.7),
]


@pytest.mark.parametrize("degree", range(13))
def test_spider_tensors_match_the_hadamard_per_leg_reference(degree):
    for p in SPIDER_PHASES:
        got = _spider_tensor(VertexKind.Z, p, degree)
        assert got.tobytes() == _reference_spider_tensor(VertexKind.Z, p, degree).tobytes()
        got = _spider_tensor(VertexKind.X, p, degree)
        want = _reference_spider_tensor(VertexKind.X, p, degree)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15, (p, degree)


def test_shared_tensors_are_read_only():
    assert not HADAMARD.flags.writeable
    for kind in (VertexKind.Z, VertexKind.X):
        for degree in (1, 2, 5):
            a, b = _basis_pair(kind, degree)
            assert not a.flags.writeable and not b.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * degree] = 7.0


@pytest.mark.parametrize(
    "build",
    [
        hadamard_diagram,
        lambda: spider_diagram(VertexKind.X, Phase.exact(1, 4), 1, 2),
        lambda: identity_diagram(1),
    ],
    ids=["h-box", "x-spider", "wire"],
)
def test_evaluate_returns_a_fresh_array(build):
    d = build()
    first = evaluate(d)
    want = first.copy()
    first[...] = 42.0
    assert evaluate(d).tobytes() == want.tobytes()


def test_basis_cache_keeps_no_high_degree():
    p = Phase.exact(1, 4)
    evaluate(spider_diagram(VertexKind.X, p, 1, 2))
    assert (VertexKind.X, 3) in _BASES
    got = evaluate(spider_diagram(VertexKind.X, p, 0, 16))
    assert np.allclose(got[:, 0], _reference_spider_tensor(VertexKind.X, p, 16).ravel())
    assert max(degree for _, degree in _BASES) <= _BASIS_CACHE_DEGREE
    assert len(_BASES) <= 2 * _BASIS_CACHE_DEGREE


def test_kept_spider_tensors_are_read_only_copies_of_built_ones():
    rng = random.Random(29)
    for sampler in RULE_SAMPLERS.values():
        for _ in range(4):
            evaluate(sampler(rng)[0])
    for kind in (VertexKind.Z, VertexKind.X):
        for k in range(8):
            for degree in range(_SPIDER_CACHE_DEGREE + 3):
                _spider(kind, Phase(frac=Fraction(k, 4)), degree, set())
    assert _SPIDERS
    for (kind, k, degree), t in _SPIDERS.items():
        want = _spider_tensor(kind, Phase.exact(k, 4), degree)
        assert t.shape == want.shape and t.tobytes() == want.tobytes()
        assert not t.flags.writeable
    # at most one tensor per colour, pi/4 step and degree up to the bound
    assert max(degree for *_, degree in _SPIDERS) <= _SPIDER_CACHE_DEGREE
    assert len(_SPIDERS) <= 2 * 8 * (_SPIDER_CACHE_DEGREE + 1)
    assert sum(t.nbytes for t in _SPIDERS.values()) < 100_000


@pytest.mark.parametrize(
    "phase, degree",
    [(Phase.exact(1, 3), 2), (Phase.approx(0.7), 2), (Phase.exact(1, 4), _SPIDER_CACHE_DEGREE + 1)],
    ids=["off-grid", "radians", "high-degree"],
)
def test_spider_tensors_outside_the_cache_are_built_each_time(phase, degree):
    kept = dict(_SPIDERS)
    first = _spider(VertexKind.Z, phase, degree, set())
    again = _spider(VertexKind.Z, phase, degree, set())
    assert first is not again and first.flags.writeable
    assert first.tobytes() == _spider_tensor(VertexKind.Z, phase, degree).tobytes()
    assert _SPIDERS.keys() == kept.keys()


def test_spiders_of_one_diagram_never_share_an_array():
    used: set = set()
    p = Phase.exact(3, 2)
    first, second = (_spider(VertexKind.X, p, 2, used) for _ in range(2))
    assert first is _SPIDERS[VertexKind.X, 6, 2] and second is not first
    assert second.tobytes() == first.tobytes() and second.flags.writeable
    # nor do the tensors of any diagram, bar the shared Hadamard and identity
    rng = random.Random(30)
    for sampler in RULE_SAMPLERS.values():
        for _ in range(8):
            d = sampler(rng)[0].tensor(_kept_pair())
            arrays = [t for t, _ in _wire_tensors(d, DEFAULT_ENTRY_CAP)]
            own = [id(t) for t in arrays if t is not HADAMARD and t is not _ID2]
            assert len(set(own)) == len(own)


def _reference_equal_up_to_scalar(a, b, tol=1e-9):
    """The comparison by ``np.linalg.norm``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na <= ZERO_FLOOR and nb <= ZERO_FLOOR:
        return ScalarVerdict(True, None, 0.0)
    if na <= ZERO_FLOOR or nb <= ZERO_FLOOR:
        return ScalarVerdict(False, None, 1.0)
    k = complex(np.vdot(a, b) / np.vdot(a, a))
    residual = float(np.linalg.norm(b - k * a) / max(na, nb))
    return ScalarVerdict(residual <= tol and k != 0, k if k != 0 else None, residual)


def _verdict_bits(v):
    scalar = None if v.scalar is None else (v.scalar.real.hex(), v.scalar.imag.hex())
    return v.equal, scalar, float(v.residual).hex(), type(v.residual)


def _comparison_inputs():
    rng = np.random.default_rng(29)

    def rand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for shape in [(1, 1), (2, 2), (4, 2), (8, 8), (16, 4)]:
        a = rand(*shape)
        yield a, rand(*shape)
        yield a, (0.3 - 2j) * a
        yield a, (0.3 - 2j) * a + 1e-10 * rand(*shape)
        yield a, np.zeros(shape)
        yield np.zeros(shape), np.zeros(shape)
        # norms just under, at and just over the zero-map floor
        unit = a / np.linalg.norm(a)
        for scale in [ZERO_FLOOR * (1 - 1e-15), ZERO_FLOOR, ZERO_FLOOR * (1 + 1e-15), 1e-16]:
            yield unit * scale, a
            yield unit * scale, unit * scale * 1j
    # views that are not C-contiguous, and real arrays
    big = rand(8, 8)
    yield big.T, (1 + 1j) * big.T
    yield big[::2, 1::2], big[1::2, ::2]
    yield big[:, ::3], rand(8, 3)
    yield big.real, big.real * 2.0
    yield np.arange(4.0).reshape(2, 2), np.eye(2)


def test_equal_up_to_scalar_matches_the_linalg_norm_reference():
    for a, b in _comparison_inputs():
        for x, y in ((a, b), (b, a)):
            got, want = equal_up_to_scalar(x, y), _reference_equal_up_to_scalar(x, y)
            assert _verdict_bits(got) == _verdict_bits(want), (x, y)


@pytest.mark.parametrize(
    "labels",
    [
        [("out", 0), ("out", 0), ("in", 0)],
        [("out", 0), ("in", 0), ("in", 5)],
        [("out", 0), ("in", 0)],
        [("out", 0), ("in", 0), ("in", 1), ("in", 2)],
    ],
    ids=["repeated", "missing", "too-few", "too-many"],
)
def test_open_legs_check_rejects_a_bad_label_list(labels):
    d = spider_diagram(VertexKind.Z, Phase.zero(), 2, 1)
    t = np.zeros((2,) * len(labels), dtype=complex)
    with pytest.raises(AssertionError):
        _open_legs_matrix(d, [(t, labels)])


def test_open_legs_matrix_has_no_negative_zero():
    # T then Z contract to a diagonal whose zero entries come out of
    # ``tensordot`` as -0, which ``zxq eval`` would print as "-0"
    got = evaluate(circuit_to_diagram(Circuit(1, (Gate("t", (0,)), Gate("z", (0,))))))
    assert got.shape == (2, 2)
    assert not np.signbit(got.real[got.real == 0]).any()
    assert not np.signbit(got.imag[got.imag == 0]).any()
