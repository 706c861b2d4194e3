import math

import numpy as np
import pytest
from hypothesis import given, settings

from zxq.diagram import (
    Diagram,
    InvalidDiagramError,
    VertexKind,
    _WLCache,
    cap_diagram,
    cup_diagram,
    empty_diagram,
    identity_diagram,
    spider_diagram,
)
from zxq.phase import Phase
from zxq.semantics import equal_up_to_scalar, evaluate

from .conftest import assert_well_formed, small_diagrams


def test_compose_identities():
    i1 = identity_diagram(1)
    assert i1.compose(i1).iso_equal(i1)


def test_compose_spiders_multiplies():
    z = spider_diagram(VertexKind.Z, Phase.exact(1, 4), 1, 1)
    got = evaluate(z.compose(z))
    want = np.diag([1.0, np.exp(1j * math.pi / 4)]) @ np.diag([1.0, np.exp(1j * math.pi / 4)])
    assert equal_up_to_scalar(got, want).equal


def test_compose_cap_cup_closed_loop():
    loop = cap_diagram().compose(cup_diagram())
    assert loop.signature == (0, 0)
    # <cap|cup> = (1 0 0 1)(1 0 0 1)^T = 2, on the nose
    assert np.allclose(evaluate(loop), [[2.0]])


def test_compose_arity_mismatch():
    with pytest.raises(InvalidDiagramError):
        identity_diagram(1).compose(identity_diagram(2))


def scalar_spiders(n: int) -> Diagram:
    d = Diagram()
    for _ in range(n):
        d.add_vertex(VertexKind.Z)
    return d


def test_compose_yanks_a_chain_of_pass_through_ports():
    # (1 (x) cap) ; (cup (x) 1): the wire runs through all six plugged ports
    snake = identity_diagram(1).tensor(cap_diagram()).compose(
        cup_diagram().tensor(identity_diagram(1))
    )
    assert snake.iso_equal(identity_diagram(1))
    assert np.array_equal(evaluate(snake), np.eye(2))


def test_compose_with_mirror_leaves_wire_and_loop():
    d = identity_diagram(1).tensor(cap_diagram()).compose(
        identity_diagram(1).tensor(cup_diagram())
    )
    assert d.iso_equal(identity_diagram(1).tensor(scalar_spiders(1)))
    assert np.allclose(evaluate(d), 2 * np.eye(2))


def test_compose_closing_two_loops_leaves_two_scalars():
    d = cap_diagram().tensor(cap_diagram()).compose(cup_diagram().tensor(cup_diagram()))
    assert d.iso_equal(scalar_spiders(2))
    assert np.allclose(evaluate(d), [[4.0]])


def test_splice_wire_vertex_joins_its_legs():
    d = spider_diagram(VertexKind.Z, Phase.zero(), 1, 1)
    (v,) = d.spiders()
    i, o = d.inputs[0], d.outputs[0]
    d.take_touched()
    d.splice(v)
    assert d.take_touched() == {v, i, o}
    assert d.iso_equal(identity_diagram(1))
    assert np.array_equal(evaluate(d), np.eye(2))


def test_splice_two_legs_to_one_neighbour_leave_a_self_loop():
    d = spider_diagram(VertexKind.X, Phase.exact(1, 4), 1, 0)
    (u,) = d.spiders()
    h = d.add_vertex(VertexKind.H)
    d.add_edge(u, h, 2)
    d.splice(h)
    want = spider_diagram(VertexKind.X, Phase.exact(1, 4), 1, 0)
    (w,) = want.spiders()
    want.add_edge(w, w)
    assert d.self_loops(u) == 1
    assert d.iso_equal(want)


def test_splice_lone_self_loop_leaves_the_scalar_two():
    d = Diagram()
    h = d.add_vertex(VertexKind.H)
    d.add_edge(h, h)
    d.splice(h)
    assert d.iso_equal(scalar_spiders(1))
    assert np.array_equal(evaluate(d), [[2.0]])


@pytest.mark.parametrize("legs, loops", [(3, 0), (1, 0), (1, 1), (0, 2), (0, 0)])
def test_splice_rejects_other_degrees_and_leaves_the_diagram(legs, loops):
    d = Diagram()
    v = d.add_vertex(VertexKind.Z, Phase.exact(1, 2))
    for _ in range(legs):
        d.add_edge(v, d.add_output())
    if loops:
        d.add_edge(v, v, loops)
    before = d.copy()
    d.take_touched()
    with pytest.raises(InvalidDiagramError, match=f"degree {legs + 2 * loops}"):
        d.splice(v)
    assert d.take_touched() == set()
    assert d.vertices() == before.vertices() and list(d.edges()) == list(before.edges())
    assert d.iso_equal(before)


def test_tensor_unit():
    d = spider_diagram(VertexKind.X, Phase.exact(1, 2), 1, 2)
    assert empty_diagram().tensor(d).iso_equal(d)
    assert d.tensor(empty_diagram()).iso_equal(d)


def test_tensor_identities():
    got = evaluate(identity_diagram(1).tensor(identity_diagram(1)))
    assert np.allclose(got, np.eye(4))


def test_tensor_pauli_product():
    z = spider_diagram(VertexKind.Z, Phase.pi(), 1, 1)
    x = spider_diagram(VertexKind.X, Phase.pi(), 1, 1)
    want = np.kron(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert equal_up_to_scalar(evaluate(z.tensor(x)), want).equal


def test_operators_match_methods():
    a, b = identity_diagram(1), identity_diagram(1)
    assert (a >> b).iso_equal(a.compose(b))
    assert (a @ b).iso_equal(a.tensor(b))


def test_iso_equal_relabelled():
    d = spider_diagram(VertexKind.Z, Phase.exact(1, 4), 2, 1)
    perm = {v: v + 100 for v in d.vertices()}
    assert d.iso_equal(d.relabel(perm))


def test_iso_equal_kind_sensitive():
    z = spider_diagram(VertexKind.Z, Phase.exact(1, 4), 1, 1)
    x = spider_diagram(VertexKind.X, Phase.exact(1, 4), 1, 1)
    assert not z.iso_equal(x)


def test_iso_equal_phase_sensitive():
    a = spider_diagram(VertexKind.Z, Phase.exact(1, 4), 1, 1)
    b = spider_diagram(VertexKind.Z, Phase.exact(3, 4), 1, 1)
    assert not a.iso_equal(b)


def test_iso_equal_multiset_edges():
    def cnot(order):
        d = Diagram()
        i0, i1 = d.add_input(), d.add_input()
        z = d.add_vertex(VertexKind.Z, Phase.zero())
        x = d.add_vertex(VertexKind.X, Phase.zero())
        o0, o1 = d.add_output(), d.add_output()
        edges = [(i0, z), (z, o0), (i1, x), (x, o1), (z, x)]
        for u, v in (edges if order else reversed(edges)):
            d.add_edge(u, v)
        return d

    assert cnot(True).iso_equal(cnot(False))


def test_iso_distinguishes_parallel_edges():
    d1 = Diagram()
    u = d1.add_vertex(VertexKind.Z, Phase.zero())
    v = d1.add_vertex(VertexKind.X, Phase.zero())
    d1.add_edge(u, v, 2)
    d2 = d1.copy()
    d2.remove_edge(u, v)
    assert not d1.iso_equal(d2)


def test_iso_respects_port_order():
    d1 = identity_diagram(2)
    d2 = Diagram()
    i0, i1 = d2.add_input(), d2.add_input()
    o0, o1 = d2.add_output(), d2.add_output()
    d2.add_edge(i0, o1)
    d2.add_edge(i1, o0)
    assert not d1.iso_equal(d2)


@settings(max_examples=40, deadline=None)
@given(small_diagrams())
def test_iso_equal_is_equivalence(d):
    assert d.iso_equal(d)
    d2 = d.relabel({v: v + 1000 for v in d.vertices()})
    d3 = d2.relabel({v: 3 * v + 7 for v in d2.vertices()})
    assert d2.iso_equal(d) and d.iso_equal(d2)
    assert d2.iso_equal(d3) and d.iso_equal(d3)  # transitive on the sampled triple
    assert d.digest() == d2.digest() == d3.digest()
    assert d.n_edges == d3.n_edges == sum(m for *_, m in d.edges())


@settings(max_examples=25, deadline=None)
@given(small_diagrams(), small_diagrams())
def test_tensor_order_changes_only_ports(d1, d2):
    t = d1.tensor(d2)
    assert t.signature == (d1.n_inputs + d2.n_inputs, d1.n_outputs + d2.n_outputs)
    t.validate()
    assert_well_formed(t)


@settings(max_examples=25, deadline=None)
@given(small_diagrams(max_spiders=2, max_ports=2), small_diagrams(max_spiders=2, max_ports=2),
       small_diagrams(max_spiders=2, max_ports=2))
def test_tensor_associative_up_to_iso(a, b, c):
    left, right = a.tensor(b).tensor(c), a.tensor(b.tensor(c))
    assert_well_formed(left)
    assert_well_formed(right)
    assert left.iso_equal(right)


@settings(max_examples=25, deadline=None)
@given(small_diagrams(max_spiders=2, max_ports=2), small_diagrams(max_spiders=2, max_ports=2),
       small_diagrams(max_spiders=2, max_ports=2))
def test_compose_associative_up_to_iso(a, b, c):
    def as_two_by_two(d):
        # pad with bare wires, then plug surplus ports with zero spiders
        while d.n_inputs < 2 or d.n_outputs < 2:
            d = d.tensor(identity_diagram(1))
        if d.n_inputs > 2:
            pre = identity_diagram(2)
            for _ in range(d.n_inputs - 2):
                pre = pre.tensor(spider_diagram(VertexKind.Z, Phase.zero(), 0, 1))
            d = pre.compose(d)
        if d.n_outputs > 2:
            post = identity_diagram(2)
            for _ in range(d.n_outputs - 2):
                post = post.tensor(spider_diagram(VertexKind.Z, Phase.zero(), 1, 0))
            d = d.compose(post)
        return d

    a, b, c = as_two_by_two(a), as_two_by_two(b), as_two_by_two(c)
    left, right = a.compose(b).compose(c), a.compose(b.compose(c))
    assert_well_formed(left)
    assert_well_formed(right)
    assert left.iso_equal(right)


def test_validate_hbox_degree():
    d = Diagram()
    h = d.add_vertex(VertexKind.H)
    for _ in range(3):
        d.add_edge(h, d.add_output())
    with pytest.raises(InvalidDiagramError):
        d.validate()


def test_validate_boundary_degree():
    d = Diagram()
    b = d.add_input()
    v = d.add_vertex(VertexKind.Z, Phase.zero())
    d.add_edge(b, v)
    d.add_edge(b, v)
    with pytest.raises(InvalidDiagramError):
        d.validate()


@pytest.mark.parametrize("kind", [VertexKind.IN, VertexKind.OUT])
def test_add_vertex_registers_a_boundary_in_its_port_list(kind):
    d = spider_diagram(VertexKind.Z, Phase.exact(1, 4), 1, 1)
    (s,) = d.spiders()
    b = d.add_vertex(kind)
    d.add_edge(b, s)
    d.validate()
    assert_well_formed(d)
    ports, other = (d.inputs, d.outputs) if kind == VertexKind.IN else (d.outputs, d.inputs)
    assert len(ports) == 2 and ports[-1] == b and len(other) == 1


def test_degree_counts_self_loops_twice():
    d = Diagram()
    v = d.add_vertex(VertexKind.Z, Phase.zero())
    d.add_edge(v, v)
    d.add_edge(v, d.add_output())
    assert d.degree(v) == 3
    assert d.self_loops(v) == 1
    assert d.neighbors(v) != [v]


@pytest.mark.parametrize("count", [0, -2])
@pytest.mark.parametrize("method", ["add_edge", "remove_edge"])
def test_wire_count_below_one_is_rejected_and_changes_nothing(method, count):
    d = Diagram()
    a, b = d.add_vertex(VertexKind.Z), d.add_vertex(VertexKind.Z)
    d.add_edge(a, b)
    d.take_touched()
    with pytest.raises(ValueError, match="edge count must be positive"):
        getattr(d, method)(a, b, count)
    assert list(d.edges()) == [(a, b, 1)]
    assert d.take_touched() == set()


def test_remove_edge_at_a_missing_vertex_is_no_such_edge():
    d = Diagram()
    a = d.add_vertex(VertexKind.Z)
    d.take_touched()
    for u, v in ((99, a), (a, 99)):
        with pytest.raises(InvalidDiagramError, match="no such edge"):
            d.remove_edge(u, v)
    assert list(d.edges()) == [] and d.take_touched() == set()


def test_phase_only_on_spiders():
    d = Diagram()
    h = d.add_vertex(VertexKind.H)
    with pytest.raises(InvalidDiagramError):
        d.set_phase(h, Phase.zero())
    with pytest.raises(InvalidDiagramError):
        d.add_vertex(VertexKind.H, Phase.zero())


# -- digest: the direct WL hash against networkx's labels ------------------------


def nx_digest(d: Diagram) -> str:
    """The digest from networkx's per-vertex WL labels, each computed from
    scratch: the sum mod 2^128 of every round's labels, then the same
    final hash."""
    import hashlib

    import networkx as nx

    per_vertex = nx.weisfeiler_lehman_subgraph_hashes(
        d._to_networkx(), edge_attr="mult", node_attr="wl", iterations=4, digest_size=16
    )
    sums = [0] * 4
    for labels in per_vertex.values():
        for r, label in enumerate(labels):
            sums[r] = (sums[r] + int(label, 16)) % 2**128
    text = ",".join(map(str, sums)).encode("ascii")
    return hashlib.blake2b(text, digest_size=16).hexdigest()[:8]


def _hand_built_diagrams() -> dict:
    loops = spider_diagram(VertexKind.Z, Phase.exact(1, 4), 1, 1)
    loops.add_edge(0, 0, 2)

    multi = Diagram()
    a = multi.add_vertex(VertexKind.Z)
    b = multi.add_vertex(VertexKind.X, Phase.exact(1, 2))
    multi.add_edge(a, b, 3)
    multi.add_edge(multi.add_input(), a)
    multi.add_edge(b, multi.add_output())

    hboxes = Diagram()
    z = hboxes.add_vertex(VertexKind.Z, Phase.pi())
    prev = hboxes.add_input()
    for _ in range(3):
        h = hboxes.add_vertex(VertexKind.H)
        hboxes.add_edge(prev, h)
        prev = h
    hboxes.add_edge(prev, z)
    hboxes.add_edge(z, hboxes.add_output())

    radians = spider_diagram(VertexKind.X, Phase.approx(1.2345678901), 2, 1)
    radians.add_vertex(VertexKind.Z, Phase.approx(-0.5))

    isolated = identity_diagram(1)
    isolated.add_vertex(VertexKind.Z, Phase.pi())
    isolated.add_vertex(VertexKind.X)

    return {
        "self-loops": loops,
        "multi-edges": multi,
        "H-boxes": hboxes,
        "radian phases": radians,
        "isolated spiders": isolated,
        "empty": empty_diagram(),
        "boundary only": identity_diagram(3),
        "cap": cap_diagram(),
        "cup": cup_diagram(),
    }


@pytest.mark.parametrize("name", sorted(_hand_built_diagrams()))
def test_digest_matches_networkx_on_hand_built(name):
    d = _hand_built_diagrams()[name]
    assert d.digest() == nx_digest(d)


def test_digest_matches_networkx_on_circuits_and_rule_results():
    import random

    from zxq.circuits import circuit_to_diagram
    from zxq.harness import random_clifford_t_circuit
    from zxq.rewrite import RULES

    states = []
    for seed in range(8):
        rng = random.Random(seed)
        d = circuit_to_diagram(random_clifford_t_circuit(rng, 1 + seed % 3, 30))
        states.append(d)
        for rule in RULES.values():
            states.extend(rule.apply(d, site) for site in rule.find(d)[:2])
    assert any(not d.phase(v).is_exact for d in states for v in d.spiders())
    for d in states:
        assert d.digest() == nx_digest(d)


@settings(max_examples=40, deadline=None)
@given(small_diagrams())
def test_digest_matches_networkx_on_random_diagrams(d):
    edges, n_edges, digest = list(d.edges()), d.n_edges, d.digest()
    assert digest == nx_digest(d)
    # reads never create wires, and no stored count is 0
    vs = d.vertices()
    for u in vs:
        assert d.degree(u) == sum(d.edge_mult(u, v) for v in vs) + d.self_loops(u)
    assert (list(d.edges()), d.n_edges, d.digest()) == (edges, n_edges, digest)
    assert all(m > 0 for c in d._adj.values() for m in c.values())


# -- incremental digest: the same value as labelling afresh --------------------------


def fresh_digest(d: Diagram) -> str:
    """A copy carries no labels, so its digest labels every vertex afresh."""
    return d.copy().digest()


@pytest.mark.parametrize("full", [False, True])
def test_incremental_digest_equals_a_fresh_one_along_traces(full):
    import random

    from zxq.circuits import circuit_to_diagram
    from zxq.harness import random_clifford_t_circuit
    from zxq.rewrite import simplify

    states = 0
    for seed, width in enumerate((2, 3, 4, 5, 6) * 2):
        rng = random.Random(seed)
        d = circuit_to_diagram(random_clifford_t_circuit(rng, width, 40 + 8 * seed))
        _, trace = simplify(d, full=full)
        stride = 1 + seed % 3  # several rewrites may come between two digests
        labels = _WLCache()
        for i, g in enumerate(trace._states()):
            if i % stride == 0:
                assert g.digest(labels) == fresh_digest(g), (seed, i)
                assert labels.log is g._touched  # the next call reads only the log
                states += 1
        assert g.digest(labels) == fresh_digest(g) == nx_digest(g)
    assert states > 100


def test_incremental_digest_after_every_orientation():
    import random

    from zxq.harness import RULE_SAMPLERS
    from zxq.rewrite import RULES

    rng = random.Random(29)
    checked = 0
    for name, rule in sorted(RULES.items()):
        for o in (rule.forward, rule.reverse):
            if o is None:
                continue
            for _ in range(4):
                d, _ = RULE_SAMPLERS[name](rng)
                for site in o.find(d)[:3]:
                    g, labels = d.copy(), _WLCache()
                    g.digest(labels)
                    o.rewrite(g, site)
                    assert labels.log is g._touched  # the call reads only the log
                    assert g.digest(labels) == fresh_digest(g), (name, site)
                    checked += 1
    assert checked > 100


def test_incremental_digest_follows_every_mutator():
    d = spider_diagram(VertexKind.Z, Phase.exact(1, 4), 2, 2)
    (s,) = d.spiders()
    x = d.add_vertex(VertexKind.X)
    d.add_edge(s, x)
    labels = _WLCache()
    d.digest(labels)
    edits = [
        lambda: d.set_phase(s, Phase.approx(0.25)),
        lambda: d.set_kind(x, VertexKind.Z),
        lambda: d.add_edge(s, x, 2),
        lambda: d.remove_edge(s, x),
        lambda: d.add_edge(x, x),
        lambda: d.add_edge(x, d.add_vertex(VertexKind.H)),
        lambda: d.add_edge(d.add_input(), x),
        lambda: d.add_edge(x, d.add_output()),
        lambda: d.remove_vertex(d.inputs[0]),
        lambda: d.remove_vertex(d.outputs[-1]),
        lambda: d.remove_vertex(s),
        lambda: d.add_vertex(VertexKind.X, Phase.pi()),
    ]
    for i, edit in enumerate(edits):
        edit()
        assert labels.log is d._touched, i  # the call reads only the log
        assert d.digest(labels) == fresh_digest(d) == nx_digest(d), i


def test_touched_log_and_digest_cache_stay_with_their_diagram():
    d = identity_diagram(2)
    assert d.take_touched() == set(d.vertices())  # a new diagram logs what it was built from
    z = d.add_vertex(VertexKind.Z)
    d.add_edge(z, d.inputs[0])
    assert d.take_touched() == {z, d.inputs[0]}
    i, o = d.inputs[1], d.outputs[1]
    d.remove_vertex(o)
    assert d.take_touched() == {o, i}  # the output and the input it was wired to

    labels = _WLCache()
    d.digest(labels)
    g = d.copy()
    assert g.take_touched() == set()  # a copy starts an empty log
    d.set_phase(z, Phase.pi())
    assert d.digest(labels) == fresh_digest(d)
    # labels of another diagram, or labels whose log another reader took,
    # relabel everything
    assert g.digest(labels) == fresh_digest(g) == nx_digest(g)
    g.set_phase(z, Phase.exact(1, 2))
    g.take_touched()
    assert g.digest(labels) == fresh_digest(g) == nx_digest(g)


def test_digest_leaves_the_log_to_its_reader():
    d = identity_diagram(1)
    d.take_touched()
    z = d.add_vertex(VertexKind.Z)
    d.add_edge(z, z)
    d.digest()
    assert d.take_touched() == {z}
