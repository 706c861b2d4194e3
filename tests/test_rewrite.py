import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

import zxq.diagram
from zxq.circuits import parse_circuit, circuit_to_diagram
from zxq.diagram import Diagram, VertexKind, identity_diagram, spider_diagram
from zxq.phase import Phase
from zxq.rewrite import (
    CORE_SEQUENCE,
    OPTIONAL_SEQUENCE,
    RULES,
    RewriteStep,
    RewriteTrace,
    RuleMatchError,
    diagram_cost,
    simplify,
)
from zxq.semantics import equal_up_to_scalar, evaluate

from .conftest import assert_well_formed


def wire_chain(*specs):
    """A 1->1 diagram with the given (kind, phase) vertices on one wire."""
    d = Diagram()
    prev = d.add_input()
    ids = []
    for kind, phase in specs:
        v = d.add_vertex(kind, phase)
        d.add_edge(prev, v)
        prev = v
        ids.append(v)
    d.add_edge(prev, d.add_output())
    return d, ids


def assert_semantics_preserved(before, after, tol=1e-9):
    v = equal_up_to_scalar(evaluate(before), evaluate(after), tol)
    assert v.equal, f"residual {v.residual}"


def test_registry_names():
    assert set(RULES) == {
        "S1", "S2", "S2'", "B1", "B2", "B2v", "H1", "H2",
        "N", "Nv", "P", "Hf", "Hex", "Cy", "HH",
    }


def test_fuse_adds_phases():
    d, (a, b) = wire_chain((VertexKind.Z, Phase.exact(1, 4)), (VertexKind.Z, Phase.exact(1, 4)))
    out = RULES["S1"].apply(d, (a, b))
    want, _ = wire_chain((VertexKind.Z, Phase.exact(1, 2)))
    assert out.iso_equal(want)


def test_fuse_absorbs_zero():
    d, (a, b) = wire_chain((VertexKind.Z, Phase.approx(0.7)), (VertexKind.Z, Phase.zero()))
    out = RULES["S1"].apply(d, (a, b))
    want, _ = wire_chain((VertexKind.Z, Phase.approx(0.7)))
    assert out.iso_equal(want)


def test_fuse_x_spiders_cancels_to_identity():
    d, (a, b) = wire_chain((VertexKind.X, Phase.exact(1, 4)), (VertexKind.X, Phase.exact(7, 4)))
    out = RULES["S1"].apply(d, (a, b))
    (v,) = out.spiders()
    assert out.phase(v).is_zero
    out2 = RULES["S2"].apply(out, (v,))
    assert np.allclose(evaluate(out2), np.eye(2))


def test_fuse_parallel_edges_become_loops():
    d = Diagram()
    u = d.add_vertex(VertexKind.Z, Phase.zero())
    v = d.add_vertex(VertexKind.Z, Phase.zero())
    d.add_edge(u, v, 3)
    out = RULES["S1"].apply(d, (u, v))
    (w,) = out.spiders()
    assert out.self_loops(w) == 2
    assert_semantics_preserved(d, out)


@pytest.mark.parametrize("loops", [1, 2])
@pytest.mark.parametrize("kind", [VertexKind.Z, VertexKind.X])
def test_fuse_moves_the_removed_spiders_self_loops(kind, loops):
    d, (a, b) = wire_chain((kind, Phase.exact(1, 4)), (kind, Phase.approx(0.5)))
    d.add_edge(b, b, loops)
    out = RULES["S1"].apply(d, (a, b))
    assert b not in out and out.self_loops(a) == loops
    assert_well_formed(out)
    assert_semantics_preserved(d, out)
    # simplify's first pass seeds the looped spider's wire sites; (b, b) is
    # not among them, as no core rule matches a wire from a vertex to itself
    trace = _assert_same_as_rescan(d, full=True)
    assert trace.steps[0] == RewriteStep("S1", (a, b))
    assert_semantics_preserved(d, trace.final)


def test_fuse_rejects_colour_mismatch():
    d = Diagram()
    u = d.add_vertex(VertexKind.Z, Phase.zero())
    v = d.add_vertex(VertexKind.X, Phase.zero())
    d.add_edge(u, v)
    with pytest.raises(RuleMatchError):
        RULES["S1"].apply(d, (u, v))
    with pytest.raises(RuleMatchError):
        RULES["S1"].apply(d, (u, u))


@pytest.mark.parametrize("kind", [VertexKind.Z, VertexKind.X])
def test_remove_identity_plain_wire(kind):
    d, (v,) = wire_chain((kind, Phase.zero()))
    out = RULES["S2"].apply(d, (v,))
    assert out.iso_equal(identity_diagram(1))


def test_remove_identity_in_chain():
    d, ids = wire_chain(
        (VertexKind.Z, Phase.exact(1, 4)), (VertexKind.Z, Phase.zero()), (VertexKind.X, Phase.pi())
    )
    out = RULES["S2"].apply(d, (ids[1],))
    want, _ = wire_chain((VertexKind.Z, Phase.exact(1, 4)), (VertexKind.X, Phase.pi()))
    assert out.iso_equal(want)


def test_remove_identity_preconditions():
    d, (v,) = wire_chain((VertexKind.Z, Phase.exact(1, 4)))
    with pytest.raises(RuleMatchError):
        RULES["S2"].apply(d, (v,))
    both = Diagram()
    w = both.add_vertex(VertexKind.Z, Phase.zero())
    u = both.add_vertex(VertexKind.Z, Phase.exact(1, 4))
    both.add_edge(w, u, 2)
    both.add_edge(u, both.add_output())
    with pytest.raises(RuleMatchError):  # both legs to the same vertex route elsewhere
        RULES["S2"].apply(both, (w,))


def test_hh_cancels_to_wire():
    d = Diagram()
    i, o = d.add_input(), d.add_output()
    h1 = d.add_vertex(VertexKind.H)
    h2 = d.add_vertex(VertexKind.H)
    d.add_edge(i, h1)
    d.add_edge(h1, h2)
    d.add_edge(h2, o)
    out = RULES["HH"].apply(d, (h1, h2))
    assert out.iso_equal(identity_diagram(1))


def test_hh_between_spiders_leaves_direct_edge():
    d = Diagram()
    a = d.add_vertex(VertexKind.Z, Phase.exact(1, 4))
    b = d.add_vertex(VertexKind.Z, Phase.exact(1, 2))
    h1, h2 = d.add_vertex(VertexKind.H), d.add_vertex(VertexKind.H)
    d.add_edge(a, h1)
    d.add_edge(h1, h2)
    d.add_edge(h2, b)
    d.add_edge(d.add_input(), a)
    d.add_edge(b, d.add_output())
    out = RULES["HH"].apply(d, (h1, h2))
    assert out.edge_mult(a, b) == 1
    assert RULES["S1"].find(out)
    assert_semantics_preserved(d, out)


def test_hh_closed_pair_is_scalar_two():
    d = Diagram()
    h1, h2 = d.add_vertex(VertexKind.H), d.add_vertex(VertexKind.H)
    d.add_edge(h1, h2, 2)
    assert np.allclose(evaluate(d), [[2.0]])
    out = RULES["HH"].apply(d, (h1, h2))
    assert np.allclose(evaluate(out), [[2.0]])


def test_color_change_structure():
    d, (v,) = wire_chain((VertexKind.X, Phase.approx(0.9)))
    out = RULES["H2"].apply(d, (v,))
    (w,) = out.spiders()
    assert out.kind(w) == VertexKind.Z
    assert out.hbox_count == 2
    assert_semantics_preserved(d, out)


def test_color_change_twice_round_trips():
    d, (v,) = wire_chain((VertexKind.X, Phase.exact(3, 4)))
    once = RULES["H2"].apply(d, (v,))
    twice = RULES["H2"].apply(once, (v,))
    while RULES["HH"].find(twice):
        twice = RULES["HH"].apply(twice, RULES["HH"].find(twice)[0])
    assert twice.iso_equal(d)


def test_hopf_disconnects():
    d = Diagram()
    z = d.add_vertex(VertexKind.Z, Phase.zero())
    x = d.add_vertex(VertexKind.X, Phase.zero())
    d.add_edge(z, x, 2)
    d.add_edge(d.add_input(), z)
    d.add_edge(x, d.add_output())
    out = RULES["Hf"].apply(d, (z, x))
    assert out.edge_mult(z, x) == 0
    assert_semantics_preserved(d, out)


def test_hopf_needs_two_edges():
    d = Diagram()
    z = d.add_vertex(VertexKind.Z, Phase.zero())
    x = d.add_vertex(VertexKind.X, Phase.zero())
    d.add_edge(z, x)
    with pytest.raises(RuleMatchError):
        RULES["Hf"].apply(d, (z, x))


def test_cycle_removes_loop():
    d, (v,) = wire_chain((VertexKind.Z, Phase.exact(1, 4)))
    d.add_edge(v, v)
    out = RULES["Cy"].apply(d, (v,))
    assert out.self_loops(v) == 0
    # loop removal is exact, not just up-to-scalar
    assert np.allclose(evaluate(out), evaluate(d))


def test_copy_through_spider():
    d = Diagram()
    v = d.add_vertex(VertexKind.Z, Phase.zero())
    s = d.add_vertex(VertexKind.X, Phase.zero())
    d.add_edge(s, v)
    o1, o2 = d.add_output(), d.add_output()
    d.add_edge(v, o1)
    d.add_edge(v, o2)
    out = RULES["B1"].apply(d, (s, v))
    assert out.spider_count == 2
    assert all(out.kind(w) == VertexKind.X for w in out.spiders())
    assert_semantics_preserved(d, out)


def test_bialgebra_square():
    d = Diagram()
    x = d.add_vertex(VertexKind.X, Phase.zero())
    z = d.add_vertex(VertexKind.Z, Phase.zero())
    d.add_edge(z, x)
    for b in (d.add_input(), d.add_input()):
        d.add_edge(b, x)
    for b in (d.add_output(), d.add_output()):
        d.add_edge(z, b)
    out = RULES["B2"].apply(d, (z, x))
    assert out.spider_count == 4
    assert out.n_edges == 8
    assert_semantics_preserved(d, out)


def test_pi_commutation_negates_phase():
    d, ids = wire_chain((VertexKind.X, Phase.pi()), (VertexKind.Z, Phase.exact(1, 4)))
    out = RULES["N"].apply(d, (ids[0], ids[1]))
    phases = sorted(
        (out.kind(v), out.phase(v)) for v in out.spiders()
    )
    assert (VertexKind.Z, Phase.exact(7, 4)) in phases
    assert (VertexKind.X, Phase.pi()) in phases
    assert_semantics_preserved(d, out)


def test_pi_state_absorbs():
    d = Diagram()
    v = d.add_vertex(VertexKind.Z, Phase.exact(1, 4))
    p = d.add_vertex(VertexKind.X, Phase.pi())
    d.add_edge(p, v)
    o1, o2 = d.add_output(), d.add_output()
    d.add_edge(v, o1)
    d.add_edge(v, o2)
    out = RULES["Nv"].apply(d, (p, v))
    assert out.spider_count == 2
    assert all(out.phase(w).is_pi and out.kind(w) == VertexKind.X for w in out.spiders())
    assert_semantics_preserved(d, out)


def test_hexagon_swaps_colours():
    d, ids = wire_chain(
        (VertexKind.Z, Phase.exact(1, 2)),
        (VertexKind.X, Phase.exact(1, 2)),
        (VertexKind.Z, Phase.exact(1, 2)),
    )
    out = RULES["Hex"].apply(d, tuple(ids))
    kinds = [out.kind(v) for v in ids]
    assert kinds == [VertexKind.X, VertexKind.Z, VertexKind.X]
    # both sides equal on the nose: each is (1+i)/sqrt(2) times Hadamard
    assert np.allclose(evaluate(out), evaluate(d))


def test_euler_h_expansion_scalar():
    d = Diagram()
    h = d.add_vertex(VertexKind.H)
    d.add_edge(d.add_input(), h)
    d.add_edge(h, d.add_output())
    out = RULES["H1"].apply(d, (h,))
    assert out.spider_count == 3
    v = equal_up_to_scalar(evaluate(d), evaluate(out))
    assert v.equal
    assert v.scalar == pytest.approx((1 + 1j) / math.sqrt(2))
    # canonical reverse brings the H-box back
    chain_site = RULES["H1"].reverse.find(out)[0]
    back = RULES["H1"].reverse.apply(out, chain_site)
    assert back.iso_equal(d)


def test_p_rule_quarter_chain():
    d, ids = wire_chain(
        (VertexKind.Z, Phase.exact(1, 2)),
        (VertexKind.X, Phase.exact(1, 2)),
        (VertexKind.Z, Phase.exact(1, 2)),
    )
    out = RULES["P"].apply(d, tuple(ids))
    assert [out.kind(v) for v in ids] == [VertexKind.X, VertexKind.Z, VertexKind.X]
    for v in ids:
        assert out.phase(v).close_to(Phase.exact(1, 2), 1e-9)
    assert_semantics_preserved(d, out)


def test_p_rule_equal_outer_angles():
    d, ids = wire_chain(
        (VertexKind.Z, Phase.exact(1, 4)),
        (VertexKind.X, Phase.exact(1, 2)),
        (VertexKind.Z, Phase.exact(1, 4)),
    )
    out = RULES["P"].apply(d, tuple(ids))
    assert out.phase(ids[0]).close_to(out.phase(ids[2]), 1e-9)
    assert_semantics_preserved(d, out)


def test_p_rule_opposite_outer_angles():
    d, ids = wire_chain(
        (VertexKind.Z, Phase.exact(7, 4)),
        (VertexKind.X, Phase.exact(1, 2)),
        (VertexKind.Z, Phase.exact(1, 4)),
    )
    out = RULES["P"].apply(d, tuple(ids))
    from zxq.phase import circular_distance

    gap = circular_distance(out.phase(ids[0]).radians, math.pi + out.phase(ids[2]).radians)
    assert gap < 1e-9
    assert_semantics_preserved(d, out)


def test_p_rule_degenerate_output_canonical():
    beta = Phase.approx(1.234)
    d, ids = wire_chain(
        (VertexKind.Z, Phase.zero()), (VertexKind.X, beta), (VertexKind.Z, Phase.zero())
    )
    out = RULES["P"].apply(d, tuple(ids))
    assert out.phase(ids[0]).close_to(beta, 1e-12)
    assert out.phase(ids[1]).close_to(Phase.zero(), 1e-12)
    assert out.phase(ids[2]).close_to(Phase.zero(), 1e-12)
    assert_semantics_preserved(d, out)


def test_p_rule_colour_dual_involution():
    d, ids = wire_chain(
        (VertexKind.Z, Phase.approx(0.4)),
        (VertexKind.X, Phase.approx(2.2)),
        (VertexKind.Z, Phase.approx(5.0)),
    )
    once = RULES["P"].apply(d, tuple(ids))
    twice = RULES["P"].apply(once, tuple(ids))
    assert_semantics_preserved(d, twice)


# -- the simplifier ------------------------------------------------------------


def test_simplify_cnot_cnot_to_wires():
    d = circuit_to_diagram(parse_circuit("qubits 2\ncnot 0 1\ncnot 0 1\n"))
    out, trace = simplify(d)
    assert out.iso_equal(identity_diagram(2))
    assert not trace.truncated
    assert_semantics_preserved(d, out)


def test_simplify_hh_to_wire():
    d = circuit_to_diagram(parse_circuit("qubits 1\nh 0\nh 0\n"))
    out, _ = simplify(d)
    assert out.iso_equal(identity_diagram(1))


def test_simplify_tt_to_s():
    d = circuit_to_diagram(parse_circuit("qubits 1\nt 0\nt 0\n"))
    out, _ = simplify(d)
    assert out.iso_equal(spider_diagram(VertexKind.Z, Phase.exact(1, 2), 1, 1))


def test_simplify_minimal_is_noop():
    d = spider_diagram(VertexKind.Z, Phase.exact(1, 4), 1, 1)
    out, trace = simplify(d)
    assert out.iso_equal(d)
    assert trace.steps == []


def test_simplify_core_never_raises_cost():
    d = circuit_to_diagram(parse_circuit("qubits 2\ncnot 0 1\nt 0\ncnot 0 1\nh 1\nh 1\ncz 0 1\n"))
    before = diagram_cost(d)
    out, trace = simplify(d)
    assert diagram_cost(out) <= before
    assert_semantics_preserved(d, out)


def test_simplify_budget_truncates():
    d = circuit_to_diagram(parse_circuit("qubits 1\n" + "t 0\n" * 8))
    out, trace = simplify(d, step_budget=2)
    assert trace.truncated
    assert len(trace.steps) == 2
    assert_semantics_preserved(d, out)


def test_simplify_full_strategy_is_sound():
    d = circuit_to_diagram(parse_circuit("qubits 2\ns 0\nh 0\ns 0\nh 0\ns 0\nh 0\ncnot 0 1\n"))
    out, trace = simplify(d, full=True)
    assert_semantics_preserved(d, out)
    assert diagram_cost(out) <= diagram_cost(d)


def test_trace_replay_reproduces_final():
    d = circuit_to_diagram(parse_circuit("qubits 2\ncnot 0 1\ncnot 0 1\nh 0\nh 0\nt 1\nt 1\n"))
    out, trace = simplify(d)
    assert trace.replay().iso_equal(out)


def test_trace_export_format():
    d = circuit_to_diagram(parse_circuit("qubits 1\nh 0\nh 0\n"))
    _, trace = simplify(d)
    lines = trace.export_lines()
    assert len(lines) == 1
    assert lines[0].startswith("HH @ [")
    import re

    assert re.match(r"^HH @ \[\d+, \d+\] digest:[0-9a-f]{8}->[0-9a-f]{8}$", lines[0])


def test_strategy_config_validation():
    d = circuit_to_diagram(parse_circuit("qubits 1\nh 0\nh 0\n"))
    for budget in (0, -1):
        with pytest.raises(ValueError, match="step budget must be positive"):
            simplify(d, step_budget=budget)


def test_core_sequence_is_registered():
    assert set(CORE_SEQUENCE) <= set(RULES)


def test_registered_reverse_orientations_are_sound():
    import random

    from zxq.harness import RULE_SAMPLERS

    rng = random.Random(13)
    for name, rule in sorted(RULES.items()):
        if rule.reverse is None:
            continue
        for _ in range(10):
            d, _ = RULE_SAMPLERS[name](rng)
            sites = rule.reverse.find(d)
            if not sites:
                continue
            out = rule.reverse.apply(d, sites[0])
            out.validate()
            assert_well_formed(out)
            assert_semantics_preserved(d, out)


# -- trace regressions ------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _golden_circuit():
    return circuit_to_diagram(parse_circuit((GOLDEN / "trace_3q.zxc").read_text()))


@pytest.mark.parametrize("mode, config", [("plain", None), ("full", {"full": True})])
def test_trace_export_matches_golden(mode, config):
    _, trace = simplify(_golden_circuit(), **(config or {}))
    expected = (GOLDEN / f"trace_3q_{mode}.txt").read_text().splitlines()
    assert trace.export_lines() == expected


@pytest.mark.parametrize("config", [None, {"full": True}])
def test_trace_digests_chain(config):
    d = _golden_circuit()
    out, trace = simplify(d, **(config or {}))
    pairs = [line.rsplit(" digest:", 1)[1].split("->") for line in trace.export_lines()]
    assert pairs[0][0] == d.digest()
    for (_, after), (before, _) in zip(pairs, pairs[1:]):
        assert after == before
    assert pairs[-1][1] == out.digest() == trace.final.digest()


def test_simplify_takes_no_digests(monkeypatch):
    calls = []
    original = Diagram.digest

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(Diagram, "digest", counted)
    _, trace = simplify(_golden_circuit(), full=True)
    assert trace.steps and not calls
    trace.export_lines()
    trace.export_lines()
    assert len(calls) == len(trace.steps) + 1


@pytest.mark.parametrize("full", [False, True])
def test_simplify_returns_its_diagram_with_an_empty_log(full):
    # the core worklist takes the log after every rewrite, and a digest
    # without labels keeps nothing and leaves the log as it was
    out, trace = simplify(_golden_circuit(), full=full)
    assert trace.steps
    log = out._touched
    assert log == set()
    assert out.digest() == trace.final.digest()
    assert out._touched is log and log == set()


def test_strict_replay_checks_the_final_digest():
    out, trace = simplify(_golden_circuit())
    assert trace.replay().iso_equal(out)
    trace.final = identity_diagram(3)
    with pytest.raises(RuleMatchError):
        trace.replay()


class _CountingHashlib:
    """Stands in for ``hashlib`` and counts the bytes passed to
    ``blake2b(...)`` and to its hashes' ``update(...)``."""

    def __init__(self):
        self.hashed = 0

    def blake2b(self, data=b"", **kwargs):
        self.hashed += len(data)
        return _CountingHash(self, hashlib.blake2b(data, **kwargs))


class _CountingHash:
    def __init__(self, counter, h):
        self._counter, self._h = counter, h

    def update(self, data):
        self._counter.hashed += len(data)
        self._h.update(data)

    def hexdigest(self):
        return self._h.hexdigest()


def test_trace_export_hashes_only_what_each_step_touched(monkeypatch):
    """Exporting a trace hashes, per step, about what the step touched,
    not the whole diagram: 8x the gates may cost at most 2x the bytes per
    step (hashing every state's whole label counts costs about 6x)."""
    counting = _CountingHashlib()
    monkeypatch.setattr(zxq.diagram, "hashlib", counting)
    per_step = []
    for n in (300, 2400):
        _, trace = simplify(_ladder_circuit(4, n))
        counting.hashed = 0
        trace.initial.digest()  # the full labelling the export starts with
        initial = counting.hashed
        counting.hashed = 0
        trace.export_lines()
        per_step.append((counting.hashed - initial) / len(trace.steps))
    assert per_step[1] <= 2 * per_step[0], per_step


# -- in-place transforms behind the copying apply -----------------------------------


def _orientations():
    for name, rule in sorted(RULES.items()):
        for o in (rule.forward, rule.reverse):
            if o is not None:
                yield name, o.find, o.rewrite, o.apply


def _state(d):
    spiders = {v: d.phase(v) for v in d.spiders()}
    kinds = {v: d.kind(v) for v in d.vertices()}
    return kinds, spiders, list(d.edges()), d.inputs, d.outputs


@pytest.mark.parametrize("seed", range(3))
def test_rewrite_in_place_matches_copying_apply(seed):
    import random

    from zxq.harness import RULE_SAMPLERS

    rng = random.Random(seed)
    checked = dict.fromkeys(RULES, 0)
    for name, find, rewrite, apply in _orientations():
        for _ in range(5):
            d, _ = RULE_SAMPLERS[name](rng)
            for s in find(d)[:2]:
                before = d.digest()
                out = apply(d, s)
                assert d.digest() == before, name
                assert_well_formed(out)
                g = d.copy()
                assert rewrite(g, s) is None
                assert out.take_touched() == g.take_touched(), name
                assert g.digest() == out.digest(), name
                checked[name] += 1
    assert all(checked.values()), checked


def test_rule_match_error_leaves_diagram_unchanged():
    import itertools
    import random

    from zxq.harness import RULE_SAMPLERS

    rng = random.Random(5)
    rejected = dict.fromkeys(RULES, 0)
    for name, find, rewrite, _ in _orientations():
        d, _ = RULE_SAMPLERS[name](rng)
        sites = find(d)
        if not sites:
            continue
        want = _state(d)
        for s in itertools.islice(itertools.permutations(d.vertices(), len(sites[0])), 400):
            g = d.copy()
            try:
                rewrite(g, s)
            except RuleMatchError:
                rejected[name] += 1
                assert _state(g) == want, (name, s)
    assert all(rejected.values()), rejected


def test_rewrite_accepts_exactly_the_sites_find_lists():
    """Every orientation's ``rewrite`` accepts each site its ``find``
    lists and rejects every other vertex tuple of that arity, up to
    reversal (a reversed pair or chain is the same site for the symmetric
    rules)."""
    import itertools
    import random

    from zxq.harness import RULE_SAMPLERS

    rng = random.Random(17)
    pool = []
    for name in sorted(RULE_SAMPLERS):
        for _ in range(2):
            d, site = RULE_SAMPLERS[name](rng)
            pool += [d, RULES[name].apply(d, site)]  # the result holds H1's reverse site
    for name, find, rewrite, _ in _orientations():
        listed = [find(d) for d in pool]
        arity = len(next(sites for sites in listed if sites)[0])
        for d, sites in zip(pool, listed):
            allowed = set(sites) | {s[::-1] for s in sites}
            tuples = itertools.islice(itertools.permutations(d.vertices(), arity), 300)
            for s in itertools.chain(sites, tuples):
                g = d.copy()
                try:
                    rewrite(g, s)
                except RuleMatchError:
                    assert s not in sites, (name, s)
                else:
                    assert s in allowed, (name, s)


def test_h_chain_closed_into_triangle_becomes_looped_h_box():
    d = Diagram()
    a, b, c = (d.add_vertex(k, Phase.exact(1, 2)) for k in (VertexKind.Z, VertexKind.X, VertexKind.Z))
    d.add_edge(a, b)
    d.add_edge(b, c)
    d.add_edge(c, a)
    (site,) = RULES["H1"].reverse.find(d)
    out = RULES["H1"].reverse.apply(d, site)
    (h,) = out.vertices()
    assert out.kind(h) == VertexKind.H and out.self_loops(h) == 1
    assert_semantics_preserved(d, out)


def test_core_simplify_copies_a_constant_number_of_times(monkeypatch):
    calls = []
    original = Diagram.copy

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(Diagram, "copy", counted)
    steps, copies = [], []
    t_chain = circuit_to_diagram(parse_circuit("qubits 1\n" + "t 0\n" * 60))
    for d in (_golden_circuit(), t_chain):
        calls.clear()
        _, trace = simplify(d)
        steps.append(len(trace.steps))
        copies.append(len(calls))
        trace.export_lines()
        trace.replay()
        assert len(calls) == copies[-1] + 2  # one working copy per replay
    assert steps == [6, 59]
    assert copies[0] == copies[1]


# -- the core worklist against the rescan it replaced --------------------------------


def _reference_simplify(d, step_budget=10_000, full=False):
    """The rescan loop ``simplify`` ran before its core worklist: every core
    step builds each rule's whole ``find`` list and takes its first site,
    and a run that ends with the budget spent rescans the result to decide
    whether it was truncated."""
    initial = d.copy()
    cur = d.copy()
    steps = []
    budget = step_budget
    truncated = False

    def first_core_match(g):
        for name in CORE_SEQUENCE:
            sites = RULES[name].find(g)
            if sites:
                return RULES[name], sites[0]
        return None

    def run_core(g, acc):
        nonlocal budget, truncated
        while True:
            m = first_core_match(g)
            if m is None:
                return
            if budget <= 0:
                truncated = True
                return
            rule, site = m
            rule.forward.rewrite(g, site)
            acc.append(RewriteStep(rule.name, site))
            budget -= 1

    run_core(cur, steps)

    optional = OPTIONAL_SEQUENCE if full else ()
    while optional and not truncated:
        base = diagram_cost(cur)
        accepted = False
        for name in optional:
            rule = RULES[name]
            for site in rule.find(cur):
                if budget <= 0:
                    truncated = True
                    break
                budget -= 1
                trial = rule.apply(cur, site)
                tsteps = [RewriteStep(rule.name, site)]
                run_core(trial, tsteps)
                if diagram_cost(trial) < base:
                    cur = trial
                    steps.extend(tsteps)
                    accepted = True
                    break
            if accepted or truncated:
                break
        if not accepted:
            break

    if budget <= 0 and first_core_match(cur) is not None:
        truncated = True
    return cur, RewriteTrace(initial, steps, cur.copy(), truncated)


def _ladder_circuit(width, n, seed=1):
    """The first draw with more than 0.9 * n gates."""
    import random

    from zxq.harness import random_clifford_t_circuit

    rng = random.Random(seed)
    while True:
        c = random_clifford_t_circuit(rng, width, n)
        if len(c.gates) > 0.9 * n:
            return circuit_to_diagram(c)


def _assert_same_as_rescan(d, **kwargs):
    out, trace = simplify(d, **kwargs)
    assert_well_formed(out)
    ref_out, ref = _reference_simplify(d, **kwargs)
    assert trace.steps == ref.steps
    assert trace.truncated == ref.truncated
    assert out.digest() == ref_out.digest()
    return trace


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("budget", [1, 7, None])
def test_worklist_takes_the_steps_of_the_rescan(budget, full):
    budgets = {} if budget is None else {"step_budget": budget}
    for seed in range(10):
        d = _ladder_circuit(2 + seed % 3, 20 + 12 * seed, seed)
        trace = _assert_same_as_rescan(d, full=full, **budgets)
        assert budget is None or trace.truncated
    if budget is None:
        # every budget up to the first that finishes the run, against the
        # reference's final rescan of the result
        for seed in (1, 2):
            d = _ladder_circuit(2 + seed % 3, 20 + 12 * seed, seed)
            for step_budget in range(1, 500):
                trace = _assert_same_as_rescan(d, step_budget=step_budget, full=full)
                if not trace.truncated:
                    break
            assert not trace.truncated and step_budget >= len(trace.steps) > 10


def _count_core_matches(monkeypatch):
    """A list that gets one entry per call of a core rule's predicate."""
    import dataclasses

    calls = []
    for name in CORE_SEQUENCE:
        rule = RULES[name]

        def counted(d, site, _matches=rule.forward.matches):
            calls.append(1)
            return _matches(d, site)

        forward = dataclasses.replace(rule.forward, matches=counted)
        counting = dataclasses.replace(rule, forward=forward, find=None, apply=None)
        monkeypatch.setitem(RULES, name, counting)
    return calls


def test_core_simplify_match_calls_grow_linearly(monkeypatch):
    """Core simplify asks the core predicates a number of times linear in
    the circuit: 4x the gates may cost at most 6x the calls (a rescan per
    step costs about 16x)."""
    calls = _count_core_matches(monkeypatch)
    counts = []
    for n in (600, 2400):
        d = _ladder_circuit(4, n)
        calls.clear()
        simplify(d)
        counts.append(len(calls))
    assert counts[1] <= 6 * counts[0], counts


def test_speculative_trials_match_only_around_their_move(monkeypatch):
    """A ``--full`` trial's core pass starts from the sites its move
    touched, not from the whole diagram: 8x the gates may cost at most 2x
    the core predicate calls per trial (a rescan per trial costs about
    8x)."""
    import dataclasses

    calls = _count_core_matches(monkeypatch)
    trials = []
    for name in OPTIONAL_SEQUENCE:
        rule = RULES[name]

        def apply(g, site, _apply=rule.apply):
            trials.append(1)
            return _apply(g, site)

        monkeypatch.setitem(RULES, name, dataclasses.replace(rule, apply=apply))
    per_trial = []
    for n in (60, 480):
        d = _ladder_circuit(3, n)
        calls.clear()
        simplify(d)
        core = len(calls)
        calls.clear()
        trials.clear()
        simplify(d, full=True)
        assert trials
        per_trial.append((len(calls) - core) / len(trials))
    assert per_trial[1] <= 2 * per_trial[0], per_trial


def test_speculative_pass_calls_the_rule_seams(monkeypatch):
    """Wrapping ``find`` and ``apply`` of the optional rules, as a tracer
    does, sees one ``apply`` call per speculative trial and changes no
    step.  A round tries the candidates in ``find`` order up to the one it
    keeps, H2's before P's."""
    import dataclasses

    d = _ladder_circuit(3, 32, 1)
    want_out, want = simplify(d, full=True)
    found, applied = [], []
    for name in OPTIONAL_SEQUENCE:
        rule = RULES[name]

        def find(g, _find=rule.find, _name=name):
            sites = _find(g)
            found.append([(_name, s) for s in sites])
            return sites

        def apply(g, site, _apply=rule.apply, _name=name):
            applied.append((_name, site))
            return _apply(g, site)

        monkeypatch.setitem(RULES, name, dataclasses.replace(rule, find=find, apply=apply))
    out, trace = simplify(d, full=True)
    assert trace.steps == want.steps
    assert out.digest() == want_out.digest()

    kept = [(s.rule, s.site) for s in trace.steps if s.rule in OPTIONAL_SEQUENCE]
    assert {rule for rule, _ in kept} == set(OPTIONAL_SEQUENCE)
    rounds, tried = iter(found), []
    for move in kept + [None]:  # the last round keeps nothing
        for candidates in rounds:
            if move in candidates:
                tried += candidates[: candidates.index(move) + 1]
                break
            tried += candidates
    assert applied == tried
    assert len(applied) > len(kept)
