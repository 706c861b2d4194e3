"""Verification campaigns: rule soundness, the relation corpus, and the
colour-swap closed forms.

Campaigns are deterministic under a fixed seed and report stable,
line-oriented text (see :class:`VerificationReport.render_body`); wall time
is kept out of the body so seed-fixed reruns are byte-identical.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import rewrite as rw
from .circuits import (
    GATES,
    INVERSE_PAIR_FIXTURE,
    SQUARED_FIXTURES,
    Circuit,
    Gate,
    circuit_matrix,
    circuit_to_diagram,
    selinger_bian_fixtures,
)
from .diagram import Diagram, VertexKind, opposite
from .phase import TWO_PI, Phase, circular_distance
from .phase_algebra import (
    EulerTriple,
    GeneralPhaseTriple,
    SingularConfiguration,
    chain_parameters,
    degenerate_case,
    euler_xzx_extract,
    generalized_color_swap,
    p_rule_angles,
    swap_residual,
    xzx_matrix,
    zxz_matrix,
)
from .semantics import DEFAULT_TOL, equal_up_to_scalar, evaluate


@dataclass(frozen=True)
class CaseFailure:
    case: str
    inputs: str
    residual: float
    seed: int


@dataclass
class VerificationReport:
    campaign: str
    seed: int
    cases: int = 0
    lines: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, case: str, inputs: str, residual: float) -> None:
        self.failures.append(CaseFailure(case, inputs, residual, self.seed))

    def tally(self, label: str, measure: str, case: str, outcomes) -> None:
        """Count each ``(value, ok, witness)`` of ``outcomes`` as one case
        whose value may raise the worst one; a case not ``ok`` fails as
        ``case`` with ``witness()`` as its inputs.  The witness is called
        only then, and before the next outcome is drawn, so it may read the
        generator's current locals.  Adds the line ``label: max_measure``."""
        worst = 0.0
        for value, ok, witness in outcomes:
            self.cases += 1
            worst = max(worst, value)
            if not ok:
                self.fail(case, witness(), value)
        self.lines.append(f"{label}: max_{measure} {worst:.3e}")

    def render_body(self) -> str:
        out = [f"campaign: {self.campaign}", f"seed: {self.seed}", f"cases: {self.cases}"]
        out.extend(self.lines)
        out.append(f"failures: {len(self.failures)}")
        for f in self.failures:
            out.append(f"  {f.case} seed={f.seed} residual={f.residual:.3e} inputs={f.inputs}")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(out) + "\n"


# -- random instantiation of rule patterns ---------------------------------------


def _random_phase(rng: random.Random) -> Phase:
    if rng.random() < 0.5:
        return Phase.exact(rng.randrange(8), 4)
    return Phase.approx(rng.uniform(0.0, TWO_PI))


def _random_spider_kind(rng: random.Random) -> str:
    return VertexKind.Z if rng.random() < 0.5 else VertexKind.X


def _attach_context(rng: random.Random, d: Diagram, v: int, n_legs: int) -> None:
    # each open pattern leg ends in a boundary, a phased spider, or an H-box
    for _ in range(n_legs):
        r = rng.random()
        if r < 0.45:
            d.add_edge(v, d.add_output() if rng.random() < 0.5 else d.add_input())
        elif r < 0.9:
            w = d.add_vertex(_random_spider_kind(rng), _random_phase(rng))
            d.add_edge(v, w)
            d.add_edge(w, d.add_output() if rng.random() < 0.5 else d.add_input())
        else:
            h = d.add_vertex(VertexKind.H)
            d.add_edge(v, h)
            d.add_edge(h, d.add_output())


def _sample_fusion(rng):
    d = Diagram()
    k = _random_spider_kind(rng)
    u = d.add_vertex(k, _random_phase(rng))
    v = d.add_vertex(k, _random_phase(rng))
    d.add_edge(u, v, rng.choice((1, 1, 1, 2)))
    _attach_context(rng, d, u, rng.randrange(3))
    _attach_context(rng, d, v, rng.randrange(3))
    return d, (u, v)


def _sample_identity(rng):
    # context legs always end in fresh vertices, so the two legs are distinct
    d = Diagram()
    v = d.add_vertex(_random_spider_kind(rng), Phase.zero())
    _attach_context(rng, d, v, 2)
    return d, (v,)


def _sample_bent_identity(rng):
    # wire-bent instances: both legs of the zero spider face the same side
    d = Diagram()
    v = d.add_vertex(_random_spider_kind(rng), Phase.zero())
    same_side = d.add_output if rng.random() < 0.5 else d.add_input
    a, b = same_side(), same_side()
    d.add_edge(v, a)
    d.add_edge(v, b)
    return d, (v,)


def _sample_hh(rng):
    d = Diagram()
    h1 = d.add_vertex(VertexKind.H)
    h2 = d.add_vertex(VertexKind.H)
    d.add_edge(h1, h2)
    if rng.random() < 0.1:
        d.add_edge(h1, h2)  # closed 2-cycle, scalar 2
    else:
        _attach_context(rng, d, h1, 1)
        _attach_context(rng, d, h2, 1)
    return d, (h1, h2)


def _sample_color_change(rng):
    d = Diagram()
    v = d.add_vertex(_random_spider_kind(rng), _random_phase(rng))
    _attach_context(rng, d, v, rng.randrange(4))
    if rng.random() < 0.25:
        d.add_edge(v, v)
    return d, (v,)


def _sample_hopf(rng):
    d = Diagram()
    u = d.add_vertex(VertexKind.Z, _random_phase(rng))
    v = d.add_vertex(VertexKind.X, _random_phase(rng))
    d.add_edge(u, v, rng.choice((2, 2, 2, 3)))
    _attach_context(rng, d, u, rng.randrange(3))
    _attach_context(rng, d, v, rng.randrange(3))
    return d, ((u, v) if rng.random() < 0.5 else (v, u))


def _sample_cycle(rng):
    d = Diagram()
    v = d.add_vertex(_random_spider_kind(rng), _random_phase(rng))
    d.add_edge(v, v)
    _attach_context(rng, d, v, rng.randrange(3))
    return d, (v,)


def _sample_copy(rng):
    d = Diagram()
    k = _random_spider_kind(rng)
    v = d.add_vertex(k, Phase.zero())
    s = d.add_vertex(opposite(k), Phase.zero())
    d.add_edge(s, v)
    _attach_context(rng, d, v, rng.randrange(4))
    return d, (s, v)


def _sample_bialgebra(rng, fixed_arity: bool):
    d = Diagram()
    zv = d.add_vertex(VertexKind.Z, Phase.zero())
    xv = d.add_vertex(VertexKind.X, Phase.zero())
    d.add_edge(zv, xv)
    nz = 2 if fixed_arity else rng.randrange(4)
    nx = 2 if fixed_arity else rng.randrange(4)
    _attach_context(rng, d, zv, nz)
    _attach_context(rng, d, xv, nx)
    return d, (zv, xv)


def _sample_euler_h(rng):
    d = Diagram()
    h = d.add_vertex(VertexKind.H)
    _attach_context(rng, d, h, 1)
    d.add_edge(h, d.add_output())
    return d, (h,)


def _sample_pi(rng, degree: int):
    d = Diagram()
    k = _random_spider_kind(rng)
    v = d.add_vertex(k, _random_phase(rng))
    p = d.add_vertex(opposite(k), Phase.pi())
    d.add_edge(p, v)
    if degree == 2:
        d.add_edge(p, d.add_input())
    _attach_context(rng, d, v, rng.randrange(4))
    return d, (p, v)


def _sample_chain(rng, phases) -> tuple[Diagram, tuple[int, int, int]]:
    d = Diagram()
    k = _random_spider_kind(rng)
    p1, p2, p3 = phases
    v1 = d.add_vertex(k, p1)
    v2 = d.add_vertex(opposite(k), p2)
    v3 = d.add_vertex(k, p3)
    d.add_edge(v1, v2)
    d.add_edge(v2, v3)
    d.add_edge(d.add_input(), v1)
    d.add_edge(v3, d.add_output())
    return d, (v1, v2, v3)


def _sample_hexagon(rng):
    p = Phase.exact(1, 2) if rng.random() < 0.5 else Phase.exact(3, 2)
    return _sample_chain(rng, (p, p, p))


def _sample_p(rng):
    r = rng.random()
    if r < 0.1:  # exercise the degenerate pathways too
        mk = rng.choice((Phase.zero, Phase.pi, lambda: _random_phase(rng)))
        phases = tuple(mk() for _ in range(3))
    elif r < 0.2:  # equal outer angles
        a = _random_phase(rng)
        phases = (a, _random_phase(rng), a)
    else:
        phases = tuple(_random_phase(rng) for _ in range(3))
    return _sample_chain(rng, phases)


RULE_SAMPLERS = {
    "S1": _sample_fusion,
    "S2": _sample_identity,
    "S2'": _sample_bent_identity,
    "B1": _sample_copy,
    "B2": lambda rng: _sample_bialgebra(rng, True),
    "B2v": lambda rng: _sample_bialgebra(rng, False),
    "H1": _sample_euler_h,
    "H2": _sample_color_change,
    "N": lambda rng: _sample_pi(rng, 2),
    "Nv": lambda rng: _sample_pi(rng, 1),
    "P": _sample_p,
    "Hf": _sample_hopf,
    "Hex": _sample_hexagon,
    "Cy": _sample_cycle,
    "HH": _sample_hh,
}


def verify_rules(seed: int = 0, samples: int = 100, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Soundness campaign: every registered rule, ``samples`` random
    instantiations each, semantic equality up to scalar."""
    t0 = time.perf_counter()
    rep = VerificationReport("rules", seed)
    rep.lines.append(f"samples_per_rule: {samples}")
    rng = random.Random(seed)

    def outcomes(name):
        rule, sampler = rw.RULES[name], RULE_SAMPLERS[name]
        for i in range(samples):
            d, site = sampler(rng)
            out = rule.apply(d, site)
            v = equal_up_to_scalar(evaluate(d), evaluate(out), tol)
            yield v.residual, v.equal, lambda: f"{name}[{i}] site={site} diagram={d.digest()}"

    for name in sorted(rw.RULES):
        rep.tally(f"rule {name}", "residual", f"rule {name}", outcomes(name))
    rep.wall_time = time.perf_counter() - t0
    return rep


def verify_relations(tol: float = DEFAULT_TOL) -> VerificationReport:
    """Relation-corpus campaign: every fixture must hold both through the
    gate-matrix oracle and through diagram evaluation.  The three composite
    relations report their scalar against the identity; every other one
    must survive a simplify pass on each side."""
    t0 = time.perf_counter()
    rep = VerificationReport("relations", 0)
    eye = np.eye(4, dtype=complex)
    for fx in selinger_bian_fixtures():
        ml, mr = circuit_matrix(fx.lhs), circuit_matrix(fx.rhs)
        vm = equal_up_to_scalar(ml, mr, tol)
        gl, gr = circuit_to_diagram(fx.lhs), circuit_to_diagram(fx.rhs)
        vd = equal_up_to_scalar(evaluate(gl), evaluate(gr), tol)
        rep.cases += 1
        line = (
            f"relation {fx.id:2d}: matrix_residual {vm.residual:.3e} "
            f"diagram_residual {vd.residual:.3e}"
        )
        if fx.id in SQUARED_FIXTURES or fx.id == INVERSE_PAIR_FIXTURE:
            vi = equal_up_to_scalar(eye, ml, tol)
            line += f" scalar_vs_identity {vi.scalar:.6g}"
        else:
            sl, trl = rw.simplify(gl)
            sr, trr = rw.simplify(gr)
            vs = equal_up_to_scalar(evaluate(sl), evaluate(sr), tol)
            line += f" simplified_residual {vs.residual:.3e}"
            if not vs.equal or trl.truncated or trr.truncated:
                rep.fail(f"relation {fx.id} simplified", "fixture", vs.residual)
        if not (vm.equal and vd.equal):
            rep.fail(f"relation {fx.id}", "fixture", max(vm.residual, vd.residual))
        rep.lines.append(line)
    rep.wall_time = time.perf_counter() - t0
    return rep


def _draw_general_phase(rng: random.Random) -> complex:
    # unit circle, plus a radial family to exercise non-unitary phases
    theta = rng.uniform(0.0, TWO_PI)
    r = 1.0 if rng.random() < 0.5 else rng.uniform(0.25, 4.0)
    return r * cmath.exp(1j * theta)


def _draw_swappable(rng: random.Random, max_tries: int = 50) -> GeneralPhaseTriple:
    for _ in range(max_tries):
        t = GeneralPhaseTriple(
            _draw_general_phase(rng), _draw_general_phase(rng), _draw_general_phase(rng)
        )
        try:
            generalized_color_swap(t)
        except SingularConfiguration:
            continue
        return t
    raise RuntimeError("could not draw a non-singular triple")


def verify_p_formulas(seed: int = 0, samples: int = 1000, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Closed-form campaign: the generalised colour-swap identity, the
    Euler-angle recomposition, both special-case side conditions, and the
    three degenerate pathways."""
    t0 = time.perf_counter()
    rep = VerificationReport("pformulas", seed)
    rep.lines.append(f"samples: {samples}")
    rng = random.Random(seed)

    def swap_identity():
        for _ in range(samples):
            t = _draw_swappable(rng)
            res = swap_residual(t, generalized_color_swap(t))
            yield res, not res > tol, lambda: repr(t)

    def recomposition():
        for _ in range(samples):
            t = EulerTriple(*(Phase.approx(rng.uniform(0, TWO_PI)) for _ in range(3)))
            v = equal_up_to_scalar(zxz_matrix(t), xzx_matrix(p_rule_angles(t)), tol)
            yield v.residual, v.equal, lambda: repr(t.radians)

    def oracle_consistency():
        for _ in range(samples):
            t = EulerTriple(*(Phase.approx(rng.uniform(0, TWO_PI)) for _ in range(3)))
            if degenerate_case(t) is not None:
                continue
            out = p_rule_angles(t)
            ext = euler_xzx_extract(zxz_matrix(t))
            gap = max(circular_distance(a, b) for a, b in zip(out.radians, ext.radians))
            yield gap, not gap > 1e-7, lambda: repr(t.radians)

    # constrained families stay off the degenerate sets: the ~1e-16 float
    # error in the angle constraint enters arg(z1) amplified by 1/|z1|
    def outer_gaps(sign, shift):
        for _ in range(max(200, samples // 5)):
            while True:
                a, b = rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)
                t = EulerTriple(Phase.approx(a), Phase.approx(b), Phase.approx(sign * a))
                if degenerate_case(t) is None and abs(chain_parameters(t)[1]) > 1e-5:
                    break
            out = p_rule_angles(t)
            gap = circular_distance(out.alpha.radians, shift + out.gamma.radians)
            yield gap, not gap > tol, lambda: repr((a, b))

    # a triple routed to the wrong pathway fails, but is not a case
    def degenerate(fam, mk):
        for _ in range(max(50, samples // 10)):
            t = EulerTriple(
                *(Phase.approx(x) for x in mk(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)))
            )
            if degenerate_case(t) != fam:
                rep.fail(f"degenerate routing {fam}", repr(t.radians), 1.0)
                continue
            v = equal_up_to_scalar(zxz_matrix(t), xzx_matrix(p_rule_angles(t)), tol)
            yield v.residual, v.equal, lambda: repr(t.radians)

    rep.tally("swap_identity", "residual", "lemma identity", swap_identity())
    rep.tally("recomposition", "residual", "recomposition", recomposition())
    rep.tally("oracle_consistency", "angle_gap", "oracle consistency", oracle_consistency())
    rep.tally("equal_outer_angles", "gap", "equal outer angles", outer_gaps(+1, 0.0))
    rep.tally("opposite_outer_angles", "gap", "opposite outer angles", outer_gaps(-1, math.pi))
    families = {
        "beta1=0": lambda a, g: (a, 0.0, g),
        "z1=0": lambda a, g: (a, math.pi, a),
        "z=0": lambda a, g: (a, math.pi, (a + math.pi) % TWO_PI),
    }
    for fam, mk in families.items():
        rep.tally(f"degenerate_{fam}", "residual", f"degenerate {fam}", degenerate(fam, mk))

    rep.wall_time = time.perf_counter() - t0
    return rep


# -- random circuits --------------------------------------------------------------


def random_clifford_t_circuit(
    rng: random.Random, width: int = 2, max_gates: int = 40
) -> Circuit:
    """A uniform-ish random Clifford+T circuit, used by the translation and
    simplifier campaigns: each gate's name is drawn from :data:`GATES` in
    its order, so that order fixes the draws."""
    names = tuple(GATES)
    gates = []
    for _ in range(rng.randrange(max_gates + 1)):
        name = rng.choice(names)
        if GATES[name].arity == 2:
            if width < 2:
                continue
            a, b = rng.sample(range(width), 2)
            gates.append(Gate(name, (a, b)))
        elif GATES[name].parametric:
            gates.append(Gate(name, (rng.randrange(width),), Phase.exact(rng.randrange(8), 4)))
        else:
            gates.append(Gate(name, (rng.randrange(width),)))
    return Circuit(width, tuple(gates))
