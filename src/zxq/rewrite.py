"""Local rewrite rules on diagrams, with matching, traces and a simplifier.

Every rule is a matcher/transform pair.  Matchers return the list of sites
(vertex-id tuples) where the rule applies, in a deterministic order;
transforms rewrite a diagram in place at one site and return ``None``.
A transform checks its whole precondition before it mutates anything, so
a :class:`RuleMatchError` leaves the diagram as it was.  Each
:class:`RewriteRule` also carries ``apply``, the value-semantic form that
rewrites a copy and returns it.  All registered rules are
semantics-preserving up to a nonzero scalar; ``scalar_free`` marks the
ones that preserve the matrix on the nose.

The registry holds the fifteen named rules.  Rules whose right-to-left
reading is canonical also carry a reverse matcher/transform; readings that
would need extra parameters (unfusing a spider, un-copying states) are not
registered as functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional

from .diagram import Diagram, VertexKind, opposite
from .phase import Phase
from .phase_algebra import EulerTriple, p_rule_angles

Site = tuple[int, ...]

PI_HALF = Phase.exact(1, 2)


class RuleMatchError(ValueError):
    """The given site does not satisfy the rule's precondition."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise RuleMatchError(msg)


def _is_plain_spider(d: Diagram, v: int) -> bool:
    return v in d and d.is_spider(v)


def _complementary(d: Diagram, u: int, v: int) -> bool:
    """Two distinct spiders of opposite colours."""
    return u != v and _is_plain_spider(d, u) and _is_plain_spider(d, v) and d.kind(u) != d.kind(v)


def _legs(d: Diagram, v: int, skip: Optional[int] = None) -> list[int]:
    """The far end of each leg of ``v``, one entry per parallel wire, in
    neighbour order; self-loops and the wires to ``skip`` are left out."""
    return [w for w in d.neighbors(v) if w != skip for _ in range(d.edge_mult(v, w))]


def _edge_sites(d: Diagram, accept: Callable[[int, int, int], bool]) -> list[Site]:
    """``(u, v)``, u < v, for each pair of adjacent vertices joined by
    ``m`` wires with ``accept(u, v, m)``."""
    return [(u, v) for u, v, m in d.edges() if u != v and accept(u, v, m)]


# -- spider fusion (S1) --------------------------------------------------------


def find_fusable(d: Diagram) -> list[Site]:
    return _edge_sites(
        d, lambda u, v, m: d.is_spider(u) and d.is_spider(v) and d.kind(u) == d.kind(v)
    )


def fuse_spiders(d: Diagram, site: Site) -> None:
    """Merge two adjacent same-colour spiders, adding their phases.

    The fusing wire disappears; any further parallel wires between the
    pair survive as self-loops on the merged spider.
    """
    u, v = site
    _require(u != v, "cannot fuse a spider with itself")
    _require(_is_plain_spider(d, u) and _is_plain_spider(d, v), "site must be two spiders")
    _require(d.kind(u) == d.kind(v), "spider colours differ")
    m = d.edge_mult(u, v)
    _require(m >= 1, "spiders are not adjacent")

    d.remove_edge(u, v, m)
    if m > 1:
        d.add_edge(u, u, m - 1)
    for w in d.neighbors(v):
        mult = d.edge_mult(v, w)
        d.remove_edge(v, w, mult)
        d.add_edge(u, w, mult)
    loops = d.self_loops(v)
    if loops:
        d.add_edge(u, u, loops)
    d.set_phase(u, d.phase(u) + d.phase(v))
    d.remove_vertex(v)


def unfuse_trivial(d: Diagram, site: Site) -> None:
    """Reverse reading of fusion in its parameter-free form: sprout a
    connected zero-phase spider of the same colour."""
    (v,) = site
    _require(_is_plain_spider(d, v), "site must be a spider")
    w = d.add_vertex(d.kind(v), Phase.zero())
    d.add_edge(v, w)


# -- identity removal (S2/S2') -------------------------------------------------


def _is_identity(d: Diagram, v: int) -> bool:
    """The spider ``v`` has phase zero and two plain legs to distinct vertices."""
    return (
        d.phase(v).is_zero
        and d.degree(v) == 2
        and d.self_loops(v) == 0
        and len(d.neighbors(v)) == 2
    )


def find_identities(d: Diagram) -> list[Site]:
    return [(v,) for v in d.spiders() if _is_identity(d, v)]


def remove_identity(d: Diagram, site: Site) -> None:
    """Delete a zero-phase degree-2 spider, joining its two neighbours."""
    (v,) = site
    _require(
        _is_plain_spider(d, v) and _is_identity(d, v),
        "site must be a zero-phase spider with two legs to distinct vertices",
    )
    a, b = d.neighbors(v)
    d.remove_vertex(v)
    d.add_edge(a, b)


def insert_identity(d: Diagram, site: Site, kind: str) -> None:
    """Reverse reading of S2/S2': put a zero-phase spider of ``kind`` on a wire."""
    u, v = site
    _require(d.edge_mult(u, v) >= 1, "no edge at site")
    d.remove_edge(u, v)
    n = d.add_vertex(kind, Phase.zero())
    d.add_edge(u, n)
    d.add_edge(n, v)


insert_identity_z = partial(insert_identity, kind=VertexKind.Z)
insert_identity_x = partial(insert_identity, kind=VertexKind.X)


def find_wires(d: Diagram) -> list[Site]:
    return [(u, v) for u, v, _ in d.edges()]


# -- Hadamard cancellation (HH) ------------------------------------------------


def find_hh(d: Diagram) -> list[Site]:
    return _edge_sites(d, lambda u, v, m: d.kind(u) == d.kind(v) == VertexKind.H)


def eliminate_hh(d: Diagram, site: Site) -> None:
    """Two H-boxes in series cancel; their outer endpoints are joined.

    A pair joined by both wires is a closed 2-cycle with scalar value 2;
    it collapses to an isolated zero-phase spider carrying that scalar.
    """
    h1, h2 = site
    _require(h1 != h2, "need two distinct H-boxes")
    _require(
        h1 in d and h2 in d and d.kind(h1) == VertexKind.H and d.kind(h2) == VertexKind.H,
        "site must be two H-boxes",
    )
    m = d.edge_mult(h1, h2)
    _require(m >= 1, "H-boxes are not adjacent")
    _require(d.degree(h1) == 2 and d.degree(h2) == 2, "H-boxes must have degree 2")
    outer = _legs(d, h1, h2) + _legs(d, h2, h1)
    d.remove_vertex(h1)
    d.remove_vertex(h2)
    if m == 2:
        d.add_vertex(VertexKind.Z, Phase.zero())
    else:
        d.add_edge(*outer)


def insert_hh(d: Diagram, site: Site) -> None:
    u, v = site
    _require(d.edge_mult(u, v) >= 1, "no edge at site")
    d.remove_edge(u, v)
    g1 = d.add_vertex(VertexKind.H)
    g2 = d.add_vertex(VertexKind.H)
    d.add_edge(u, g1)
    d.add_edge(g1, g2)
    d.add_edge(g2, v)


# -- colour change (H2) --------------------------------------------------------


def find_spiders(d: Diagram) -> list[Site]:
    return [(v,) for v in d.spiders()]


def color_change(d: Diagram, site: Site) -> None:
    """Flip a spider's colour and put an H-box on every leg."""
    (v,) = site
    _require(_is_plain_spider(d, v), "site must be a spider")
    for w in _legs(d, v):
        d.remove_edge(v, w)
        h = d.add_vertex(VertexKind.H)
        d.add_edge(v, h)
        d.add_edge(h, w)
    for _ in range(d.self_loops(v)):
        d.remove_edge(v, v)
        h1 = d.add_vertex(VertexKind.H)
        h2 = d.add_vertex(VertexKind.H)
        d.add_edge(v, h1)
        d.add_edge(h1, h2)
        d.add_edge(h2, v)
    d.set_kind(v, opposite(d.kind(v)))


# -- Hopf law (Hf) -------------------------------------------------------------


def find_hopf(d: Diagram) -> list[Site]:
    return _edge_sites(d, lambda u, v, m: m >= 2 and _complementary(d, u, v))


def apply_hopf(d: Diagram, site: Site) -> None:
    """Delete two of the parallel wires between complementary spiders."""
    u, v = site
    _require(_complementary(d, u, v), "need two spiders of complementary colours")
    _require(d.edge_mult(u, v) >= 2, "need at least two parallel edges")
    d.remove_edge(u, v, 2)


def hopf_reverse(d: Diagram, site: Site) -> None:
    u, v = site
    _require(_complementary(d, u, v), "need two spiders of complementary colours")
    d.add_edge(u, v, 2)


def find_complementary_pairs(d: Diagram) -> list[Site]:
    out = []
    for u in d.spiders():
        for v in d.spiders():
            if u < v and d.kind(u) != d.kind(v):
                out.append((u, v))
    return out


# -- trivial cycles (Cy) -------------------------------------------------------


def find_loops(d: Diagram) -> list[Site]:
    return [(v,) for v in d.spiders() if d.self_loops(v) >= 1]


def apply_cycle(d: Diagram, site: Site) -> None:
    """Remove one plain self-loop from a spider (exact equality)."""
    (v,) = site
    _require(_is_plain_spider(d, v), "site must be a spider")
    _require(d.self_loops(v) >= 1, "spider has no self-loop")
    d.remove_edge(v, v)


def add_loop(d: Diagram, site: Site) -> None:
    (v,) = site
    _require(_is_plain_spider(d, v), "site must be a spider")
    d.add_edge(v, v)


# -- points: copying (B1) and absorbing a pi point (Nv) --------------------------


def _find_points(d: Diagram) -> list[Site]:
    """``(p, v)`` for each degree-1 spider ``p`` on a loop-free spider
    ``v`` of the other colour."""
    out = []
    for p in d.spiders():
        if d.degree(p) != 1:
            continue
        (v,) = d.neighbors(p)
        if d.is_spider(v) and d.kind(v) == opposite(d.kind(p)) and d.self_loops(v) == 0:
            out.append((p, v))
    return out


def _copy_point(d: Diagram, p: int, v: int) -> None:
    """Remove the point ``p`` and the spider ``v``; a copy of ``p`` goes
    on every other leg of ``v``."""
    kind, phase = d.kind(p), d.phase(p)
    legs = _legs(d, v, p)
    d.remove_vertex(p)
    d.remove_vertex(v)
    for w in legs:
        d.add_edge(d.add_vertex(kind, phase), w)


def find_copy(d: Diagram) -> list[Site]:
    return [(s, v) for s, v in _find_points(d) if d.phase(s).is_zero and d.phase(v).is_zero]


def apply_copy(d: Diagram, site: Site) -> None:
    """A zero-phase point of one colour copies through a zero-phase spider
    of the other colour, one copy per remaining leg."""
    s, v = site
    _require(_is_plain_spider(d, s) and _is_plain_spider(d, v), "need two spiders")
    _require(d.degree(s) == 1 and d.phase(s).is_zero, "copied state must be a zero point")
    _require(d.edge_mult(s, v) == 1, "state must be attached to the spider")
    _require(d.kind(v) == opposite(d.kind(s)) and d.phase(v).is_zero, "spider must be a zero spider of the other colour")
    _require(d.self_loops(v) == 0, "spider must have no self-loops")
    _copy_point(d, s, v)


# -- bialgebra (B2 and its variable-arity form) --------------------------------


def find_bialgebra_general(d: Diagram) -> list[Site]:
    """``(z, x)`` for each zero-phase, loop-free complementary pair joined
    by exactly one wire, Z spider first."""
    sites = _edge_sites(
        d,
        lambda u, v, m: m == 1
        and _complementary(d, u, v)
        and all(d.phase(w).is_zero and d.self_loops(w) == 0 for w in (u, v)),
    )
    return [(u, v) if d.kind(u) == VertexKind.Z else (v, u) for u, v in sites]


def find_bialgebra(d: Diagram) -> list[Site]:
    return [(z, x) for z, x in find_bialgebra_general(d) if d.degree(z) == 3 and d.degree(x) == 3]


def apply_bialgebra_general(d: Diagram, site: Site) -> None:
    """Variable-arity commutation law ("the dots"): a zero spider of each
    colour joined by one wire unfolds into the complete bipartite graph
    over fresh opposite-colour spiders."""
    zv, xv = site
    _require(_complementary(d, zv, xv), "need two spiders of complementary colours")
    _require(d.phase(zv).is_zero and d.phase(xv).is_zero, "both phases must be zero")
    _require(d.edge_mult(zv, xv) == 1, "spiders must share exactly one wire")
    _require(d.self_loops(zv) == 0 and d.self_loops(xv) == 0, "no self-loops allowed")
    z_kind, x_kind = d.kind(zv), d.kind(xv)
    z_legs, x_legs = _legs(d, zv, xv), _legs(d, xv, zv)
    d.remove_vertex(zv)
    d.remove_vertex(xv)
    new_x = []
    for w in z_legs:
        n = d.add_vertex(x_kind, Phase.zero())
        d.add_edge(n, w)
        new_x.append(n)
    new_z = []
    for w in x_legs:
        n = d.add_vertex(z_kind, Phase.zero())
        d.add_edge(n, w)
        new_z.append(n)
    for a in new_x:
        for b in new_z:
            d.add_edge(a, b)


def apply_bialgebra(d: Diagram, site: Site) -> None:
    """The degree-3 instance of the same law: the pair is replaced by a
    complete bipartite square of fresh spiders with the colours exchanged
    side for side."""
    _require(all(v in d and d.degree(v) == 3 for v in site), "both spiders must have degree 3")
    apply_bialgebra_general(d, site)


# -- pi commutation (N) and its point form (Nv) ---------------------------------


def find_pi(d: Diagram) -> list[Site]:
    out = []
    for p in d.spiders():
        if not d.phase(p).is_pi or d.degree(p) != 2 or d.self_loops(p) != 0:
            continue
        for v in d.neighbors(p):
            if (
                d.is_spider(v)
                and d.kind(v) == opposite(d.kind(p))
                and d.edge_mult(p, v) == 1
                and d.self_loops(v) == 0
            ):
                out.append((p, v))
    return out


def find_pi_state(d: Diagram) -> list[Site]:
    return [(p, v) for p, v in _find_points(d) if d.phase(p).is_pi]


def apply_pi(d: Diagram, site: Site) -> None:
    """Push a pi phase of one colour through a spider of the other.

    Degree-2 pi spider: it moves to every other leg of the spider and the
    spider's phase is negated.  Degree-1 pi point: it is absorbed, leaving
    a pi point on every other leg (the phase goes into the scalar).
    """
    p, v = site
    _require(_is_plain_spider(d, p) and _is_plain_spider(d, v), "need two spiders")
    _require(d.phase(p).is_pi, "moved spider must carry phase pi")
    _require(d.kind(v) == opposite(d.kind(p)), "colours must be complementary")
    _require(d.edge_mult(p, v) == 1, "pi spider must be attached by one wire")
    _require(d.self_loops(v) == 0 and d.self_loops(p) == 0, "no self-loops allowed")
    deg = d.degree(p)
    _require(deg in (1, 2), "pi spider must have degree 1 or 2")
    if deg == 1:
        _copy_point(d, p, v)
        return

    pi_kind = d.kind(p)
    (c,) = _legs(d, p, v)
    legs = _legs(d, v, p)
    d.remove_vertex(p)
    d.add_edge(c, v)
    for w in legs:
        d.remove_edge(v, w)
        n = d.add_vertex(pi_kind, Phase.pi())
        d.add_edge(v, n)
        d.add_edge(n, w)
    d.set_phase(v, -d.phase(v))


# -- chains: Euler form of H (H1), colour-swap (P), quarter-turn chains (Hex) ---


def _is_chain(d: Diagram, site: Site) -> bool:
    """Three distinct spiders with two plain legs each, alternating in
    colour and linked by single wires."""
    v1, v2, v3 = site
    return (
        len({v1, v2, v3}) == 3
        and all(_is_plain_spider(d, v) and d.degree(v) == 2 and d.self_loops(v) == 0 for v in site)
        and d.kind(v1) == d.kind(v3) == opposite(d.kind(v2))
        and d.edge_mult(v1, v2) == 1
        and d.edge_mult(v2, v3) == 1
    )


def _find_chains(d: Diagram, accept) -> list[Site]:
    out = []
    for mid in d.spiders():
        nbrs = d.neighbors(mid)
        if len(nbrs) == 2:
            site = (nbrs[0], mid, nbrs[1])
            if _is_chain(d, site) and accept(*(d.phase(v) for v in site)):
                out.append(site)
    return out


def _check_chain(d: Diagram, site: Site) -> None:
    _require(_is_chain(d, site), "site must be a chain of three alternating two-legged spiders")


def _quarter_turns(phases, nums=(1, 3)) -> bool:
    """All phases equal one exact n*pi/2 with n in ``nums``."""
    return any(all(p.equals_exact(n, 2) for p in phases) for n in nums)


def find_euler_h(d: Diagram) -> list[Site]:
    out = []
    for h in d.vertices():
        if d.kind(h) == VertexKind.H and len(d.neighbors(h)) == 2:
            out.append((h,))
    return out


def apply_euler_h(d: Diagram, site: Site) -> None:
    """Expand an H-box into the quarter-turn chain Z(pi/2) X(pi/2) Z(pi/2)."""
    (h,) = site
    _require(h in d and d.kind(h) == VertexKind.H, "site must be an H-box")
    nbrs = d.neighbors(h)
    _require(len(nbrs) == 2, "H-box legs must reach distinct vertices")
    a, b = nbrs
    d.remove_vertex(h)
    s1 = d.add_vertex(VertexKind.Z, PI_HALF)
    s2 = d.add_vertex(VertexKind.X, PI_HALF)
    s3 = d.add_vertex(VertexKind.Z, PI_HALF)
    d.add_edge(a, s1)
    d.add_edge(s1, s2)
    d.add_edge(s2, s3)
    d.add_edge(s3, b)


def find_h_chain(d: Diagram) -> list[Site]:
    chains = _find_chains(d, lambda *ps: _quarter_turns(ps, (1,)))
    return [s for s in chains if d.kind(s[0]) == VertexKind.Z]


def apply_h_from_chain(d: Diagram, site: Site) -> None:
    """Contract a Z(pi/2) X(pi/2) Z(pi/2) chain back into one H-box; a
    chain closed into a triangle becomes an H-box on a self-loop."""
    _check_chain(d, site)
    v1, v2, v3 = site
    _require(_quarter_turns([d.phase(v) for v in site], (1,)), "chain phases must all be pi/2")
    _require(d.kind(v1) == VertexKind.Z, "chain must be Z-X-Z")
    (a,) = _legs(d, v1, v2)
    (b,) = _legs(d, v3, v2)
    for v in site:
        d.remove_vertex(v)
    h = d.add_vertex(VertexKind.H)
    if a == v3:
        d.add_edge(h, h)
    else:
        d.add_edge(a, h)
        d.add_edge(h, b)


def find_hexagon(d: Diagram) -> list[Site]:
    return _find_chains(d, lambda *ps: _quarter_turns(ps))


def apply_hexagon(d: Diagram, site: Site) -> None:
    """Swap the colours of a quarter-turn chain: the two colour readings of
    Z(t) X(t) Z(t), t = +-pi/2, denote the same map (both are Hadamards up
    to phase)."""
    _check_chain(d, site)
    _require(
        _quarter_turns([d.phase(v) for v in site]),
        "chain phases must all be pi/2 or all be 3*pi/2",
    )
    for v in site:
        d.set_kind(v, opposite(d.kind(v)))


def find_p_chains(d: Diagram) -> list[Site]:
    return _find_chains(d, lambda *_: True)


def apply_p(d: Diagram, site: Site) -> None:
    """Colour-swap a three-spider phase chain, recomputing its angles.

    A chain Z(a1) X(b1) Z(g1) of degree-2 spiders becomes
    X(a2) Z(b2) X(g2) carrying the same map up to a nonzero scalar (and
    dually with the colours exchanged).  The new angles come from
    :func:`zxq.phase_algebra.p_rule_angles` and are radian-valued.
    """
    _check_chain(d, site)
    v1, v2, v3 = site
    triple = EulerTriple(d.phase(v1), d.phase(v2), d.phase(v3))
    res = p_rule_angles(triple)
    for v in site:
        d.set_kind(v, opposite(d.kind(v)))
    d.set_phase(v1, res.alpha)
    d.set_phase(v2, res.beta)
    d.set_phase(v3, res.gamma)


# -- registry -------------------------------------------------------------------


def _copying(rewrite: Callable[[Diagram, Site], None]) -> Callable[[Diagram, Site], Diagram]:
    """The value-semantic form of an in-place transform."""

    def apply(d: Diagram, site: Site) -> Diagram:
        out = d.copy()
        rewrite(out, site)
        return out

    return apply


@dataclass(frozen=True)
class RewriteRule:
    """A named rule: forward matcher/transform, optional canonical reverse.

    ``rewrite``/``rewrite_reverse`` transform a diagram in place;
    ``apply``/``apply_reverse`` default to their copying forms.
    """

    name: str
    find: Callable[[Diagram], list[Site]]
    rewrite: Callable[[Diagram, Site], None]
    scalar_free: bool
    find_reverse: Optional[Callable[[Diagram], list[Site]]] = None
    rewrite_reverse: Optional[Callable[[Diagram, Site], None]] = None
    apply: Optional[Callable[[Diagram, Site], Diagram]] = None
    apply_reverse: Optional[Callable[[Diagram, Site], Diagram]] = None

    def __post_init__(self) -> None:
        if self.apply is None:
            object.__setattr__(self, "apply", _copying(self.rewrite))
        if self.apply_reverse is None and self.rewrite_reverse is not None:
            object.__setattr__(self, "apply_reverse", _copying(self.rewrite_reverse))


RULES: dict[str, RewriteRule] = {
    r.name: r
    for r in (
        RewriteRule("S1", find_fusable, fuse_spiders, True, find_spiders, unfuse_trivial),
        RewriteRule("S2", find_identities, remove_identity, True, find_wires, insert_identity_z),
        RewriteRule("S2'", find_identities, remove_identity, True, find_wires, insert_identity_x),
        RewriteRule("B1", find_copy, apply_copy, False),
        RewriteRule("B2", find_bialgebra, apply_bialgebra, False),
        RewriteRule("B2v", find_bialgebra_general, apply_bialgebra_general, False),
        RewriteRule("H1", find_euler_h, apply_euler_h, False, find_h_chain, apply_h_from_chain),
        RewriteRule("H2", find_spiders, color_change, True, find_spiders, color_change),
        RewriteRule("N", find_pi, apply_pi, False, find_pi, apply_pi),
        RewriteRule("Nv", find_pi_state, apply_pi, False),
        RewriteRule("P", find_p_chains, apply_p, False, find_p_chains, apply_p),
        RewriteRule("Hf", find_hopf, apply_hopf, False, find_complementary_pairs, hopf_reverse),
        RewriteRule("Hex", find_hexagon, apply_hexagon, True, find_hexagon, apply_hexagon),
        RewriteRule("Cy", find_loops, apply_cycle, True, find_spiders, add_loop),
        RewriteRule("HH", find_hh, eliminate_hh, True, find_wires, insert_hh),
    )
}

CORE_SEQUENCE = ("S1", "S2", "HH", "Hf", "Cy")
OPTIONAL_SEQUENCE = ("H2", "P")


# -- simplification strategy -----------------------------------------------------


@dataclass(frozen=True)
class StrategyConfig:
    """Knobs for :func:`simplify`."""

    step_budget: int = 10_000
    enabled_rules: frozenset = frozenset(CORE_SEQUENCE)

    def __post_init__(self) -> None:
        if self.step_budget <= 0:
            raise ValueError("step budget must be positive")
        unknown = set(self.enabled_rules) - set(RULES)
        if unknown:
            raise ValueError(f"unknown rules: {sorted(unknown)}")


FULL_STRATEGY = StrategyConfig(enabled_rules=frozenset(CORE_SEQUENCE + OPTIONAL_SEQUENCE))


@dataclass(frozen=True)
class RewriteStep:
    rule: str
    site: Site
    scalar_free: bool


@dataclass
class RewriteTrace:
    """The steps that took ``initial`` to ``final``.

    No digest is taken while rewriting: :meth:`digests` replays the steps
    once, when an export first needs them, and keeps only the digests.
    """

    initial: Diagram
    steps: list
    final: Diagram
    truncated: bool = False
    _digests: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    def _states(self) -> Iterator[Diagram]:
        """The initial diagram, then the diagram after each step.  One
        working copy is rewritten in place, so each state must be used
        before the next one is asked for."""
        g = self.initial.copy()
        yield g
        for s in self.steps:
            RULES[s.rule].rewrite(g, s.site)
            yield g

    def digests(self) -> list[str]:
        """Digest of the initial diagram and of the state after each step."""
        if self._digests is None:
            self._digests = [g.digest() for g in self._states()]
        return self._digests

    def export_lines(self) -> list[str]:
        ds = self.digests()
        return [
            f"{s.rule} @ {list(s.site)} digest:{ds[i]}->{ds[i + 1]}"
            for i, s in enumerate(self.steps)
        ]

    def replay(self, strict: bool = True) -> Diagram:
        """Re-run the recorded steps from the initial diagram; ``strict``
        checks that the result has the final diagram's digest."""
        for g in self._states():  # keep only the last state
            pass
        if strict and g.digest() != self.final.digest():
            raise RuleMatchError("replay did not reproduce the final diagram")
        return g


def diagram_cost(d: Diagram) -> tuple[int, int, int]:
    """Lexicographic cost: spiders, then wires, then H-boxes."""
    return (d.spider_count, d.n_edges, d.hbox_count)


def simplify(d: Diagram, config: StrategyConfig | None = None) -> tuple[Diagram, RewriteTrace]:
    """Reduce a diagram with a terminating priority loop.

    The core pass applies fusion, identity removal, HH-cancellation, the
    Hopf law and loop removal to a fixpoint; every core step strictly
    decreases :func:`diagram_cost`, so it terminates.  When colour-change
    or chain-swap passes are enabled, each candidate move is applied
    speculatively, followed by a core fixpoint, and kept only if the cost
    strictly decreased (a plateau move is rejected so the loop cannot
    cycle).  The step budget bounds the total number of attempted
    applications; exhausting it returns the best diagram so far with the
    trace marked truncated.

    The core pass rewrites one working diagram in place; only each
    speculative move works on a copy, which a rejected move discards.
    """
    cfg = config if config is not None else StrategyConfig()
    initial = d.copy()
    cur = d.copy()
    steps: list[RewriteStep] = []
    budget = cfg.step_budget
    truncated = False

    def first_core_match(g: Diagram):
        for name in CORE_SEQUENCE:
            if name not in cfg.enabled_rules:
                continue
            sites = RULES[name].find(g)
            if sites:
                return RULES[name], sites[0]
        return None

    def run_core(g: Diagram, acc: list) -> None:
        nonlocal budget, truncated
        while True:
            m = first_core_match(g)
            if m is None:
                return
            if budget <= 0:
                truncated = True
                return
            rule, site = m
            rule.rewrite(g, site)
            acc.append(RewriteStep(rule.name, site, rule.scalar_free))
            budget -= 1

    run_core(cur, steps)

    optional = [n for n in OPTIONAL_SEQUENCE if n in cfg.enabled_rules]
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
                tsteps = [RewriteStep(rule.name, site, rule.scalar_free)]
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
