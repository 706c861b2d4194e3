"""Local rewrite rules on diagrams, with matching, traces and a simplifier.

Each rule reading (orientation), forward or reverse, states its
precondition once.  A candidate enumerator lists the sites (vertex-id
tuples) of the right shape in a deterministic order: vertices, wires, a
spider with one neighbour, vertex pairs or three-spider chains.  One
predicate, ``matches(d, site)``, is the whole precondition.  ``find`` is
the candidates the predicate accepts, in candidate order; ``rewrite``
raises :class:`RuleMatchError` unless the predicate holds, so a rejected
site leaves the diagram as it was, and then runs a transform that checks
nothing itself and rewrites in place.  ``apply`` is the value-semantic
form that rewrites a copy and returns it.  A rule's readings are called
as ``rule.forward`` and ``rule.reverse``; the rule's own ``find`` and
``apply`` are its forward reading's, held as fields so that a caller can
wrap them.  All registered rules are semantics-preserving up to a
nonzero scalar; ``scalar_free`` marks the ones that preserve the matrix
on the nose.

:func:`simplify` takes its step budget and its ``full`` switch as
keywords.  One function runs every core pass, the first one and each
speculative trial's: it matches, rewrites and spends the budget without
rescanning the diagram.  Its one heap of the sites where core rules match
is fed only from the diagram's touched-vertex log, and a trial's pass
starts from the vertices its move touched.  It takes the same steps, in
the same order, as a rescan of every rule's ``find`` would.

The registry holds the fifteen named rules.  Rules whose right-to-left
reading is canonical also carry a reverse orientation; readings that
would need extra parameters (unfusing a spider, un-copying states) are not
registered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from itertools import combinations
from typing import Callable, Iterator, Optional

from .diagram import Diagram, VertexKind, opposite
from .phase import Phase
from .phase_algebra import EulerTriple, p_rule_angles

Site = tuple[int, ...]

PI_HALF = Phase.exact(1, 2)


class RuleMatchError(ValueError):
    """The given site does not satisfy the rule's precondition."""


def _is_plain_spider(d: Diagram, v: int) -> bool:
    return v in d and d.is_spider(v)


def _complementary(d: Diagram, u: int, v: int) -> bool:
    """Two distinct spiders of opposite colours."""
    return u != v and _is_plain_spider(d, u) and _is_plain_spider(d, v) and d.kind(u) != d.kind(v)


# -- candidate sites: every site of the right shape, in a fixed order ------------


def _vertices(d: Diagram) -> list[Site]:
    return [(v,) for v in d.vertices()]


def _spiders(d: Diagram) -> list[Site]:
    return [(v,) for v in d.spiders()]


def _wires(d: Diagram) -> list[Site]:
    """``(u, v)``, u <= v, once per pair of adjacent vertices; a vertex
    with a self-loop gives ``(v, v)``."""
    return [(u, v) for u, v, _ in d.edges()]


def _directed_wires(d: Diagram) -> list[Site]:
    """Both orientations of each pair of adjacent distinct vertices."""
    return [s for u, v, _ in d.edges() if u != v for s in ((u, v), (v, u))]


def _leg_sites(d: Diagram) -> list[Site]:
    """``(p, v)`` for each spider ``p`` and each distinct neighbour ``v``."""
    return [(p, v) for p in d.spiders() for v in d.neighbors(p)]


def _vertex_pairs(d: Diagram) -> list[Site]:
    return list(combinations(d.vertices(), 2))


def _spiders_at(d: Diagram, vs) -> set[Site]:
    """The :func:`_spiders` sites on the vertices ``vs``."""
    return {(v,) for v in vs if v in d and d.is_spider(v)}


def _wires_at(d: Diagram, vs) -> set[Site]:
    """The :func:`_wires` sites that hold a vertex of ``vs``."""
    sites = set()
    for v in vs:
        if v in d:
            sites.update((v, w) if v < w else (w, v) for w in d.neighbors(v))
            if d.self_loops(v):
                sites.add((v, v))
    return sites


# the core rules' candidate enumerators, each with its form local to some vertices
_LOCAL = {_spiders: _spiders_at, _wires: _wires_at}


def _chain_sites(d: Diagram) -> list[Site]:
    """``(a, mid, b)`` for each spider ``mid`` with exactly two distinct
    neighbours ``a < b``."""
    out = []
    for mid in d.spiders():
        nbrs = d.neighbors(mid)
        if len(nbrs) == 2:
            out.append((nbrs[0], mid, nbrs[1]))
    return out


# -- spider fusion (S1) --------------------------------------------------------


def _spider(d: Diagram, site: Site) -> bool:
    (v,) = site
    return _is_plain_spider(d, v)


def _same_colour_pair(d: Diagram, site: Site) -> bool:
    """Two distinct adjacent spiders of one colour."""
    u, v = site
    return (
        u != v
        and u in d
        and d.edge_mult(u, v) >= 1
        and d.kind(u) == d.kind(v)
        and d.is_spider(u)
    )


def fuse_spiders(d: Diagram, site: Site) -> None:
    """Merge two adjacent same-colour spiders, adding their phases.

    The fusing wire disappears; any further parallel wires between the
    pair survive as self-loops on the merged spider.
    """
    u, v = site
    m = d.edge_mult(u, v)
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
    w = d.add_vertex(d.kind(v), Phase.zero())
    d.add_edge(v, w)


# -- identity removal (S2/S2') -------------------------------------------------


def _identity_spider(d: Diagram, site: Site) -> bool:
    """A zero-phase spider with two plain legs to distinct vertices."""
    (v,) = site
    return (
        _is_plain_spider(d, v)
        and d.phase(v).is_zero
        and d.self_loops(v) == 0
        and d.degree(v) == 2
        and len(d.neighbors(v)) == 2
    )


def remove_identity(d: Diagram, site: Site) -> None:
    """Delete a zero-phase degree-2 spider, joining its two neighbours."""
    (v,) = site
    d.splice(v)


def _wire(d: Diagram, site: Site) -> bool:
    """Two adjacent vertices (a neighbour of a vertex of ``d`` is in ``d``)."""
    u, v = site
    return u in d and d.edge_mult(u, v) >= 1


def _subdivide(d: Diagram, u: int, v: int, *chain: str, phase: Optional[Phase] = None) -> None:
    """Replace one wire ``u``-``v`` by a path through new vertices of the
    kinds in ``chain``, created in path order from ``u``; spiders get
    ``phase`` (zero if None).  :meth:`Diagram.splice` undoes one vertex."""
    d.remove_edge(u, v)
    path = [u, *(d.add_vertex(kind, phase) for kind in chain), v]
    for a, b in zip(path, path[1:]):
        d.add_edge(a, b)


def insert_identity(d: Diagram, site: Site, kind: str) -> None:
    """Reverse reading of S2/S2': put a zero-phase spider of ``kind`` on a wire."""
    _subdivide(d, *site, kind)


insert_identity_z = partial(insert_identity, kind=VertexKind.Z)
insert_identity_x = partial(insert_identity, kind=VertexKind.X)


# -- Hadamard cancellation (HH) ------------------------------------------------


def _hbox_pair(d: Diagram, site: Site) -> bool:
    """Two distinct adjacent H-boxes of degree 2."""
    h1, h2 = site
    return (
        h1 != h2
        and h1 in d
        and d.kind(h1) == VertexKind.H
        and d.edge_mult(h1, h2) >= 1
        and d.kind(h2) == VertexKind.H
        and d.degree(h1) == d.degree(h2) == 2
    )


def eliminate_hh(d: Diagram, site: Site) -> None:
    """Two H-boxes in series cancel: both are spliced out, so a pair
    joined by both wires leaves the scalar 2 of a closed wire."""
    for h in site:
        d.splice(h)


def insert_hh(d: Diagram, site: Site) -> None:
    _subdivide(d, *site, VertexKind.H, VertexKind.H)


# -- colour change (H2) --------------------------------------------------------


def color_change(d: Diagram, site: Site) -> None:
    """Flip a spider's colour and put an H-box on every leg."""
    (v,) = site
    for w in d.legs(v):
        _subdivide(d, v, w, VertexKind.H)
    for _ in range(d.self_loops(v)):
        _subdivide(d, v, v, VertexKind.H, VertexKind.H)
    d.set_kind(v, opposite(d.kind(v)))


# -- Hopf law (Hf) -------------------------------------------------------------


def _hopf_pair(d: Diagram, site: Site) -> bool:
    """Complementary spiders joined by at least two parallel wires."""
    u, v = site
    return u in d and d.edge_mult(u, v) >= 2 and _complementary(d, u, v)


def _complementary_pair(d: Diagram, site: Site) -> bool:
    u, v = site
    return _complementary(d, u, v)


def apply_hopf(d: Diagram, site: Site) -> None:
    """Delete two of the parallel wires between complementary spiders."""
    d.remove_edge(*site, 2)


def hopf_reverse(d: Diagram, site: Site) -> None:
    d.add_edge(*site, 2)


# -- trivial cycles (Cy) -------------------------------------------------------


def _looped_spider(d: Diagram, site: Site) -> bool:
    (v,) = site
    return v in d and d.self_loops(v) >= 1 and d.is_spider(v)


def apply_cycle(d: Diagram, site: Site) -> None:
    """Remove one plain self-loop from a spider (exact equality)."""
    (v,) = site
    d.remove_edge(v, v)


def add_loop(d: Diagram, site: Site) -> None:
    (v,) = site
    d.add_edge(v, v)


# -- points: copying (B1), absorbing a pi point (Nv); bialgebra (B2, B2v) --------


def _attached(d: Diagram, p: int, v: int) -> bool:
    """Spiders of opposite colours joined by one wire, neither with a
    self-loop."""
    return (
        _complementary(d, p, v)
        and d.edge_mult(p, v) == 1
        and d.self_loops(p) == d.self_loops(v) == 0
    )


def _zero_point(d: Diagram, site: Site) -> bool:
    """A zero-phase point on a zero-phase spider of the other colour."""
    s, v = site
    return _attached(d, s, v) and d.degree(s) == 1 and d.phase(s).is_zero and d.phase(v).is_zero


def _pi_point(d: Diagram, site: Site) -> bool:
    """A pi point on a spider of the other colour."""
    p, v = site
    return _attached(d, p, v) and d.degree(p) == 1 and d.phase(p).is_pi


def copy_point(d: Diagram, site: Site) -> None:
    """Remove the point ``p`` and the spider ``v``; a copy of ``p`` goes
    on every other leg of ``v``.  A zero point copies through a zero
    spider; a pi point is absorbed (its phase goes into the scalar)."""
    p, v = site
    kind, phase = d.kind(p), d.phase(p)
    legs = d.legs(v, p)
    d.remove_vertex(p)
    d.remove_vertex(v)
    for w in legs:
        d.add_edge(d.add_vertex(kind, phase), w)


def _bialgebra_pair(d: Diagram, site: Site) -> bool:
    """``(z, x)``: a zero-phase Z spider and a zero-phase X spider joined
    by one wire, neither with a self-loop."""
    z, x = site
    return (
        _attached(d, z, x)
        and d.kind(z) == VertexKind.Z
        and d.phase(z).is_zero
        and d.phase(x).is_zero
    )


def _bialgebra_square(d: Diagram, site: Site) -> bool:
    return _bialgebra_pair(d, site) and all(d.degree(v) == 3 for v in site)


def apply_bialgebra(d: Diagram, site: Site) -> None:
    """The commutation law ("the dots"): the pair unfolds into the
    complete bipartite graph over fresh spiders, the colours exchanged
    side for side.  B2 is its degree-3 instance, a square."""
    zv, xv = site
    z_legs, x_legs = d.legs(zv, xv), d.legs(xv, zv)
    d.remove_vertex(zv)
    d.remove_vertex(xv)
    new_x = []
    for w in z_legs:
        n = d.add_vertex(VertexKind.X, Phase.zero())
        d.add_edge(n, w)
        new_x.append(n)
    new_z = []
    for w in x_legs:
        n = d.add_vertex(VertexKind.Z, Phase.zero())
        d.add_edge(n, w)
        new_z.append(n)
    for a in new_x:
        for b in new_z:
            d.add_edge(a, b)


# -- pi commutation (N) -----------------------------------------------------------


def _pi_spider(d: Diagram, site: Site) -> bool:
    """A two-legged pi spider with one leg on a spider of the other colour."""
    p, v = site
    return _attached(d, p, v) and d.degree(p) == 2 and d.phase(p).is_pi


def push_pi(d: Diagram, site: Site) -> None:
    """Push a pi spider of one colour through a spider of the other: it
    moves to every other leg of the spider, whose phase is negated."""
    p, v = site
    pi_kind = d.kind(p)
    legs = d.legs(v, p)
    d.splice(p)
    for w in legs:
        _subdivide(d, v, w, pi_kind, phase=Phase.pi())
    d.set_phase(v, -d.phase(v))


# -- chains: Euler form of H (H1), colour-swap (P), quarter-turn chains (Hex) ---


def _chain(d: Diagram, site: Site) -> bool:
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


def _quarter_turns(d: Diagram, site: Site, nums=(1, 3)) -> bool:
    """All phases equal one exact n*pi/2 with n in ``nums``."""
    return any(all(d.phase(v).equals_exact(n, 2) for v in site) for n in nums)


def _quarter_chain(d: Diagram, site: Site) -> bool:
    return _chain(d, site) and _quarter_turns(d, site)


def _h_chain(d: Diagram, site: Site) -> bool:
    """A Z(pi/2) X(pi/2) Z(pi/2) chain."""
    return _chain(d, site) and d.kind(site[0]) == VertexKind.Z and _quarter_turns(d, site, (1,))


def _two_legged_hbox(d: Diagram, site: Site) -> bool:
    """An H-box whose legs reach distinct vertices."""
    (h,) = site
    return h in d and d.kind(h) == VertexKind.H and len(d.neighbors(h)) == 2


def apply_euler_h(d: Diagram, site: Site) -> None:
    """Expand an H-box into the quarter-turn chain Z(pi/2) X(pi/2) Z(pi/2)."""
    (h,) = site
    a, b = d.neighbors(h)
    d.splice(h)
    _subdivide(d, a, b, VertexKind.Z, VertexKind.X, VertexKind.Z, phase=PI_HALF)


def apply_h_from_chain(d: Diagram, site: Site) -> None:
    """Contract a Z(pi/2) X(pi/2) Z(pi/2) chain back into one H-box; a
    chain closed into a triangle becomes an H-box on a self-loop."""
    v1, v2, v3 = site
    (a,) = d.legs(v1, v2)
    (b,) = d.legs(v3, v2)
    for v in site:
        d.remove_vertex(v)
    h = d.add_vertex(VertexKind.H)
    if a == v3:
        d.add_edge(h, h)
    else:
        d.add_edge(a, h)
        d.add_edge(h, b)


def apply_hexagon(d: Diagram, site: Site) -> None:
    """Swap the colours of a quarter-turn chain: the two colour readings of
    Z(t) X(t) Z(t), t = +-pi/2, denote the same map (both are Hadamards up
    to phase)."""
    for v in site:
        d.set_kind(v, opposite(d.kind(v)))


def apply_p(d: Diagram, site: Site) -> None:
    """Colour-swap a three-spider phase chain, recomputing its angles.

    A chain Z(a1) X(b1) Z(g1) of degree-2 spiders becomes
    X(a2) Z(b2) X(g2) carrying the same map up to a nonzero scalar (and
    dually with the colours exchanged).  The new angles come from
    :func:`zxq.phase_algebra.p_rule_angles` and are radian-valued.
    """
    v1, v2, v3 = site
    triple = EulerTriple(d.phase(v1), d.phase(v2), d.phase(v3))
    res = p_rule_angles(triple)
    for v in site:
        d.set_kind(v, opposite(d.kind(v)))
    d.set_phase(v1, res.alpha)
    d.set_phase(v2, res.beta)
    d.set_phase(v3, res.gamma)


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Orientation:
    """One reading of a rule, forward or reverse.

    ``candidates`` lists every site of the right shape in a fixed order;
    ``matches`` is the reading's whole precondition; ``transform``
    rewrites in place at a site that matches and checks nothing itself.
    """

    candidates: Callable[[Diagram], list[Site]]
    matches: Callable[[Diagram, Site], bool]
    transform: Callable[[Diagram, Site], None]

    def find(self, d: Diagram) -> list[Site]:
        """The candidates that match, in candidate order."""
        matches = self.matches
        return [s for s in self.candidates(d) if matches(d, s)]

    def rewrite(self, d: Diagram, site: Site) -> None:
        """Rewrite ``d`` in place at ``site``; a site that does not match
        raises :class:`RuleMatchError` and leaves ``d`` as it was."""
        if not self.matches(d, site):
            raise RuleMatchError(f"site {site} fails {self.matches.__name__}")
        self.transform(d, site)

    def apply(self, d: Diagram, site: Site) -> Diagram:
        """The value-semantic form of :meth:`rewrite`: rewrite a copy.  The
        copy's touched-vertex log is switched on first, so the copy comes
        back with the log on, holding exactly what the rewrite changed."""
        out = d.copy()
        out.take_touched()
        self.rewrite(out, site)
        return out


@dataclass(frozen=True)
class RewriteRule:
    """A named rule: its forward orientation and, where the right-to-left
    reading is canonical, a reverse one.

    ``find`` and ``apply`` default to the forward orientation's own.  They
    are the rule's seams: the speculative pass of :func:`simplify` and the
    rule campaign call them, so ``dataclasses.replace`` may swap them for
    a wrapped callable that counts or times those calls and returns what
    the original returns (a trial reads the log of ``apply``'s copy).
    """

    name: str
    scalar_free: bool
    forward: Orientation
    reverse: Optional[Orientation] = None
    find: Optional[Callable[[Diagram], list[Site]]] = None
    apply: Optional[Callable[[Diagram, Site], Diagram]] = None

    def __post_init__(self) -> None:
        for part in ("find", "apply"):
            if getattr(self, part) is None:
                object.__setattr__(self, part, getattr(self.forward, part))


_REMOVE_IDENTITY = Orientation(_spiders, _identity_spider, remove_identity)
_COLOUR_CHANGE = Orientation(_spiders, _spider, color_change)
_PUSH_PI = Orientation(_leg_sites, _pi_spider, push_pi)
_SWAP_CHAIN = Orientation(_chain_sites, _chain, apply_p)
_HEXAGON = Orientation(_chain_sites, _quarter_chain, apply_hexagon)

RULES: dict[str, RewriteRule] = {
    r.name: r
    for r in (
        RewriteRule("S1", True, Orientation(_wires, _same_colour_pair, fuse_spiders),
                    Orientation(_spiders, _spider, unfuse_trivial)),
        RewriteRule("S2", True, _REMOVE_IDENTITY, Orientation(_wires, _wire, insert_identity_z)),
        RewriteRule("S2'", True, _REMOVE_IDENTITY, Orientation(_wires, _wire, insert_identity_x)),
        RewriteRule("B1", False, Orientation(_leg_sites, _zero_point, copy_point)),
        RewriteRule("B2", False, Orientation(_directed_wires, _bialgebra_square, apply_bialgebra)),
        RewriteRule("B2v", False, Orientation(_directed_wires, _bialgebra_pair, apply_bialgebra)),
        RewriteRule("H1", False, Orientation(_vertices, _two_legged_hbox, apply_euler_h),
                    Orientation(_chain_sites, _h_chain, apply_h_from_chain)),
        RewriteRule("H2", True, _COLOUR_CHANGE, _COLOUR_CHANGE),
        RewriteRule("N", False, _PUSH_PI, _PUSH_PI),
        RewriteRule("Nv", False, Orientation(_leg_sites, _pi_point, copy_point)),
        RewriteRule("P", False, _SWAP_CHAIN, _SWAP_CHAIN),
        RewriteRule("Hf", False, Orientation(_wires, _hopf_pair, apply_hopf),
                    Orientation(_vertex_pairs, _complementary_pair, hopf_reverse)),
        RewriteRule("Hex", True, _HEXAGON, _HEXAGON),
        RewriteRule("Cy", True, Orientation(_spiders, _looped_spider, apply_cycle),
                    Orientation(_spiders, _spider, add_loop)),
        RewriteRule("HH", True, Orientation(_wires, _hbox_pair, eliminate_hh),
                    Orientation(_wires, _wire, insert_hh)),
    )
}

CORE_SEQUENCE = ("S1", "S2", "HH", "Hf", "Cy")
OPTIONAL_SEQUENCE = ("H2", "P")


# -- simplification ---------------------------------------------------------------


@dataclass(frozen=True)
class RewriteStep:
    rule: str
    site: Site


@dataclass
class RewriteTrace:
    """The steps that took ``initial`` to ``final``.

    No digest is taken while rewriting: :meth:`digests` replays the steps
    once, when an export first needs them, and keeps only the digests.
    The replay rewrites one working copy, whose digest relabels only what
    each step touched.
    """

    initial: Diagram
    steps: list
    final: Diagram
    truncated: bool = False
    _digests: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    def _states(self) -> Iterator[Diagram]:
        """The initial diagram, then the diagram after each step.  One
        working copy is rewritten in place, so each state must be used
        before the next one is asked for.  The copy's touched-vertex log
        is on, so its digest keeps its labels from state to state."""
        g = self.initial.copy()
        g.take_touched()
        yield g
        for s in self.steps:
            RULES[s.rule].forward.rewrite(g, s.site)
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

    def replay(self) -> Diagram:
        """Re-run the recorded steps from the initial diagram and check
        that the result has the final diagram's digest."""
        for g in self._states():  # keep only the last state
            pass
        if g.digest() != self.final.digest():
            raise RuleMatchError("replay did not reproduce the final diagram")
        return g


def _run_core(d: Diagram, seeds, steps: list, budget: int) -> int:
    """Rewrite ``d`` in place with the first rule of :data:`CORE_SEQUENCE`
    that matches, at its first site, until none does or ``budget`` is spent;
    ``d``'s touched-vertex log must be on.  Each rewrite appends its step to
    ``steps`` and costs one unit.  Returns the budget left, negative if a
    match was left when it ran out.

    One heap of ``(rule index, site)`` is fed only from the sites around
    ``seeds`` and then around each rewrite's logged vertices.  A core
    predicate reads only its site's vertices and the wires between them,
    and every change to those is logged.  So when every matching site holds
    a seed (all vertices, or what one move touched on a core fixpoint), the
    heap holds every matching site, plus stale ones dropped at the top, and
    its top is the step a rescan of every rule's ``find`` would take.
    """
    rules = [RULES[name] for name in CORE_SEQUENCE]
    heap: list[tuple[int, Site]] = []
    while True:
        local: dict = {}
        for i, o in enumerate(rule.forward for rule in rules):
            if o.candidates not in local:
                local[o.candidates] = _LOCAL[o.candidates](d, seeds)
            for site in local[o.candidates]:
                if o.matches(d, site):
                    heappush(heap, (i, site))
        while heap and not rules[heap[0][0]].forward.matches(d, heap[0][1]):
            heappop(heap)
        if not heap:
            return budget
        budget -= 1
        if budget < 0:
            return budget
        i, site = heap[0]
        rules[i].forward.transform(d, site)
        steps.append(RewriteStep(rules[i].name, site))
        seeds = d.take_touched()


def diagram_cost(d: Diagram) -> tuple[int, int, int]:
    """Lexicographic cost: spiders, then wires, then H-boxes."""
    return (d.spider_count, d.n_edges, d.hbox_count)


def simplify(
    d: Diagram, *, step_budget: int = 10_000, full: bool = False
) -> tuple[Diagram, RewriteTrace]:
    """Reduce a diagram with a terminating priority loop.

    The core pass applies fusion, identity removal, HH-cancellation, the
    Hopf law and loop removal to a fixpoint; every core step strictly
    decreases :func:`diagram_cost`, so it terminates.  With ``full`` set,
    each colour-change and chain-swap candidate move is then applied
    speculatively, followed by a core fixpoint, and kept only if the cost
    strictly decreased (a plateau move is rejected so the loop cannot
    cycle).  ``step_budget`` bounds the total number of attempted
    applications and must be positive; exhausting it while work is left
    returns the best diagram so far with the trace marked truncated.

    The first core pass rewrites one working diagram in place; only each
    speculative move works on a copy, which a rejected move discards.
    Every core pass is one call of :func:`_run_core`, which shares the
    budget: the first is seeded with every vertex, a trial's with what its
    move touched (its copy comes from ``rule.apply`` with its log on).  The
    run is truncated when the budget ran out with work left, that is when
    it went negative.
    """
    if step_budget <= 0:
        raise ValueError("step budget must be positive")
    initial = d.copy()
    cur = d.copy()
    cur.take_touched()
    steps: list[RewriteStep] = []
    budget = _run_core(cur, cur.vertices(), steps, step_budget)

    while full and budget >= 0:
        base = diagram_cost(cur)
        # H2's moves, then P's; P's find runs only once every H2 move failed
        moves = ((r, s) for r in map(RULES.get, OPTIONAL_SEQUENCE) for s in r.find(cur))
        for rule, site in moves:
            budget -= 1
            if budget < 0:
                break
            trial = rule.apply(cur, site)
            tsteps = [RewriteStep(rule.name, site)]
            budget = _run_core(trial, trial.take_touched(), tsteps, budget)
            if diagram_cost(trial) < base:
                cur = trial
                steps.extend(tsteps)
                break
        else:
            break

    cur.stop_touched()  # nothing reads the log any more
    return cur, RewriteTrace(initial, steps, cur.copy(), budget < 0)
