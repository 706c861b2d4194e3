"""Local rewrite rules on diagrams, with matching, traces and a simplifier.

Every rule is a matcher/transform pair.  Matchers return the list of sites
(vertex-id tuples) where the rule applies, in a deterministic order;
transforms take a diagram and one site and return the rewritten copy.
All registered rules are semantics-preserving up to a nonzero scalar;
``scalar_free`` marks the ones that preserve the matrix on the nose.

The registry holds the fifteen named rules.  Rules whose right-to-left
reading is canonical also carry a reverse matcher/transform; readings that
would need extra parameters (unfusing a spider, un-copying states) are not
registered as functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .diagram import Diagram, VertexKind, opposite
from .phase import Phase, phase_add
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


# -- spider fusion (S1) --------------------------------------------------------


def find_fusable(d: Diagram) -> list[Site]:
    out = []
    for u, v, _ in d.edges():
        if u != v and d.is_spider(u) and d.is_spider(v) and d.kind(u) == d.kind(v):
            out.append((u, v))
    return out


def fuse_spiders(d: Diagram, site: Site) -> Diagram:
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

    out = d.copy()
    out.remove_edge(u, v, m)
    if m > 1:
        out.add_edge(u, u, m - 1)
    for w in out.neighbors(v):
        mult = out.edge_mult(v, w)
        out.remove_edge(v, w, mult)
        out.add_edge(u, w, mult)
    loops = out.self_loops(v)
    if loops:
        out.add_edge(u, u, loops)
    out.set_phase(u, phase_add(d.phase(u), d.phase(v)))
    out.remove_vertex(v)
    return out


def unfuse_trivial(d: Diagram, site: Site) -> Diagram:
    """Reverse reading of fusion in its parameter-free form: sprout a
    connected zero-phase spider of the same colour."""
    (v,) = site
    _require(_is_plain_spider(d, v), "site must be a spider")
    out = d.copy()
    w = out.add_vertex(out.kind(v), Phase.zero())
    out.add_edge(v, w)
    return out


# -- identity removal (S2/S2') -------------------------------------------------


def find_identities(d: Diagram) -> list[Site]:
    out = []
    for v in d.spiders():
        if (
            d.phase(v).is_zero
            and d.degree(v) == 2
            and d.self_loops(v) == 0
            and len(d.neighbors(v)) == 2
        ):
            out.append((v,))
    return out


def remove_identity(d: Diagram, site: Site) -> Diagram:
    """Delete a zero-phase degree-2 spider, joining its two neighbours."""
    (v,) = site
    _require(_is_plain_spider(d, v), "site must be a spider")
    _require(d.phase(v).is_zero, "phase must be exactly zero")
    _require(d.degree(v) == 2 and d.self_loops(v) == 0, "spider must have two plain legs")
    nbrs = d.neighbors(v)
    _require(len(nbrs) == 2, "both legs must reach distinct vertices")
    a, b = nbrs
    out = d.copy()
    out.remove_vertex(v)
    out.add_edge(a, b)
    return out


def _insert_identity(d: Diagram, site: Site, kind: str) -> Diagram:
    u, v = site
    _require(d.edge_mult(u, v) >= 1, "no edge at site")
    out = d.copy()
    out.remove_edge(u, v)
    n = out.add_vertex(kind, Phase.zero())
    out.add_edge(u, n)
    out.add_edge(n, v)
    return out


def find_wires(d: Diagram) -> list[Site]:
    return [(u, v) for u, v, _ in d.edges()]


def insert_identity_z(d: Diagram, site: Site) -> Diagram:
    return _insert_identity(d, site, VertexKind.Z)


def insert_identity_x(d: Diagram, site: Site) -> Diagram:
    return _insert_identity(d, site, VertexKind.X)


# -- Hadamard cancellation (HH) ------------------------------------------------


def find_hh(d: Diagram) -> list[Site]:
    out = []
    for u, v, _ in d.edges():
        if u != v and d.kind(u) == VertexKind.H and d.kind(v) == VertexKind.H:
            out.append((u, v))
    return out


def eliminate_hh(d: Diagram, site: Site) -> Diagram:
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
    out = d.copy()
    if m == 2:
        out.remove_vertex(h1)
        out.remove_vertex(h2)
        out.add_vertex(VertexKind.Z, Phase.zero())
        return out
    a = next(w for w in out.neighbors(h1) if w != h2)
    b = next(w for w in out.neighbors(h2) if w != h1)
    out.remove_vertex(h1)
    out.remove_vertex(h2)
    out.add_edge(a, b)
    return out


def insert_hh(d: Diagram, site: Site) -> Diagram:
    u, v = site
    _require(d.edge_mult(u, v) >= 1, "no edge at site")
    out = d.copy()
    out.remove_edge(u, v)
    g1 = out.add_vertex(VertexKind.H)
    g2 = out.add_vertex(VertexKind.H)
    out.add_edge(u, g1)
    out.add_edge(g1, g2)
    out.add_edge(g2, v)
    return out


# -- colour change (H2) --------------------------------------------------------


def find_spiders(d: Diagram) -> list[Site]:
    return [(v,) for v in d.spiders()]


def color_change(d: Diagram, site: Site) -> Diagram:
    """Flip a spider's colour and put an H-box on every leg."""
    (v,) = site
    _require(_is_plain_spider(d, v), "site must be a spider")
    out = d.copy()
    for w in out.neighbors(v):
        for _ in range(out.edge_mult(v, w)):
            out.remove_edge(v, w)
            h = out.add_vertex(VertexKind.H)
            out.add_edge(v, h)
            out.add_edge(h, w)
    for _ in range(out.self_loops(v)):
        out.remove_edge(v, v)
        h1 = out.add_vertex(VertexKind.H)
        h2 = out.add_vertex(VertexKind.H)
        out.add_edge(v, h1)
        out.add_edge(h1, h2)
        out.add_edge(h2, v)
    out.set_kind(v, opposite(d.kind(v)))
    return out


# -- Hopf law (Hf) -------------------------------------------------------------


def find_hopf(d: Diagram) -> list[Site]:
    out = []
    for u, v, m in d.edges():
        if (
            u != v
            and m >= 2
            and d.is_spider(u)
            and d.is_spider(v)
            and d.kind(u) != d.kind(v)
        ):
            out.append((u, v))
    return out


def apply_hopf(d: Diagram, site: Site) -> Diagram:
    """Delete two of the parallel wires between complementary spiders."""
    u, v = site
    _require(u != v and _is_plain_spider(d, u) and _is_plain_spider(d, v), "need two spiders")
    _require(d.kind(u) != d.kind(v), "spiders must have complementary colours")
    _require(d.edge_mult(u, v) >= 2, "need at least two parallel edges")
    out = d.copy()
    out.remove_edge(u, v, 2)
    return out


def hopf_reverse(d: Diagram, site: Site) -> Diagram:
    u, v = site
    _require(u != v and _is_plain_spider(d, u) and _is_plain_spider(d, v), "need two spiders")
    _require(d.kind(u) != d.kind(v), "spiders must have complementary colours")
    out = d.copy()
    out.add_edge(u, v, 2)
    return out


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


def apply_cycle(d: Diagram, site: Site) -> Diagram:
    """Remove one plain self-loop from a spider (exact equality)."""
    (v,) = site
    _require(_is_plain_spider(d, v), "site must be a spider")
    _require(d.self_loops(v) >= 1, "spider has no self-loop")
    out = d.copy()
    out.remove_edge(v, v)
    return out


def add_loop(d: Diagram, site: Site) -> Diagram:
    (v,) = site
    _require(_is_plain_spider(d, v), "site must be a spider")
    out = d.copy()
    out.add_edge(v, v)
    return out


# -- copying (B1) and bialgebra (B2 and its variable-arity form) ---------------


def find_copy(d: Diagram) -> list[Site]:
    out = []
    for s in d.spiders():
        if d.degree(s) != 1 or not d.phase(s).is_zero:
            continue
        (v,) = d.neighbors(s)
        if (
            d.is_spider(v)
            and d.kind(v) == opposite(d.kind(s))
            and d.phase(v).is_zero
            and d.self_loops(v) == 0
        ):
            out.append((s, v))
    return out


def apply_copy(d: Diagram, site: Site) -> Diagram:
    """A zero-phase point of one colour copies through a zero-phase spider
    of the other colour, one copy per remaining leg."""
    s, v = site
    _require(_is_plain_spider(d, s) and _is_plain_spider(d, v), "need two spiders")
    _require(d.degree(s) == 1 and d.phase(s).is_zero, "copied state must be a zero point")
    _require(d.edge_mult(s, v) == 1, "state must be attached to the spider")
    _require(d.kind(v) == opposite(d.kind(s)) and d.phase(v).is_zero, "spider must be a zero spider of the other colour")
    _require(d.self_loops(v) == 0, "spider must have no self-loops")
    copy_kind = d.kind(s)
    out = d.copy()
    legs = [(w, out.edge_mult(v, w)) for w in out.neighbors(v) if w != s]
    out.remove_vertex(s)
    out.remove_vertex(v)
    for w, mult in legs:
        for _ in range(mult):
            n = out.add_vertex(copy_kind, Phase.zero())
            out.add_edge(n, w)
    return out


def _bialgebra(d: Diagram, site: Site, fixed_arity: bool) -> Diagram:
    zv, xv = site
    _require(_is_plain_spider(d, zv) and _is_plain_spider(d, xv), "need two spiders")
    _require(d.kind(zv) != d.kind(xv), "spiders must have complementary colours")
    _require(d.phase(zv).is_zero and d.phase(xv).is_zero, "both phases must be zero")
    _require(d.edge_mult(zv, xv) == 1, "spiders must share exactly one wire")
    _require(d.self_loops(zv) == 0 and d.self_loops(xv) == 0, "no self-loops allowed")
    if fixed_arity:
        _require(d.degree(zv) == 3 and d.degree(xv) == 3, "both spiders must have degree 3")

    out = d.copy()
    z_kind, x_kind = d.kind(zv), d.kind(xv)
    z_legs = [w for w in out.neighbors(zv) if w != xv for _ in range(out.edge_mult(zv, w))]
    x_legs = [w for w in out.neighbors(xv) if w != zv for _ in range(out.edge_mult(xv, w))]
    out.remove_vertex(zv)
    out.remove_vertex(xv)
    new_x = []
    for w in z_legs:
        n = out.add_vertex(x_kind, Phase.zero())
        out.add_edge(n, w)
        new_x.append(n)
    new_z = []
    for w in x_legs:
        n = out.add_vertex(z_kind, Phase.zero())
        out.add_edge(n, w)
        new_z.append(n)
    for a in new_x:
        for b in new_z:
            out.add_edge(a, b)
    return out


def find_bialgebra(d: Diagram) -> list[Site]:
    return [
        (u, v) if d.kind(u) == VertexKind.Z else (v, u)
        for u, v in find_bialgebra_general_sites(d)
        if d.degree(u) == 3 and d.degree(v) == 3
    ]


def find_bialgebra_general_sites(d: Diagram) -> list[Site]:
    out = []
    for u, v, m in d.edges():
        if (
            u != v
            and m == 1
            and d.is_spider(u)
            and d.is_spider(v)
            and d.kind(u) != d.kind(v)
            and d.phase(u).is_zero
            and d.phase(v).is_zero
            and d.self_loops(u) == 0
            and d.self_loops(v) == 0
        ):
            out.append((u, v))
    return out


def find_bialgebra_general(d: Diagram) -> list[Site]:
    return [
        (u, v) if d.kind(u) == VertexKind.Z else (v, u)
        for u, v in find_bialgebra_general_sites(d)
    ]


def apply_bialgebra(d: Diagram, site: Site) -> Diagram:
    """The degree-3 commutation pattern between complementary zero spiders:
    the pair is replaced by a complete bipartite square of fresh spiders
    with the colours exchanged side for side."""
    return _bialgebra(d, site, fixed_arity=True)


def apply_bialgebra_general(d: Diagram, site: Site) -> Diagram:
    """Variable-arity form of the same commutation law ("the dots"):
    a zero spider of each colour joined by one wire unfolds into the
    complete bipartite graph over fresh opposite-colour spiders."""
    return _bialgebra(d, site, fixed_arity=False)


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
    out = []
    for p in d.spiders():
        if not d.phase(p).is_pi or d.degree(p) != 1:
            continue
        (v,) = d.neighbors(p)
        if d.is_spider(v) and d.kind(v) == opposite(d.kind(p)) and d.self_loops(v) == 0:
            out.append((p, v))
    return out


def apply_pi(d: Diagram, site: Site) -> Diagram:
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
    pi_kind = d.kind(p)
    out = d.copy()

    if deg == 2:
        c = next(w for w in out.neighbors(p) if w != v)
        legs = [(w, out.edge_mult(v, w)) for w in out.neighbors(v) if w != p]
        out.remove_vertex(p)
        out.add_edge(c, v)
        for w, mult in legs:
            for _ in range(mult):
                out.remove_edge(v, w)
                n = out.add_vertex(pi_kind, Phase.pi())
                out.add_edge(v, n)
                out.add_edge(n, w)
        out.set_phase(v, -d.phase(v))
        return out

    legs = [(w, out.edge_mult(v, w)) for w in out.neighbors(v) if w != p]
    out.remove_vertex(p)
    out.remove_vertex(v)
    for w, mult in legs:
        for _ in range(mult):
            n = out.add_vertex(pi_kind, Phase.pi())
            out.add_edge(n, w)
    return out


# -- chains: Euler form of H (H1), colour-swap (P), quarter-turn chains (Hex) ---


def _find_chains(d: Diagram, accept) -> list[Site]:
    out = []
    for mid in d.spiders():
        if d.degree(mid) != 2 or d.self_loops(mid) != 0:
            continue
        nbrs = d.neighbors(mid)
        if len(nbrs) != 2:
            continue
        a, b = nbrs
        ok = True
        for end in (a, b):
            if (
                not d.is_spider(end)
                or d.kind(end) != opposite(d.kind(mid))
                or d.degree(end) != 2
                or d.self_loops(end) != 0
                or d.edge_mult(end, mid) != 1
            ):
                ok = False
        if ok and accept(d.phase(a), d.phase(mid), d.phase(b)):
            out.append((a, mid, b))
    return out


def _check_chain(d: Diagram, site: Site) -> None:
    v1, v2, v3 = site
    _require(len({v1, v2, v3}) == 3, "chain vertices must be distinct")
    for v in site:
        _require(_is_plain_spider(d, v), "chain vertices must be spiders")
        _require(d.degree(v) == 2 and d.self_loops(v) == 0, "chain vertices must have two plain legs")
    _require(
        d.kind(v1) == d.kind(v3) == opposite(d.kind(v2)),
        "chain colours must alternate",
    )
    _require(
        d.edge_mult(v1, v2) == 1 and d.edge_mult(v2, v3) == 1,
        "chain links must be single wires",
    )


def find_euler_h(d: Diagram) -> list[Site]:
    out = []
    for h in d.vertices():
        if d.kind(h) == VertexKind.H and len(d.neighbors(h)) == 2:
            out.append((h,))
    return out


def apply_euler_h(d: Diagram, site: Site) -> Diagram:
    """Expand an H-box into the quarter-turn chain Z(pi/2) X(pi/2) Z(pi/2)."""
    (h,) = site
    _require(h in d and d.kind(h) == VertexKind.H, "site must be an H-box")
    nbrs = d.neighbors(h)
    _require(len(nbrs) == 2, "H-box legs must reach distinct vertices")
    a, b = nbrs
    out = d.copy()
    out.remove_vertex(h)
    s1 = out.add_vertex(VertexKind.Z, PI_HALF)
    s2 = out.add_vertex(VertexKind.X, PI_HALF)
    s3 = out.add_vertex(VertexKind.Z, PI_HALF)
    out.add_edge(a, s1)
    out.add_edge(s1, s2)
    out.add_edge(s2, s3)
    out.add_edge(s3, b)
    return out


def find_h_chain(d: Diagram) -> list[Site]:
    def accept(p1: Phase, p2: Phase, p3: Phase) -> bool:
        return all(p.equals_exact(1, 2) for p in (p1, p2, p3))

    return [s for s in _find_chains(d, accept) if d.kind(s[0]) == VertexKind.Z]


def apply_h_from_chain(d: Diagram, site: Site) -> Diagram:
    """Contract a Z(pi/2) X(pi/2) Z(pi/2) chain back into one H-box."""
    _check_chain(d, site)
    v1, v2, v3 = site
    for v in site:
        _require(d.phase(v).equals_exact(1, 2), "chain phases must all be pi/2")
    _require(d.kind(v1) == VertexKind.Z, "chain must be Z-X-Z")
    out = d.copy()
    outer1 = [w for w in out.neighbors(v1) if w != v2]
    outer3 = [w for w in out.neighbors(v3) if w != v2]
    closed = not outer1  # triangle: the chain closes on itself
    out.remove_vertex(v1)
    out.remove_vertex(v2)
    out.remove_vertex(v3)
    h = out.add_vertex(VertexKind.H)
    if closed:
        out.add_edge(h, h)
    else:
        out.add_edge(outer1[0], h)
        out.add_edge(h, outer3[0])
    return out


def find_hexagon(d: Diagram) -> list[Site]:
    def accept(p1: Phase, p2: Phase, p3: Phase) -> bool:
        return (
            all(p.equals_exact(1, 2) for p in (p1, p2, p3))
            or all(p.equals_exact(3, 2) for p in (p1, p2, p3))
        )

    return _find_chains(d, accept)


def apply_hexagon(d: Diagram, site: Site) -> Diagram:
    """Swap the colours of a quarter-turn chain: the two colour readings of
    Z(t) X(t) Z(t), t = +-pi/2, denote the same map (both are Hadamards up
    to phase)."""
    _check_chain(d, site)
    same = all(
        d.phase(v).equals_exact(1, 2) for v in site
    ) or all(d.phase(v).equals_exact(3, 2) for v in site)
    _require(same, "chain phases must all be pi/2 or all be 3*pi/2")
    out = d.copy()
    for v in site:
        out.set_kind(v, opposite(d.kind(v)))
    return out


def find_p_chains(d: Diagram) -> list[Site]:
    return _find_chains(d, lambda *_: True)


def apply_p(d: Diagram, site: Site) -> Diagram:
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
    out = d.copy()
    for v in site:
        out.set_kind(v, opposite(d.kind(v)))
    out.set_phase(v1, res.alpha)
    out.set_phase(v2, res.beta)
    out.set_phase(v3, res.gamma)
    return out


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class RewriteRule:
    """A named rule: forward matcher/transform, optional canonical reverse."""

    name: str
    find: Callable[[Diagram], list[Site]]
    apply: Callable[[Diagram, Site], Diagram]
    scalar_free: bool
    find_reverse: Optional[Callable[[Diagram], list[Site]]] = None
    apply_reverse: Optional[Callable[[Diagram, Site], Diagram]] = None


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
    tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.step_budget <= 0:
            raise ValueError("step budget must be positive")
        if not (0.0 < self.tolerance <= 1e-3):
            raise ValueError("tolerance must be in (0, 1e-3]")
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
        """The initial diagram, then the diagram after each step."""
        g = self.initial.copy()
        yield g
        for s in self.steps:
            g = RULES[s.rule].apply(g, s.site)
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

    def run_core(g: Diagram, acc: list) -> Diagram:
        nonlocal budget, truncated
        while True:
            m = first_core_match(g)
            if m is None:
                return g
            if budget <= 0:
                truncated = True
                return g
            rule, site = m
            g = rule.apply(g, site)
            acc.append(RewriteStep(rule.name, site, rule.scalar_free))
            budget -= 1

    cur = run_core(cur, steps)

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
                trial = run_core(trial, tsteps)
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
