"""Shared hypothesis strategies for random phases and small diagrams."""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st

from zxq.diagram import SPIDER_KINDS, Diagram, VertexKind
from zxq.phase import Phase

# the same examples on every run, so a tier-1 result does not depend on
# the draw or on a local example database
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def assert_well_formed(d: Diagram) -> None:
    """The invariants that the mutators keep and :meth:`Diagram.validate`
    leaves unchecked: every spider has a phase, every adjacency key is a
    vertex, and each port list holds every vertex of its kind, once."""
    vs = d.vertices()
    assert all(v in d._phases for v in vs if d.kind(v) in SPIDER_KINDS)
    assert sorted(d._adj) == vs and all(w in d for c in d._adj.values() for w in c)
    for ports, kind in ((d._inputs, VertexKind.IN), (d._outputs, VertexKind.OUT)):
        assert sorted(ports) == [v for v in vs if d.kind(v) == kind], kind


@st.composite
def exact_phases(draw):
    num = draw(st.integers(min_value=-16, max_value=16))
    den = draw(st.integers(min_value=1, max_value=8))
    return Phase.exact(num, den)


@st.composite
def approx_phases(draw):
    r = draw(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    return Phase.approx(r)


def phases():
    return st.one_of(exact_phases(), approx_phases())


@st.composite
def clifford_t_phases(draw):
    return Phase.exact(draw(st.integers(min_value=0, max_value=7)), 4)


@st.composite
def small_diagrams(draw, max_spiders: int = 4, max_ports: int = 3):
    """A random valid diagram with a handful of spiders and bounded wires.

    Spiders and boundaries are wired at random; a few plain wires are then
    upgraded to H-boxes, which keeps the degree-2 invariant by construction.
    """
    d = Diagram()
    n_spiders = draw(st.integers(min_value=0, max_value=max_spiders))
    spiders = []
    for _ in range(n_spiders):
        kind = draw(st.sampled_from((VertexKind.Z, VertexKind.X)))
        spiders.append(d.add_vertex(kind, draw(phases())))

    n_in = draw(st.integers(min_value=0, max_value=max_ports))
    n_out = draw(st.integers(min_value=0, max_value=max_ports))
    for make, n in ((d.add_input, n_in), (d.add_output, n_out)):
        for _ in range(n):
            b = make()
            if spiders:
                d.add_edge(b, draw(st.sampled_from(spiders)))
            else:
                other = d.add_output() if make is d.add_input else d.add_input()
                d.add_edge(b, other)

    if len(spiders) >= 2:
        n_extra = draw(st.integers(min_value=0, max_value=4))
        for _ in range(n_extra):
            u = draw(st.sampled_from(spiders))
            v = draw(st.sampled_from(spiders))
            d.add_edge(u, v)

    # upgrade some spider-spider wires to H-boxes
    upgradable = [(u, v) for u, v, _ in d.edges() if d.is_spider(u) and d.is_spider(v) and u != v]
    for u, v in upgradable:
        if draw(st.booleans()):
            d.remove_edge(u, v)
            h = d.add_vertex(VertexKind.H)
            d.add_edge(u, h)
            d.add_edge(h, v)
    d.validate()
    assert_well_formed(d)
    return d
