"""Open multigraphs of phased spiders, Hadamard boxes and ordered boundaries.

A diagram is an undirected multigraph (parallel edges and self-loops are
both meaningful and preserved) whose vertices are Z- or X-spiders carrying
a phase, degree-2 Hadamard boxes, or degree-1 boundary vertices.  Boundary
order fixes the qubit ports: input/output k is the k-th entry of the
corresponding list.  Only connectivity and those orders matter; vertex
identities are irrelevant, which is what :meth:`Diagram.iso_equal` checks.

Diagrams are value-semantic: operations return fresh diagrams or mutate an
exclusively held instance.  There is no shared global state.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .phase import Phase

if TYPE_CHECKING:
    import networkx as nx


class VertexKind:
    """Vertex kind tags (also the on-disk names)."""

    Z = "Z"
    X = "X"
    H = "H"
    IN = "in"
    OUT = "out"


SPIDER_KINDS = frozenset((VertexKind.Z, VertexKind.X))
BOUNDARY_KINDS = frozenset((VertexKind.IN, VertexKind.OUT))
ALL_KINDS = SPIDER_KINDS | BOUNDARY_KINDS | {VertexKind.H}

#: tolerance used by iso_equal when comparing radian-valued phases
ISO_PHASE_TOL = 1e-12


class InvalidDiagramError(ValueError):
    """A structural invariant of the diagram does not hold."""


class Signature(NamedTuple):
    n_inputs: int
    n_outputs: int


def opposite(kind: str) -> str:
    """The other spider colour."""
    if kind == VertexKind.Z:
        return VertexKind.X
    if kind == VertexKind.X:
        return VertexKind.Z
    raise ValueError(f"not a spider kind: {kind!r}")


class Diagram:
    """Mutable open multigraph; see the module docstring."""

    __slots__ = ("_kinds", "_phases", "_adj", "_inputs", "_outputs", "_next_id", "_touched")

    def __init__(self) -> None:
        self._kinds: dict[int, str] = {}
        self._phases: dict[int, Phase] = {}
        self._adj: dict[int, dict[int, int]] = {}
        self._inputs: list[int] = []
        self._outputs: list[int] = []
        self._next_id = 0
        # the touched-vertex log, see take_touched
        self._touched: set[int] = set()

    # -- vertices ----------------------------------------------------------

    def add_vertex(self, kind: str, phase: Phase | None = None) -> int:
        """Add a vertex and return its id; a spider's phase defaults to 0.
        A boundary vertex takes the next port on its side."""
        if kind not in ALL_KINDS:
            raise InvalidDiagramError(f"unknown vertex kind {kind!r}")
        if kind in SPIDER_KINDS:
            if phase is None:
                phase = Phase.zero()
        elif phase is not None:
            raise InvalidDiagramError(f"{kind!r} vertex cannot carry a phase")
        v = self._next_id
        self._next_id += 1
        self._kinds[v] = kind
        self._adj[v] = {}
        if phase is not None:
            self._phases[v] = phase
        if kind == VertexKind.IN:
            self._inputs.append(v)
        elif kind == VertexKind.OUT:
            self._outputs.append(v)
        self._touched.add(v)
        return v

    def add_input(self) -> int:
        return self.add_vertex(VertexKind.IN)

    def add_output(self) -> int:
        return self.add_vertex(VertexKind.OUT)

    def remove_vertex(self, v: int) -> None:
        for w in list(self._adj[v]):
            if w != v:
                del self._adj[w][v]
        self._touched.update(self._adj[v])
        self._touched.add(v)
        del self._adj[v]
        del self._kinds[v]
        self._phases.pop(v, None)
        for ports in (self._inputs, self._outputs):
            if v in ports:
                self._touched.update(ports[ports.index(v):])  # the ports after v move down
                ports.remove(v)

    def kind(self, v: int) -> str:
        return self._kinds[v]

    def set_kind(self, v: int, kind: str) -> None:
        if kind not in SPIDER_KINDS or self._kinds[v] not in SPIDER_KINDS:
            raise InvalidDiagramError("set_kind only swaps spider colours")
        self._kinds[v] = kind
        self._touched.add(v)

    def phase(self, v: int) -> Phase:
        return self._phases[v]

    def set_phase(self, v: int, phase: Phase) -> None:
        if self._kinds[v] not in SPIDER_KINDS:
            raise InvalidDiagramError("only spiders carry phases")
        self._phases[v] = phase
        self._touched.add(v)

    def is_spider(self, v: int) -> bool:
        return self._kinds[v] in SPIDER_KINDS

    def vertices(self) -> list[int]:
        return sorted(self._kinds)

    def spiders(self) -> list[int]:
        return [v for v in self.vertices() if self._kinds[v] in SPIDER_KINDS]

    def __contains__(self, v: int) -> bool:
        return v in self._kinds

    def take_touched(self) -> set[int]:
        """The ids the mutators changed since the last call.

        That is every added or removed vertex, the neighbours a removal
        detached, the ports a removal moved to a lower position, every
        recoloured or rephased spider and both ends of every added or
        removed wire.  A new diagram's log holds every vertex added to it;
        :meth:`copy` starts an empty one.  The log has one reader at a
        time; a :meth:`digest` given labels reads it too, and relabels
        everything once another reader has taken it.
        """
        touched, self._touched = self._touched, set()
        return touched

    # -- edges -------------------------------------------------------------

    def add_edge(self, u: int, v: int, count: int = 1) -> None:
        if u not in self._kinds or v not in self._kinds:
            raise InvalidDiagramError("edge endpoint does not exist")
        self._rewire(u, v, count, 1)

    def remove_edge(self, u: int, v: int, count: int = 1) -> None:
        self._rewire(u, v, count, -1)

    def _rewire(self, u: int, v: int, count: int, sign: int) -> None:
        """The one writer of wire counts: add (``sign`` 1) or remove (-1)
        ``count`` wires between ``u`` and ``v``.  A count is stored at both
        ends (a self-loop's once) and dropped when it reaches 0; both ends
        go on the touched-vertex log."""
        if count <= 0:
            raise ValueError("edge count must be positive")
        new = (self._adj[u].get(v, 0) if u in self._adj else 0) + sign * count
        if new < 0:
            raise InvalidDiagramError(f"no such edge ({u}, {v}) x{count}")
        for a, b in {u: v, v: u}.items():
            if new:
                self._adj[a][b] = new
            else:
                del self._adj[a][b]
        self._touched.update((u, v))

    def edge_mult(self, u: int, v: int) -> int:
        """Number of parallel edges between u and v (loops if u == v)."""
        return self._adj[u].get(v, 0)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (u, v, multiplicity) with u <= v, sorted."""
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if v >= u:
                    yield u, v, self._adj[u][v]

    def neighbors(self, v: int) -> list[int]:
        """Distinct neighbours of v, excluding v itself."""
        return sorted(w for w in self._adj[v] if w != v)

    def legs(self, v: int, skip: int | None = None) -> list[int]:
        """The far end of each leg of ``v``, one entry per parallel wire, in
        neighbour order; self-loops and the wires to ``skip`` are left out."""
        adj = self._adj[v]
        return [w for w in sorted(adj) if w != v and w != skip for _ in range(adj[w])]

    def splice(self, v: int) -> None:
        """Remove ``v``, a vertex that is just a wire, and join its two leg
        ends: the inverse of putting a vertex on a wire.

        A wire that closes on itself is the scalar 2.  So a ``v`` whose only
        legs are one self-loop is replaced by an isolated zero-phase
        Z-spider, which carries that scalar.  Any other ``v`` raises
        :class:`InvalidDiagramError` and leaves the diagram as it was.  The
        surgery is plain mutator calls, so the touched-vertex log sees it.
        """
        ends, loops = self.legs(v), self.self_loops(v)
        if len(ends) + 2 * loops != 2:
            raise InvalidDiagramError(f"cannot splice vertex {v} of degree {self.degree(v)}, not 2")
        self.remove_vertex(v)
        if loops:
            self.add_vertex(VertexKind.Z)
        else:
            self.add_edge(*ends)

    def self_loops(self, v: int) -> int:
        return self._adj[v].get(v, 0)

    def degree(self, v: int) -> int:
        """Number of incident edge ends; a self-loop contributes two."""
        adj = self._adj[v]
        return sum(adj.values()) + adj.get(v, 0)

    @property
    def n_vertices(self) -> int:
        return len(self._kinds)

    @property
    def n_edges(self) -> int:
        return sum(map(self.degree, self._adj)) // 2

    @property
    def spider_count(self) -> int:
        return sum(1 for k in self._kinds.values() if k in SPIDER_KINDS)

    @property
    def hbox_count(self) -> int:
        return sum(1 for k in self._kinds.values() if k == VertexKind.H)

    # -- boundary ----------------------------------------------------------

    @property
    def inputs(self) -> tuple[int, ...]:
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[int, ...]:
        return tuple(self._outputs)

    @property
    def n_inputs(self) -> int:
        return len(self._inputs)

    @property
    def n_outputs(self) -> int:
        return len(self._outputs)

    @property
    def signature(self) -> Signature:
        return Signature(len(self._inputs), len(self._outputs))

    # -- whole-diagram operations -------------------------------------------

    def copy(self) -> "Diagram":
        d = Diagram()
        d._kinds = dict(self._kinds)
        d._phases = dict(self._phases)
        d._adj = {v: dict(c) for v, c in self._adj.items()}
        d._inputs = list(self._inputs)
        d._outputs = list(self._outputs)
        d._next_id = self._next_id
        return d

    def relabel(self, mapping: dict[int, int]) -> "Diagram":
        """Fresh diagram with vertex ids renamed by a bijection."""
        if sorted(mapping) != self.vertices() or len(set(mapping.values())) != len(mapping):
            raise ValueError("mapping must be a bijection on the vertex set")
        d = Diagram()
        d._kinds = {mapping[v]: k for v, k in self._kinds.items()}
        d._phases = {mapping[v]: p for v, p in self._phases.items()}
        d._adj = {mapping[v]: {mapping[w]: m for w, m in c.items()} for v, c in self._adj.items()}
        d._inputs = [mapping[v] for v in self._inputs]
        d._outputs = [mapping[v] for v in self._outputs]
        d._next_id = max(mapping.values(), default=-1) + 1
        return d

    def _absorb(self, other: "Diagram") -> dict[int, int]:
        """Copy ``other`` into self with fresh ids; return the id map.  The
        copied boundaries join self's ports in ``other``'s id order."""
        remap = {}
        for v in other.vertices():
            remap[v] = self.add_vertex(other._kinds[v], other._phases.get(v))
        for u, v, m in other.edges():
            self.add_edge(remap[u], remap[v], m)
        return remap

    def validate(self) -> None:
        """Raise :class:`InvalidDiagramError` unless every H-box has degree
        2 and every boundary vertex degree 1: the wire degrees that
        :meth:`add_edge` and :meth:`remove_edge` can break.  The mutators
        keep phases, wire ends and port lists whole themselves."""
        for v, kind in self._kinds.items():
            if kind == VertexKind.H and self.degree(v) != 2:
                raise InvalidDiagramError(f"H-box {v} has degree {self.degree(v)}, not 2")
            if kind in BOUNDARY_KINDS and self.degree(v) != 1:
                raise InvalidDiagramError(
                    f"boundary vertex {v} has degree {self.degree(v)}, not 1"
                )

    def compose(self, other: "Diagram") -> "Diagram":
        """Plug self's outputs into other's inputs, port by port.

        Each plugged pair of boundary vertices is wired together, and then
        every one of them is spliced out (see :meth:`splice`), so a wire
        cycle that closes entirely through them leaves the scalar 2.
        """
        if self.n_outputs != other.n_inputs:
            raise InvalidDiagramError(
                f"compose arity mismatch: {self.n_outputs} outputs vs "
                f"{other.n_inputs} inputs"
            )
        res = self.copy()
        remap = res._absorb(other)
        fused = []
        for o, i in zip(self._outputs, other._inputs):
            res.add_edge(o, remap[i])
            fused += (o, remap[i])
        for f in sorted(fused):
            res.splice(f)
        res._inputs = list(self._inputs)
        res._outputs = [remap[o] for o in other._outputs]
        return res

    def tensor(self, other: "Diagram") -> "Diagram":
        """Place other next to self; its ports are renumbered after self's."""
        res = self.copy()
        remap = res._absorb(other)
        res._inputs = self._inputs + [remap[v] for v in other._inputs]
        res._outputs = self._outputs + [remap[v] for v in other._outputs]
        return res

    __rshift__ = compose
    __matmul__ = tensor

    # -- comparison ----------------------------------------------------------

    def _tags(self) -> dict[int, tuple]:
        """Relabelling-invariant vertex tags: ``(port kind, position)``,
        ``("H",)`` or ``(spider kind, phase)``."""
        tags = {v: self._kind_tag(v) for v in self._kinds}
        tags.update(self._port_tags())
        return tags

    def _kind_tag(self, v: int) -> tuple:
        """The tag of ``v`` if it held no port."""
        kind = self._kinds[v]
        return ("H",) if kind == VertexKind.H else (kind, self._phases.get(v))

    def _port_tags(self) -> dict[int, tuple]:
        tags: dict[int, tuple] = {v: ("in", i) for i, v in enumerate(self._inputs)}
        tags.update((v, ("out", i)) for i, v in enumerate(self._outputs))
        return tags

    def _to_networkx(self) -> "nx.Graph":
        import networkx as nx

        g = nx.Graph()
        for v, tag in self._tags().items():
            g.add_node(v, tag=tag, wl=_wl_token(tag))
        for u, v, m in self.edges():
            g.add_edge(u, v, mult=m)
        return g

    def iso_equal(self, other: "Diagram") -> bool:
        """Isomorphic as boundary-ordered open multigraphs.

        Kinds and edge multiplicities must match exactly, exact phases
        exactly, radian phases within 1e-12 (mod 2*pi).
        """
        if self.signature != other.signature or self.n_vertices != other.n_vertices:
            return False
        import networkx as nx

        return nx.is_isomorphic(
            self._to_networkx(),
            other._to_networkx(),
            node_match=_node_match,
            edge_match=lambda a, b: a["mult"] == b["mult"],
        )

    def digest(self, labels: _WLCache | None = None) -> str:
        """8-hex-char structural digest, invariant under relabelling.

        A 4-round Weisfeiler-Lehman hash: each round a vertex's label
        becomes the hash of its own label followed by the sorted
        ``f"{mult}{label}"`` of its neighbours (self-loops included).  The
        labels equal networkx's ``weisfeiler_lehman_subgraph_hashes`` of
        ``self._to_networkx()`` with ``edge_attr="mult", node_attr="wl"``.
        Each round's labels, read as 128-bit integers, are summed mod
        2^128, and the digest hashes the four sums.

        Without ``labels`` the call labels every vertex, keeps nothing and
        leaves the touched-vertex log (see :meth:`take_touched`) to its
        reader.  A caller that digests state after state of one diagram
        passes one ``_WLCache()`` each time and becomes the log's reader:
        a call relabels only what the log gathered since the call before,
        at round 1, widened by one hop per round from the labels that
        changed, and moves each sum by the labels it replaced.  New labels,
        labels of another diagram, or a log another reader took, make it
        relabel everything.  Either way the value is that of a fresh one.
        """
        wl = labels or _WLCache()
        dirty = self._touched if wl.log is self._touched else set(self._kinds).union(wl.labels[0])
        if labels:
            self._touched = labels.log = set()
        wl.relabel(self, dirty)
        return _wl_hash(",".join(map(str, wl.sums)))[:8]

    def __repr__(self) -> str:
        return (
            f"<Diagram {self.n_inputs}->{self.n_outputs}, "
            f"{self.spider_count} spiders, {self.hbox_count} H, {self.n_edges} edges>"
        )


#: rounds of the Weisfeiler-Lehman relabelling behind Diagram.digest
WL_ROUNDS = 4


class _WLCache:
    """The Weisfeiler-Lehman labels of one diagram, round by round.

    ``labels[0]`` holds the vertex tokens and ``labels[r]`` the labels of
    round r, which equal ``nx.weisfeiler_lehman_subgraph_hashes(
    d._to_networkx(), edge_attr="mult", node_attr="wl", iterations=4)``.
    ``sums[r - 1]`` is the sum mod 2^128 of round r's labels read as
    128-bit integers: an additive multiset hash (Clarke et al.,
    "Incremental Multiset Hash Functions", 2003) that a relabelling
    updates by the labels it changed.  ``log`` is the touched-vertex log
    they last drained.
    """

    __slots__ = ("log", "labels", "sums")

    def __init__(self) -> None:
        self.log: set[int] | None = None
        self.labels: list[dict[int, str]] = [{} for _ in range(WL_ROUNDS + 1)]
        self.sums = [0] * WL_ROUNDS

    def relabel(self, d: Diagram, touched: set[int]) -> None:
        """Bring every round up to date after the vertices in ``touched``
        changed.  A vertex is relabelled at round r when it is touched, or
        when it or a neighbour got a new label at round r - 1."""
        adj, port_tags = d._adj, d._port_tags()
        prev = self.labels[0]
        changed = set()
        for v in touched:
            if v in adj:
                token = _wl_token(port_tags.get(v) or d._kind_tag(v))
                if prev.get(v) != token:
                    prev[v] = token
                    changed.add(v)
            elif prev.pop(v, None) is not None:
                changed.add(v)
        for r, labels in enumerate(self.labels[1:]):
            dirty = touched | changed
            for v in changed:
                if v in adj:
                    dirty.update(adj[v])
            changed = set()
            total = self.sums[r]
            for v in dirty:
                old = labels.get(v)
                if v in adj:
                    legs = sorted([str(m) + prev[w] for w, m in adj[v].items()])
                    new = _wl_hash(prev[v] + "".join(legs))
                    if new == old:
                        continue
                    labels[v] = new
                    total += int(new, 16)
                elif old is None:
                    continue
                else:
                    del labels[v]
                if old is not None:
                    total -= int(old, 16)
                changed.add(v)
            self.sums[r] = total % (1 << 128)
            prev = labels


def _wl_hash(label: str) -> str:
    return hashlib.blake2b(label.encode("ascii"), digest_size=16).hexdigest()


def _wl_token(tag: tuple) -> str:
    if tag[0] in ("in", "out", "H"):
        return ":".join(str(t) for t in tag)
    kind, phase = tag
    if phase.is_exact:
        return f"{kind}:{phase.numerator}/{phase.denominator}"
    return f"{kind}:~{phase.radians:.9f}"


def _node_match(a: dict, b: dict) -> bool:
    ta, tb = a["tag"], b["tag"]
    if ta[0] != tb[0]:
        return False
    if ta[0] in ("in", "out"):
        return ta[1] == tb[1]
    if ta[0] == "H":
        return True
    pa, pb = ta[1], tb[1]
    if pa.is_exact != pb.is_exact:
        return False
    if pa.is_exact:
        return pa.frac == pb.frac
    return pa.close_to(pb, ISO_PHASE_TOL)


# -- small builders ----------------------------------------------------------


def empty_diagram() -> Diagram:
    return Diagram()


def identity_diagram(n: int) -> Diagram:
    """n bare wires."""
    d = Diagram()
    for _ in range(n):
        i = d.add_input()
        o = d.add_output()
        d.add_edge(i, o)
    return d


def spider_diagram(kind: str, phase: Phase, n_in: int, n_out: int) -> Diagram:
    """A single spider wired to n_in inputs and n_out outputs."""
    d = Diagram()
    v = d.add_vertex(kind, phase)
    for _ in range(n_in):
        d.add_edge(d.add_input(), v)
    for _ in range(n_out):
        d.add_edge(v, d.add_output())
    return d


def hadamard_diagram() -> Diagram:
    """A single H-box on a wire."""
    d = Diagram()
    h = d.add_vertex(VertexKind.H)
    d.add_edge(d.add_input(), h)
    d.add_edge(h, d.add_output())
    return d


def cap_diagram() -> Diagram:
    """The 0 -> 2 bent wire."""
    d = Diagram()
    a = d.add_output()
    b = d.add_output()
    d.add_edge(a, b)
    return d


def cup_diagram() -> Diagram:
    """The 2 -> 0 bent wire."""
    d = Diagram()
    a = d.add_input()
    b = d.add_input()
    d.add_edge(a, b)
    return d
