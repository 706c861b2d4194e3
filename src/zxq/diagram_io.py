"""Reading and writing ``.zxg`` diagram files.

The format is UTF-8 JSON with four keys:

* ``inputs`` / ``outputs``: lists of node ids (strings), in port order;
  each must list every node of its kind, once;
* ``nodes``: list of ``{"id", "kind", "phase"?}`` objects, ``kind`` one of
  ``"Z" | "X" | "H" | "in" | "out"``, ``phase`` either ``{"num", "den"}``
  (an exact multiple of pi) or ``{"rad"}``, written for every spider
  and only for spiders; a spider read without one gets phase 0;
* ``edges``: list of ``[id, id]`` pairs; a repeated pair is a parallel edge.
"""

from __future__ import annotations

import json
from typing import Any

from .diagram import BOUNDARY_KINDS, SPIDER_KINDS, Diagram, InvalidDiagramError, VertexKind
from .phase import Phase


class ZxgFormatError(ValueError):
    """Malformed ``.zxg`` content; the message carries the position."""


def serialize(d: Diagram) -> str:
    """Render a diagram as ``.zxg`` JSON text."""
    d.validate()
    nodes = []
    for v in d.vertices():
        node: dict[str, Any] = {"id": str(v), "kind": d.kind(v)}
        if d.kind(v) in SPIDER_KINDS:
            p = d.phase(v)
            node["phase"] = (
                {"num": p.numerator, "den": p.denominator} if p.is_exact else {"rad": p.radians}
            )
        nodes.append(node)
    edges = []
    for u, v, m in d.edges():
        edges.extend([[str(u), str(v)]] * m)
    doc = {
        "inputs": [str(v) for v in d.inputs],
        "outputs": [str(v) for v in d.outputs],
        "nodes": nodes,
        "edges": edges,
    }
    return json.dumps(doc, indent=2) + "\n"


def _parse_phase(raw: Any, where: str) -> Phase:
    if not isinstance(raw, dict):
        raise ZxgFormatError(f"{where}: phase must be an object")
    if set(raw) == {"num", "den"}:
        # exact type tests: a JSON true/false loads as a bool, an int subclass
        if type(raw["num"]) is not int or type(raw["den"]) is not int:
            raise ZxgFormatError(f"{where}: num/den must be integers")
        if raw["den"] <= 0:
            raise ZxgFormatError(f"{where}: denominator must be positive")
        return Phase.exact(raw["num"], raw["den"])
    if set(raw) == {"rad"}:
        if type(raw["rad"]) not in (int, float):
            raise ZxgFormatError(f"{where}: rad must be a number")
        try:
            return Phase.approx(raw["rad"])
        except ValueError as e:
            raise ZxgFormatError(f"{where}: {e}") from None
    raise ZxgFormatError(f"{where}: phase needs keys num/den or rad")


def deserialize(text: str) -> Diagram:
    """Parse ``.zxg`` text into a validated diagram."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ZxgFormatError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise ZxgFormatError("JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ZxgFormatError("top level must be an object")
    for key in ("inputs", "outputs", "nodes", "edges"):
        if key not in doc or not isinstance(doc[key], list):
            raise ZxgFormatError(f"missing or non-list key {key!r}")

    d = Diagram()
    ids: dict[str, int] = {}
    for i, node in enumerate(doc["nodes"]):
        where = f"nodes[{i}]"
        if not isinstance(node, dict) or "id" not in node or "kind" not in node:
            raise ZxgFormatError(f"{where}: need id and kind")
        nid, kind = node["id"], node["kind"]
        if not isinstance(nid, str) or not isinstance(kind, str):
            raise ZxgFormatError(f"{where}: id and kind must be strings")
        if nid in ids:
            raise ZxgFormatError(f"{where}: duplicate id {nid!r}")
        if kind in SPIDER_KINDS:
            phase = _parse_phase(node["phase"], where) if "phase" in node else Phase.zero()
            ids[nid] = d.add_vertex(kind, phase)
        elif kind in BOUNDARY_KINDS or kind == VertexKind.H:
            if "phase" in node:
                raise ZxgFormatError(f"{where}: {kind!r} cannot carry a phase")
            ids[nid] = d.add_vertex(kind)
        else:
            raise ZxgFormatError(f"{where}: unknown kind {kind!r}")

    # the nodes registered their ports in node order; the file's order wins
    unlisted = []
    for name, kind in (("inputs", VertexKind.IN), ("outputs", VertexKind.OUT)):
        seen = set()
        for j, nid in enumerate(doc[name]):
            where = f"{name}[{j}]"
            if not isinstance(nid, str) or nid not in ids:
                raise ZxgFormatError(f"{where}: unknown node id {nid!r}")
            if d.kind(ids[nid]) != kind:
                raise ZxgFormatError(f"{where}: node {nid!r} is not of kind {kind!r}")
            if nid in seen:
                raise ZxgFormatError(f"{where}: repeated port {nid!r}")
            seen.add(nid)
        ports = d._inputs if name == "inputs" else d._outputs
        if len(seen) < len(ports):
            unlisted.append(name[:-1])
        ports[:] = [ids[nid] for nid in doc[name]]

    for j, pair in enumerate(doc["edges"]):
        where = f"edges[{j}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ZxgFormatError(f"{where}: edge must be a pair")
        u, v = pair
        try:  # a list endpoint is unhashable: TypeError
            d.add_edge(ids[u], ids[v])
        except (KeyError, TypeError):
            raise ZxgFormatError(f"{where}: unknown endpoint in {pair!r}") from None

    try:
        d.validate()
    except InvalidDiagramError as e:
        raise ZxgFormatError(str(e)) from e
    if unlisted:
        raise ZxgFormatError(f"{unlisted[0]} vertices not all registered in port order")
    return d


def save(d: Diagram, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize(d))


def load(path: str) -> Diagram:
    with open(path, encoding="utf-8") as f:
        return deserialize(f.read())
