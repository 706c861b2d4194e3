import json

import pytest
from hypothesis import given, settings

from zxq.diagram import VertexKind, spider_diagram
from zxq.diagram_io import ZxgFormatError, deserialize, serialize
from zxq.phase import Phase

from .conftest import small_diagrams


@settings(max_examples=60, deadline=None)
@given(small_diagrams())
def test_round_trip(d):
    assert deserialize(serialize(d)).iso_equal(d)


def test_round_trip_reparse_stable():
    d = spider_diagram(VertexKind.X, Phase.approx(1.2345), 2, 1)
    text = serialize(d)
    assert deserialize(serialize(deserialize(text))).iso_equal(deserialize(text))


def test_rational_phase_format():
    doc = {
        "inputs": ["a"],
        "outputs": ["b"],
        "nodes": [
            {"id": "a", "kind": "in"},
            {"id": "b", "kind": "out"},
            {"id": "s", "kind": "Z", "phase": {"num": 1, "den": 4}},
        ],
        "edges": [["a", "s"], ["s", "b"]],
    }
    d = deserialize(json.dumps(doc))
    (v,) = d.spiders()
    assert d.phase(v) == Phase.exact(1, 4)


def test_spider_without_a_phase_loads_as_zero():
    doc = {"inputs": [], "outputs": [], "nodes": [{"id": "a", "kind": "Z"}], "edges": []}
    d = deserialize(json.dumps(doc))
    (v,) = d.spiders()
    assert d.phase(v) == Phase.zero()
    node = {"id": str(v), "kind": "Z", "phase": {"num": 0, "den": 1}}
    assert json.loads(serialize(d))["nodes"] == [node]


def test_parallel_edges_survive():
    doc = {
        "inputs": [],
        "outputs": [],
        "nodes": [
            {"id": "u", "kind": "Z", "phase": {"num": 0, "den": 1}},
            {"id": "v", "kind": "X", "phase": {"num": 0, "den": 1}},
        ],
        "edges": [["u", "v"], ["u", "v"]],
    }
    d = deserialize(json.dumps(doc))
    u, v = d.spiders()
    assert d.edge_mult(u, v) == 2


def test_hbox_degree_violation_rejected():
    doc = {
        "inputs": [],
        "outputs": ["o1", "o2", "o3"],
        "nodes": [
            {"id": "h", "kind": "H"},
            {"id": "o1", "kind": "out"},
            {"id": "o2", "kind": "out"},
            {"id": "o3", "kind": "out"},
        ],
        "edges": [["h", "o1"], ["h", "o2"], ["h", "o3"]],
    }
    with pytest.raises(ZxgFormatError, match="degree"):
        deserialize(json.dumps(doc))


def test_malformed_json_reports_position():
    with pytest.raises(ZxgFormatError, match=r"line \d+, column \d+"):
        deserialize("{\n  broken\n}")


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda doc: doc["nodes"].append({"id": "q", "kind": "wat"}), "unknown kind"),
        (lambda doc: doc["edges"].append(["a", "zz"]), "unknown endpoint"),
        (lambda doc: doc["nodes"].append({"id": "a", "kind": "in"}), "duplicate id"),
        (lambda doc: doc["nodes"][2].__setitem__("phase", {"num": 1}), "phase needs keys"),
        (lambda doc: doc["nodes"][2].__setitem__("phase", {"rad": float("nan")}), "finite"),
        (lambda doc: doc["nodes"][2].__setitem__("phase", {"rad": float("inf")}), "finite"),
        (lambda doc: doc["nodes"][2].__setitem__("phase", {"rad": 10**400}), "finite"),
        (lambda doc: doc.pop("edges"), "missing or non-list"),
        (lambda doc: doc["inputs"].append("s"), "not of kind"),
        (lambda doc: doc["edges"].append([["a"], "a"]), r"edges\[2\]: unknown endpoint"),
        (lambda doc: doc["outputs"].append(["b"]), r"outputs\[1\]: unknown node id"),
        (lambda doc: doc["nodes"].append({"id": "q", "kind": ["Z"]}), r"nodes\[3\]: id and kind"),
        (lambda doc: doc["nodes"].append({"id": ["q"], "kind": "Z"}), r"nodes\[3\]: id and kind"),
        (lambda doc: doc["nodes"][2].__setitem__("phase", {"rad": True}), r"nodes\[2\]: rad must"),
        (
            lambda doc: doc["nodes"][2].__setitem__("phase", {"num": 1, "den": True}),
            r"nodes\[2\]: num/den must",
        ),
    ],
)
def test_schema_errors(mutate, match):
    doc = {
        "inputs": ["a"],
        "outputs": ["b"],
        "nodes": [
            {"id": "a", "kind": "in"},
            {"id": "b", "kind": "out"},
            {"id": "s", "kind": "Z", "phase": {"num": 1, "den": 4}},
        ],
        "edges": [["a", "s"], ["s", "b"]],
    }
    mutate(doc)
    with pytest.raises(ZxgFormatError, match=match):
        deserialize(json.dumps(doc))
