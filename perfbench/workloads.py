"""Seeded inputs and operation lists for the three workloads.

Circuits are drawn here from the run's seed and written as ``.zxc`` text;
the ``.zxg`` side of a check pair is translated here too.  The inputs
therefore depend on the seed and on this file only, not on the program
under test.  Every workload returns its operations as ``zxq`` argument
lists, each with the answer it must give.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

ONE_QUBIT = ("h", "t", "tdg", "s", "sdg", "z", "x", "rz", "rx")
TWO_QUBIT = ("cnot", "cz", "swap")
#: the gate mix of a simplify circuit: every name in turn, so a circuit of
#: n gates holds each name n/12 times (to within one) in a random order
SIMPLIFY_MIX = ONE_QUBIT + TWO_QUBIT

#: phases of the fixed gates as multiples of pi/4
FIXED_PHASE = {"t": 1, "tdg": 7, "s": 2, "sdg": 6, "z": 4, "x": 4}

#: (gates, circuits, of which also run with --full); widths cycle 2, 3, 4.
#: The rungs are sized so that p50 falls in the middle of the plain 40-gate
#: rung and p90 in the middle of the 150-gate rung, never between two rungs.
#: The --full ops on 40 and 80 gates spend about a quarter of a round in
#: the speculative H2/P trials.
SIMPLIFY_RUNGS = (
    (12, 43, 10),
    (40, 30, 15),
    (80, 16, 8),
    (150, 12, 0),
    (300, 1, 0),
)

#: (gates, entangling gates, cancelling pairs, circuits); widths cycle 2 to
#: 6, and each circuit gives one equal and one unequal pair.  Entangling
#: gates stay at most 60 above the width, so the evaluated norm
#: (2^((width - entangling) / 2)) stays far above the zero-map floor.
CHECK_RUNGS = (
    (40, 6, 4, 27),
    (100, 16, 6, 27),
    (180, 30, 8, 9),
    (280, 44, 10, 12),
)
CHECK_WIDTHS = (2, 3, 4, 5, 6)

#: fixed deep equal pair: 6 qubits, 90 entangling gates plus two
#: entangling cancelling pairs, drawn from this seed and not the run's
DEEP_SEED = 20180414
DEEP_PAIR = (6, 480, 90, 8)

#: (campaign, samples, ops); relations takes no samples.  In time order
#: the classes are rules4, relations, pformulas200, rules16, rules24,
#: rules40, pformulas2000: p50 falls in the middle of rules16 and p90 in
#: the middle of rules40.
CAMPAIGN_MIX = (
    ("rules", 4, 20),
    ("relations", None, 12),
    ("pformulas", 200, 8),
    ("rules", 16, 40),
    ("rules", 24, 18),
    ("rules", 40, 20),
    ("pformulas", 2000, 2),
)
RULE_COUNT = 15


@dataclass(frozen=True)
class Op:
    """One ``zxq`` call and what it must produce."""

    argv: tuple
    label: str
    #: check ops: the exit code the pair's construction implies
    expect_code: int = 0
    #: a deep equal pair answered "not equal" through the zero-map floor
    known_fault: bool = False
    #: workload-specific facts the output checks need
    info: dict = field(default_factory=dict, compare=False)
    #: files the call writes
    writes: tuple = ()


def zxc_text(width: int, gates: list) -> str:
    lines = [f"qubits {width}"]
    for name, qs, k in gates:
        lines.append(" ".join([name, *map(str, qs)] + ([f"{k}/4"] if k is not None else [])))
    return "\n".join(lines) + "\n"


def zxg_text(width: int, gates: list) -> str:
    """The ``.zxg`` diagram of a circuit: phase gates become spiders on
    their wire, H an H-box, CNOT a Z-X bridge, CZ a Z-H-Z bridge and SWAP
    a crossing of the wire ends."""
    nodes: list = []
    edges: list = []

    def node(kind: str, num: int | None = None) -> int:
        entry = {"id": str(len(nodes)), "kind": kind}
        if num is not None:
            entry["phase"] = {"num": num, "den": 4}
        nodes.append(entry)
        return len(nodes) - 1

    inputs = [node("in") for _ in range(width)]
    ends = list(inputs)

    def put(q: int, kind: str, num: int | None = None) -> int:
        v = node(kind, num)
        edges.append((ends[q], v))
        ends[q] = v
        return v

    for name, qs, k in gates:
        if name == "h":
            put(qs[0], "H")
        elif name in FIXED_PHASE:
            put(qs[0], "X" if name == "x" else "Z", FIXED_PHASE[name])
        elif name in ("rz", "rx"):
            put(qs[0], name[1].upper(), k)
        elif name == "cnot":
            edges.append((put(qs[0], "Z", 0), put(qs[1], "X", 0)))
        elif name == "cz":
            a, b, h = put(qs[0], "Z", 0), put(qs[1], "Z", 0), node("H")
            edges.extend(((a, h), (h, b)))
        elif name == "swap":
            a, b = qs
            ends[a], ends[b] = ends[b], ends[a]
        else:
            raise ValueError(f"unknown gate {name!r}")
    outputs = [node("out") for _ in range(width)]
    edges.extend((ends[q], outputs[q]) for q in range(width))
    doc = {
        "inputs": [str(v) for v in inputs],
        "outputs": [str(v) for v in outputs],
        "nodes": nodes,
        "edges": [[str(u), str(v)] for u, v in edges],
    }
    return json.dumps(doc) + "\n"


def _gate(rng: random.Random, name: str, width: int) -> tuple:
    if name in TWO_QUBIT:
        return (name, tuple(rng.sample(range(width), 2)), None)
    k = rng.randrange(8) if name in ("rz", "rx") else None
    return (name, (rng.randrange(width),), k)


def draw_circuit(rng: random.Random, width: int, names: list) -> list:
    """Gates with exactly the given names, in a random order on random qubits."""
    names = list(names)
    rng.shuffle(names)
    return [_gate(rng, n, width) for n in names]


def simplify_circuit(rng: random.Random, width: int, n: int) -> list:
    return draw_circuit(rng, width, [SIMPLIFY_MIX[i % len(SIMPLIFY_MIX)] for i in range(n)])


def check_circuit(rng: random.Random, width: int, n: int, entangling: int) -> list:
    others = ONE_QUBIT + ("swap",)
    names = [("cnot", "cz")[i % 2] for i in range(entangling)]
    names += [others[i % len(others)] for i in range(n - entangling)]
    return draw_circuit(rng, width, names)


_INVERSE = {"h": "h", "t": "tdg", "tdg": "t", "s": "sdg", "sdg": "s", "x": "x", "z": "z",
            "cnot": "cnot", "cz": "cz", "swap": "swap"}


def insert_cancelling_pairs(rng: random.Random, width: int, gates: list, pairs: int) -> list:
    """Insert gate-inverse pairs at random places; two of them entangling."""
    out = list(gates)
    for i in range(pairs):
        name = rng.choice(("cnot", "cz") if i < 2 else ("h", "t", "tdg", "s", "sdg", "x",
                                                            "z", "rz", "rx", "swap"))
        g = _gate(rng, name, width)
        if name in ("rz", "rx"):
            inv = (name, g[1], (8 - g[2]) % 8)
        else:
            inv = (_INVERSE[name], g[1], None)
        at = rng.randrange(len(out) + 1)
        out[at:at] = [g, inv]
    return out


def insert_t(rng: random.Random, width: int, gates: list) -> list:
    """One extra T gate: U1 T U2 is never a multiple of U1 U2."""
    at = rng.randrange(len(gates) + 1)
    return gates[:at] + [("t", (rng.randrange(width),), None)] + gates[at:]


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def simplify_ladder(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n, count, full in SIMPLIFY_RUNGS:
        for i in range(count):
            width = 2 + i % 3
            gates = simplify_circuit(rng, width, n)
            base = os.path.join(workdir, f"s{n}_{i}")
            src = _write(base + ".zxc", zxc_text(width, gates))
            info = {"input": src, "width": width, "gates": gates}
            for suffix, extra in (("", ()), ("f", ("--full",)))[: 2 if i < full else 1]:
                out, trace = f"{base}{suffix}.zxg", f"{base}{suffix}.trace"
                argv = ("simplify", src, "-o", out, "--trace", trace, *extra)
                ops.append(Op(argv, f"s{n}{suffix}", info=dict(info, output=out, trace=trace),
                              writes=(out, trace)))
    return ops


def _check_op(workdir: str, name: str, width: int, a: list, b: list, equal: bool,
              label: str, known_fault: bool = False) -> Op:
    pa = _write(os.path.join(workdir, name + "a.zxc"), zxc_text(width, a))
    pb = _write(os.path.join(workdir, name + "b.zxg"), zxg_text(width, b))
    info = {"width": width, "a": a, "b": b, "b_path": pb}
    return Op(("check", pa, pb), label, 0 if equal else 1, known_fault, info)


def check_ladder(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n, ent, pairs, count in CHECK_RUNGS:
        for i in range(count):
            width = CHECK_WIDTHS[i % len(CHECK_WIDTHS)]
            a = check_circuit(rng, width, n, ent)
            eq = insert_cancelling_pairs(rng, width, a, pairs)
            ne = insert_t(rng, width, a)
            ops.append(_check_op(workdir, f"c{n}_{i}e", width, a, eq, True, f"c{n}"))
            ops.append(_check_op(workdir, f"c{n}_{i}u", width, a, ne, False, f"c{n}"))
    # deep equal pairs: evaluate's norm falls below the zero-map floor
    drng = random.Random(DEEP_SEED)
    width, n, ent, pairs = DEEP_PAIR
    a = check_circuit(drng, width, n, ent)
    ops.append(_check_op(workdir, "deep6", width, a,
                         insert_cancelling_pairs(drng, width, a, pairs), True, "deep", True))
    ops.append(_check_op(workdir, "cnot100", 2, [], [("cnot", (0, 1), None)] * 100, True,
                         "deep", True))
    return ops


def campaigns(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for campaign, samples, count in CAMPAIGN_MIX:
        for _ in range(count):
            if campaign == "relations":
                ops.append(Op(("verify", "relations"), "relations", info={"cases": 17}))
                continue
            s = rng.randrange(1 << 32)
            argv = ("verify", campaign, "--seed", str(s), "--samples", str(samples))
            if campaign == "rules":
                cases = RULE_COUNT * samples
            else:
                cases = 3 * samples + 2 * max(200, samples // 5) + 3 * max(50, samples // 10)
            ops.append(Op(argv, f"{campaign}{samples}", info={"cases": cases}))
    return ops


WORKLOADS = {
    "simplify_ladder": simplify_ladder,
    "check_ladder": check_ladder,
    "campaigns": campaigns,
}
