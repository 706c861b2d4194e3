"""Output checks against answers computed apart from the program.

The unitary builder below covers the ``.zxc`` gate set with qubit 0 as the
most significant bit and shares no code with ``zxq.circuits.circuit_matrix``.
Every checker returns a list of problems; an empty list means the output
is right.  ``self_test`` feeds each checker a corrupted output and reports
a problem when the checker fails to reject it.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

TOL = 1e-8

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_ONE = {"h": _H, "x": _X}
_DIAG = {"t": 1, "tdg": 7, "s": 2, "sdg": 6, "z": 4}


def _phase(k: int) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * math.pi * k / 4)]).astype(complex)


def _two(name: str) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    if name == "cnot":
        m[2:, 2:] = _X
    elif name == "cz":
        m[3, 3] = -1
    else:  # swap
        m = m[[0, 2, 1, 3]]
    return m.reshape(2, 2, 2, 2)


def unitary(width: int, gates: list) -> np.ndarray:
    """Ordered product of the gates, built by applying each to the wires."""
    u = np.eye(2**width, dtype=complex).reshape((2,) * width + (2**width,))
    for name, qs, k in gates:
        if len(qs) == 2:
            u = np.tensordot(_two(name), u, axes=([2, 3], list(qs)))
            u = np.moveaxis(u, [0, 1], list(qs))
            continue
        if name in _ONE:
            m = _ONE[name]
        elif name in _DIAG:
            m = _phase(_DIAG[name])
        else:
            m = _phase(k) if name == "rz" else _H @ _phase(k) @ _H
        u = np.moveaxis(np.tensordot(m, u, axes=([1], [qs[0]])), 0, qs[0])
    return u.reshape(2**width, 2**width)


def proportional(a: np.ndarray, b: np.ndarray, tol: float = TOL) -> bool:
    """b = k a for some nonzero k, by relative least-squares residual."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if a.shape != b.shape or not (np.isfinite(na) and np.isfinite(nb)) or na == 0 or nb == 0:
        return False
    k = np.vdot(a, b) / np.vdot(a, a)
    return bool(np.linalg.norm(b - k * a) <= tol * max(na, nb))


# -- simplify_ladder -------------------------------------------------------------


def parse_trace(text: str) -> list:
    """``RULE @ [v, ...] digest:x->y`` lines as (rule, site) pairs."""
    steps = []
    for line in text.splitlines():
        rule, rest = line.split(" @ ", 1)
        steps.append((rule, tuple(json.loads(rest.split(" digest:", 1)[0]))))
    return steps


def matrix_problems(zxq, op, out_diagram, gates) -> list:
    if proportional(unitary(op.info["width"], gates), zxq.semantics.evaluate(out_diagram)):
        return []
    return [f"{op.label} {op.info['output']}: matrix differs from the input circuit's"]


def replay_problems(zxq, op, steps, out_diagram) -> list:
    """Replay the trace from the input diagram; it must end on the output."""
    g = zxq.circuits.circuit_to_diagram(zxq.circuits.load_circuit(op.info["input"]))
    spiders_in = g.spider_count
    for rule, site in steps:
        g = zxq.rewrite.RULES[rule].apply(g, site)
    problems = []
    if not g.iso_equal(out_diagram):
        problems.append(f"{op.label} {op.info['trace']}: replay does not end on the output")
    if out_diagram.spider_count > spiders_in:
        problems.append(f"{op.label}: {out_diagram.spider_count} spiders out, {spiders_in} in")
    return problems


def simplify_problems(zxq, op, result) -> list:
    code, out, err = result
    if code != 0:
        return [f"{op.label}: exit {code}: {err.strip()}"]
    with open(op.info["trace"], encoding="utf-8") as f:
        steps = parse_trace(f.read())
    problems = []
    if "budget exhausted" in err:
        problems.append(f"{op.label}: step budget exhausted")
    if out.split(" steps", 1)[0] != str(len(steps)):
        problems.append(f"{op.label}: reported steps {out.strip()!r}, trace has {len(steps)}")
    diagram = zxq.diagram_io.load(op.info["output"])
    problems += matrix_problems(zxq, op, diagram, op.info["gates"])
    problems += replay_problems(zxq, op, steps, diagram)
    return problems


# -- check_ladder ----------------------------------------------------------------


def verdict_problems(op, code: int) -> list:
    if code == op.expect_code:
        return []
    return [f"{op.label} {op.argv[2]}: exit {code}, construction says {op.expect_code}"]


def construction_problems(zxq, op, with_translation: bool) -> list:
    """The pair's construction must give its verdict under this file's
    unitary builder; optionally the written .zxg must evaluate to B."""
    w = op.info["width"]
    ua, ub = unitary(w, op.info["a"]), unitary(w, op.info["b"])
    problems = []
    if proportional(ua, ub) != (op.expect_code == 0):
        problems.append(f"{op.label} {op.argv[2]}: construction does not give its verdict")
    if with_translation and not proportional(ub, zxq.semantics.evaluate(
            zxq.diagram_io.load(op.info["b_path"]))):
        problems.append(f"{op.label} {op.argv[2]}: .zxg translation differs from B")
    return problems


# -- campaigns -------------------------------------------------------------------


def report_problems(op, result) -> list:
    code, out, _ = result
    lines = out.splitlines()
    problems = []
    if code != 0 or not lines or lines[-1] != "result: PASS":
        problems.append(f"{op.label} {' '.join(op.argv)}: exit {code}, report does not pass")
    if f"cases: {op.info['cases']}" not in lines:
        problems.append(f"{op.label} {' '.join(op.argv)}: want cases: {op.info['cases']}")
    return problems


# -- per workload ----------------------------------------------------------------


def output_problems(zxq, workload: str, ops: list, results: list) -> list:
    """Check every operation of one round against its independent answer."""
    problems = []
    for op, result in zip(ops, results):
        try:
            if workload == "simplify_ladder":
                problems += simplify_problems(zxq, op, result)
            elif workload == "check_ladder":
                if not op.known_fault:
                    problems += verdict_problems(op, result[0])
                problems += construction_problems(zxq, op, op.label == ops[0].label)
            else:
                problems += report_problems(op, result)
        except Exception as e:  # a malformed output must not stop the run
            problems.append(f"{op.label} {' '.join(op.argv)}: check raised {e!r}")
    return problems


def self_test(zxq, workload: str, ops: list, results: list) -> list:
    """Each checker must reject a corrupted output."""
    try:
        return _missed(zxq, workload, ops, results)
    except Exception as e:  # a self-test that cannot run has not passed
        return [f"self-test raised {e!r}"]


def _missed(zxq, workload: str, ops: list, results: list) -> list:
    missed = []
    if workload == "simplify_ladder":
        op = next(o for o, r in zip(ops, results)
                  if r[0] == 0 and not r[1].startswith("0 steps"))
        diagram = zxq.diagram_io.load(op.info["output"])
        wrong = op.info["gates"] + [("t", (0,), None)]
        if not matrix_problems(zxq, op, diagram, wrong):
            missed.append("matrix check accepted a circuit with an extra T")
        with open(op.info["trace"], encoding="utf-8") as f:
            steps = parse_trace(f.read())
        if not replay_problems(zxq, op, steps[:-1], diagram):
            missed.append("replay check accepted a trace with its last line dropped")
    elif workload == "check_ladder":
        op = ops[0]
        if not verdict_problems(op, 1 - op.expect_code):
            missed.append("verdict check accepted a flipped verdict")
        flipped = dataclasses.replace(op, expect_code=1 - op.expect_code)
        if not construction_problems(zxq, flipped, False):
            missed.append("construction check accepted a flipped verdict")
    else:
        op, (code, out, err) = ops[0], results[0]
        if not report_problems(op, (code, out.replace("result: PASS", "result: FAIL"), err)):
            missed.append("report check accepted a failing report")
        short = out.replace(f"cases: {op.info['cases']}", f"cases: {op.info['cases'] - 1}")
        if not report_problems(op, (code, short, err)):
            missed.append("report check accepted a wrong case count")
    return missed
