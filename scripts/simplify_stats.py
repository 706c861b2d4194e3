#!/usr/bin/env python3
"""Simplify random Clifford+T circuits and report reduction statistics.

Usage: python scripts/simplify_stats.py [--seed S] [--circuits N]
       [--gates G] [--width W] [--full]
"""

import argparse
import random
from collections import Counter

from zxq.circuits import circuit_to_diagram
from zxq.harness import random_clifford_t_circuit
from zxq.rewrite import simplify
from zxq.semantics import equal_up_to_scalar, evaluate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--circuits", type=int, default=100)
    ap.add_argument("--gates", type=int, default=40)
    ap.add_argument("--width", type=int, default=2)
    ap.add_argument("--full", action="store_true", help="enable colour-change/chain-swap passes")
    ap.add_argument("--check", action="store_true", help="verify semantics of every result")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    rule_usage: Counter = Counter()
    spiders_before = spiders_after = edges_before = edges_after = 0
    for _ in range(args.circuits):
        c = random_clifford_t_circuit(rng, width=args.width, max_gates=args.gates)
        d = circuit_to_diagram(c)
        out, trace = simplify(d, full=args.full)
        rule_usage.update(s.rule for s in trace.steps)
        spiders_before += d.spider_count
        spiders_after += out.spider_count
        edges_before += d.n_edges
        edges_after += out.n_edges
        if args.check:
            v = equal_up_to_scalar(evaluate(d), evaluate(out))
            assert v.equal, f"semantics broken: residual {v.residual}"

    print(f"circuits: {args.circuits} (width {args.width}, <= {args.gates} gates)")
    print(f"spiders: {spiders_before} -> {spiders_after} "
          f"({100 * (1 - spiders_after / max(1, spiders_before)):.1f}% removed)")
    print(f"wires:   {edges_before} -> {edges_after}")
    print("rule applications:")
    for rule, n in rule_usage.most_common():
        print(f"  {rule:4s} {n}")


if __name__ == "__main__":
    main()
