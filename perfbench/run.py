#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of zxq.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload simplify_ladder --seed 1 --seconds 20 --trace 0

Every operation is an in-process ``zxq`` call through ``cli.cli_main`` on
input files generated from ``--seed`` under ``.bench_run/``.  A run sets
up several times, then repeats whole rounds of the workload's operations
until ``--seconds`` have passed, then checks the outputs of the last
round.  ``attempted`` and ``failed`` count one round.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs half the time untraced
and half traced and reports the per-layer metrics.
The last line of standard output is one JSON object; see README.md.
"""

import os
import sys

# one BLAS thread: a second one only adds CPU time on these small tensors
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 21
MIN_ROUNDS = 3
MODULES = ("cli", "circuits", "diagram", "diagram_io", "harness", "phase_algebra",
           "rewrite", "semantics")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import zxq afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "zxq" or m.startswith("zxq.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module(f"zxq.{m}") for m in MODULES})


def call(cli_main, argv):
    """Exit code, standard output and standard error of one zxq call; an
    uncaught exception becomes exit code -1 with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except Exception:
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def warm_up_ops(ops):
    """The first operation of each kind: command, campaign, --full, verdict."""
    seen, warm = set(), []
    for op in ops:
        key = (op.argv[:2] if op.argv[0] == "verify" else op.argv[0],
               "--full" in op.argv, op.expect_code)
        if key not in seen:
            seen.add(key)
            warm.append(op)
    return warm


def set_up(workload, seed, workdir):
    """Import, generate and write the inputs, warm up; returns (zxq, ops)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    zxq = import_program()
    ops = WORKLOADS[workload](seed, str(workdir))
    for op in warm_up_ops(ops):
        call(zxq.cli.cli_main, op.argv)
    return zxq, ops


def run_rounds(cli_main, ops, seconds, min_rounds=MIN_ROUNDS):
    """Whole rounds until ``seconds`` have passed, at least ``min_rounds``.

    Returns each operation's wall and CPU time, median over the rounds,
    every round's exit codes and standard output, and the last round's
    results.  The per-operation median drops the rounds in which another
    process held the core.
    """
    walls, cpus, outputs = [], [], []
    start = time.perf_counter()
    while len(walls) < min_rounds or time.perf_counter() - start < seconds:
        # rewriting an existing file on ext4 forces its writeback
        # (auto_da_alloc); a fresh file stays in the page cache
        for path in (p for op in ops for p in op.writes):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        gc.collect()
        results, wall, cpu = [], [], []
        for op in ops:
            t0, c0 = time.perf_counter(), time.process_time()
            results.append(call(cli_main, op.argv))
            wall.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
        walls.append(wall)
        cpus.append(cpu)
        outputs.append([(r[0], r[1]) for r in results])
    op_wall = [statistics.median(t) for t in zip(*walls)]
    op_cpu = [statistics.median(t) for t in zip(*cpus)]
    return op_wall, op_cpu, outputs, results


def tally(ops, outputs):
    """Failed operations of one round, and problems: unexpected failures,
    rounds that differ.  Every round must repeat the last one exactly, so
    the count does not depend on how many rounds fit in the run."""
    failed, problems = 0, []
    for op, (code, _) in zip(ops, outputs[-1]):
        if code != op.expect_code:
            failed += 1
            if not (op.known_fault and code == 1):
                problems.append(f"{op.label} {' '.join(op.argv)}: exit {code}")
    if any(o != outputs[-1] for o in outputs):
        problems.append("rounds gave different exit codes or output")
    return failed, problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, rounds, overhead):
    own, total, calls = tracer.layer_times()
    counts = tracer.counts

    def s(name):
        return metric(own.get(name, 0.0) / rounds, "s")

    def n(value):
        return metric(value / rounds, "count")

    return {
        "circuits.parse_s": s("circuits.parse"),
        "circuits.to_diagram_s": s("circuits.to_diagram"),
        "circuits.matrix_s": s("circuits.matrix"),
        "circuits.matrix_calls": n(calls["circuits.matrix"]),
        "diagram_io.save_s": s("diagram_io.save"),
        "diagram_io.load_s": s("diagram_io.load"),
        "diagram.digest_s": s("diagram.digest"),
        "diagram.digest_calls": n(calls["diagram.digest"]),
        "diagram.copy_s": s("diagram.copy"),
        "diagram.copy_calls": n(calls["diagram.copy"]),
        "rewrite.simplify_s": s("rewrite.simplify"),
        "rewrite.find_s": s("rewrite.find"),
        "rewrite.find_calls": n(calls["rewrite.find"]),
        "rewrite.apply_s": s("rewrite.apply"),
        "rewrite.apply_calls": n(calls["rewrite.apply"]),
        "rewrite.steps_kept": n(counts["rewrite.steps_kept"]),
        "rewrite.trials_tried": n(counts["rewrite.trials_tried"]),
        "rewrite.trials_kept": n(counts["rewrite.trials_kept"]),
        "rewrite.spiders_in": n(counts["rewrite.spiders_in"]),
        "rewrite.spiders_out": n(counts["rewrite.spiders_out"]),
        "semantics.evaluate_s": metric(total.get("semantics.evaluate", 0.0) / rounds, "s"),
        "semantics.evaluate_calls": n(calls["semantics.evaluate"]),
        "semantics.tensordot_s": s("semantics.tensordot"),
        "semantics.tensordot_calls": n(calls["semantics.tensordot"]),
        "semantics.plan_s": s("semantics.evaluate"),
        "semantics.peak_rank": metric(tracer.peak_rank, "rank"),
        "semantics.compare_s": s("semantics.compare"),
        "phase_algebra.swap_s": s("phase_algebra.swap"),
        "phase_algebra.p_rule_s": s("phase_algebra.p_rule"),
        "phase_algebra.extract_s": s("phase_algebra.extract"),
        "harness.self_s": s("harness.verify"),
        "harness.cases": n(counts["harness.cases"]),
        "cli.self_s": s("cli"),
        "trace.overhead_s": metric(overhead, "s"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "zxq" / "cli.py").is_file():
        print(f"error: no zxq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  third-party imports are not part of set-up
    import networkx  # noqa: F401

    from checks import output_problems, self_test
    from tracer import Tracer

    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(1 if args.trace else SETUPS):
            gc.collect()
            t0 = time.perf_counter()
            zxq, ops = set_up(args.workload, args.seed, workdir)
            setups.append(time.perf_counter() - t0)
        cli_main = zxq.cli.cli_main

        if args.trace:
            plain, _, outputs, results = run_rounds(cli_main, ops, args.seconds / 2, 1)
            tracer = Tracer()
            tracer.install(zxq)
            try:
                traced, _, toutputs, results = run_rounds(
                    tracer.wrap("cli", cli_main), ops, args.seconds / 2, 1)
            finally:
                tracer.restore()
            tracer.write(str(ROOT / ".bench_run" / f"spans-{args.workload}-{args.seed}.json.gz"))
            metrics = layer_metrics(tracer, len(toutputs), sum(traced) - sum(plain))
            outputs += toutputs
        else:
            op_wall, op_cpu, outputs, results = run_rounds(cli_main, ops, args.seconds)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": metric(statistics.median(setups), "s"),
                "run_s": metric(sum(op_wall), "s"),
                "cpu_s": metric(sum(op_cpu), "s"),
                "op_p50_ms": metric(1e3 * statistics.median(op_wall), "ms"),
                "op_p90_ms": metric(1e3 * statistics.quantiles(op_wall, n=10)[8], "ms"),
                "peak_rss_mb": metric(peak_kb / 1024, "MB"),
            }

        failed, problems = tally(ops, outputs)
        problems += output_problems(zxq, args.workload, ops, results)
        problems += self_test(zxq, args.workload, ops, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
