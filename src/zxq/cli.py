"""Command-line interface.

Subcommands: ``eval``, ``check``, ``simplify``, ``euler``, ``verify``,
``fixtures``.  Exit codes: 0 success, 1 verification or equivalence
failure, 2 usage/parse errors.  ``ZXQ_TOL`` overrides the default
tolerance; ``--tol`` overrides both.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import diagram_io
from .circuits import (
    ZxcSyntaxError,
    circuit_matrix,
    circuit_to_diagram,
    export_fixtures,
    load_circuit,
)
from .diagram_io import ZxgFormatError
from .harness import verify_p_formulas, verify_relations, verify_rules
from .phase import Phase, parse_phase
from .phase_algebra import EulerTriple, p_rule_angles
from .rewrite import simplify
from .semantics import (
    DEFAULT_ENTRY_CAP, DEFAULT_TOL, ResourceLimitError, equal_up_to_scalar, evaluate, matrix_to_text
)


class UsageError(Exception):
    pass


def _tolerance(args) -> float:
    if getattr(args, "tol", None) is not None:
        tol, source = args.tol, "--tol"
    else:
        env = os.environ.get("ZXQ_TOL")
        if env is None:
            return DEFAULT_TOL
        try:
            tol, source = float(env), "ZXQ_TOL"
        except ValueError:
            raise UsageError(f"bad ZXQ_TOL value {env!r}") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise UsageError(f"{source} must be finite and at least 0, got {tol:g}")
    return tol


def _load_matrix(path: str, cap: int = DEFAULT_ENTRY_CAP) -> np.ndarray:
    """A .zxc file goes through the gate-matrix oracle, a .zxg through
    diagram evaluation with intermediate tensors of at most ``cap`` entries."""
    if path.endswith(".zxc"):
        return circuit_matrix(load_circuit(path))
    return evaluate(_load_diagram(path), max_entries=cap)


def _load_diagram(path: str):
    if path.endswith(".zxc"):
        return circuit_to_diagram(load_circuit(path))
    if path.endswith(".zxg"):
        return diagram_io.load(path)
    raise UsageError(f"unknown file type (want .zxc or .zxg): {path!r}")


def _phase_arg(text: str) -> Phase:
    """A phase in the ``.zxc`` grammar, or plain radians."""
    try:
        rad = float(text)
    except ValueError:
        if "/" not in text and not text.startswith("f:"):
            raise UsageError(f"bad phase {text!r} (want p/d, f:<float> or plain radians)") from None
        return parse_phase(text)
    return Phase.approx(rad)


def _cmd_eval(args) -> int:
    if args.cap < 1:
        raise UsageError(f"--cap must be at least 1, got {args.cap}")
    sys.stdout.write(matrix_to_text(_load_matrix(args.file, args.cap)))
    return 0


def _cmd_check(args) -> int:
    tol = _tolerance(args)
    a = _load_matrix(args.a)
    b = _load_matrix(args.b)
    if a.shape != b.shape:
        print(f"shapes differ: {a.shape} vs {b.shape}", file=sys.stderr)
        return 1
    v = equal_up_to_scalar(a, b, tol)
    if v.equal and v.scalar is None:
        print("equal: both are the zero map")
        return 0
    if v.equal:
        print(f"equal up to scalar {v.scalar:.9g} (residual {v.residual:.3e})")
        return 0
    print(f"not equal (residual {v.residual:.3e})")
    return 1


def _cmd_simplify(args) -> int:
    d = _load_diagram(args.input)
    budget = {} if args.budget is None else {"step_budget": args.budget}
    out, trace = simplify(d, full=args.full, **budget)
    diagram_io.save(out, args.output)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            f.write("\n".join(trace.export_lines()))
            if trace.steps:
                f.write("\n")
    if trace.truncated:
        print("step budget exhausted; wrote best-so-far", file=sys.stderr)
    print(f"{len(trace.steps)} steps, wrote {args.output}")
    return 0


def _cmd_euler(args) -> int:
    t = EulerTriple(_phase_arg(args.alpha), _phase_arg(args.beta), _phase_arg(args.gamma))
    out = p_rule_angles(t)
    a, b, g = out.radians
    print(f"{a:.15g} {b:.15g} {g:.15g}")
    return 0


def _cmd_verify(args) -> int:
    if args.samples is not None and args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    tol = _tolerance(args)
    samples = {} if args.samples is None else {"samples": args.samples}
    if args.campaign == "rules":
        rep = verify_rules(seed=args.seed, tol=tol, **samples)
    elif args.campaign == "relations":
        rep = verify_relations(tol=tol)
    else:
        rep = verify_p_formulas(seed=args.seed, tol=tol, **samples)
    sys.stdout.write(rep.render_body())
    print(f"# wall time: {rep.wall_time:.2f}s", file=sys.stderr)
    return 0 if rep.passed else 1


def _cmd_fixtures(args) -> int:
    paths = export_fixtures(args.directory)
    print(f"wrote {len(paths)} files to {args.directory}")
    return 0


_TOL_HELP = "bound on the relative residual, finite and at least 0 (default 1e-9, or ZXQ_TOL)"


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zxq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="print the matrix of a .zxc or .zxg file")
    pe.add_argument("file")
    pe.add_argument(
        "--cap", type=int, default=DEFAULT_ENTRY_CAP,
        help="entry cap on intermediate tensors when contracting a .zxg (at least 1); "
        "a .zxc goes through the gate-matrix oracle and ignores it",
    )
    pe.set_defaults(func=_cmd_eval)

    pc = sub.add_parser("check", help="equivalence of two files up to a scalar")
    pc.add_argument("a")
    pc.add_argument("b")
    pc.add_argument("--tol", type=float, default=None, help=_TOL_HELP)
    pc.set_defaults(func=_cmd_check)

    ps = sub.add_parser("simplify", help="rewrite a diagram to a smaller one")
    ps.add_argument("input")
    ps.add_argument("-o", "--output", required=True)
    ps.add_argument("--trace", default=None, help="write the rewrite trace here")
    ps.add_argument("--budget", type=int, default=None)
    ps.add_argument("--full", action="store_true", help="enable colour-change and chain-swap passes")
    ps.set_defaults(func=_cmd_simplify)

    pu = sub.add_parser("euler", help="colour-swap angles of a Z-X-Z chain")
    pu.add_argument("alpha", help="phase as p/d (times pi), f:<radians>, or plain radians")
    pu.add_argument("beta")
    pu.add_argument("gamma")
    pu.set_defaults(func=_cmd_euler)

    pv = sub.add_parser("verify", help="run a verification campaign")
    pv.add_argument("campaign", choices=("rules", "relations", "pformulas"))
    pv.add_argument("--seed", type=lambda s: int(s) % (1 << 64), default=0)
    pv.add_argument("--samples", type=int, default=None, help="at least 1; relations ignores it")
    pv.add_argument("--tol", type=float, default=None, help=_TOL_HELP)
    pv.set_defaults(func=_cmd_verify)

    pf = sub.add_parser("fixtures", help="fixture corpus utilities")
    fsub = pf.add_subparsers(dest="fixtures_command", required=True)
    pfe = fsub.add_parser("export", help="write the .zxc fixture assets to a directory")
    pfe.add_argument("directory")
    pfe.set_defaults(func=_cmd_fixtures)

    return p


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (
        UsageError, ZxcSyntaxError, ZxgFormatError, ValueError, OSError, ResourceLimitError
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
