"""Command-line front end.

Subcommands operate on JSON descriptions (see :mod:`stieltjes.specio`) and
write JSON reports or CSV trajectories. Output is deterministic: floats in
CSV are formatted with 17 significant digits and lines end with a bare
newline, so repeated runs on the same input are byte-identical.

Exit codes: 0 on success; 1 for invalid input (a machine-readable error
object goes to stderr); 2 when a computation degrades (quadrature cap,
failed convergence, horizon selection, right-hand-side breakdown).

Every JSON document (the reports, the solver summaries and the error object)
is written by one recursive writer, :func:`_json_text`, with the bytes of
``json.dumps(doc, indent=2, sort_keys=True)``; it uses the stdlib's C string
encoder and ``float.__repr__``, while ``json.dumps`` with an indent runs its
pure-Python encoder. Argv takes a fast path, :func:`_quick_args`, which reads
the subcommand parser's own actions: positionals in order and options spelled
out in full, each with its value in the next token. Anything else (an
abbreviation, ``--opt=value``, ``--``, ``-h``, a repeated store option, a
value that starts with ``-``, a missing value or positional, a bad type or
choice) goes to the full argparse parser, which prints every usage and error
text.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import calculus, exponential, measure, plume, solver, specio
from .errors import (
    ConvergenceError,
    DomainError,
    HorizonSelectionError,
    QuadratureError,
    RhsEvaluationError,
    SpecValidationError,
    UndefinedPointError,
)

_INPUT_ERRORS = (SpecValidationError, DomainError, UndefinedPointError)
_DEGRADED_ERRORS = (QuadratureError, ConvergenceError, HorizonSelectionError,
                    RhsEvaluationError)


def _write(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(o, indent: str = "\n") -> str:
    """``json.dumps(o, indent=2, sort_keys=True)`` of an acyclic document with
    string keys, from the stdlib's C pieces; ``indent`` is the newline and
    indent of o's line."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return (float.__repr__(o) if math.isfinite(o) else "NaN" if o != o
                else "Infinity" if o > 0 else "-Infinity")
    inner = indent + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return f"[{inner}{(',' + inner).join([_json_text(v, inner) for v in o])}{indent}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [f"{_encode_str(k)}: {_json_text(v, inner)}" for k, v in sorted(o.items())]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit_json(doc, out_path: str | None):
    _write(_json_text(doc) + "\n", out_path)


def _emit_csv(header, columns, out_path: str | None):
    """Write columns as CSV: arrays as floats with 17 significant digits, any
    other column as the strings it holds."""
    template = ",".join("%.17g" if isinstance(c, np.ndarray) else "%s" for c in columns)
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    _write("\n".join([",".join(header), *map(template.__mod__, rows)]) + "\n", out_path)


# ------------------------------------------------------------- subcommands

def _cmd_decompose(args) -> int:
    d = specio.parse_derivator(specio.load_json(args.derivator, "derivator"))
    sets = d.structural_sets()
    doc = {
        "derivator": specio.serialize_derivator(d),
        "sets": {
            "D_plus": list(sets.jumps_up),
            "D_minus": list(sets.jumps_down),
            "Lambda_plus": [list(iv) for iv in sets.rising],
            "Lambda_minus": [list(iv) for iv in sets.falling],
            "C": [list(iv) for iv in sets.constant],
        },
        "variation": dict(zip(("positive", "negative", "total"), d._variations(d.a, d.b))),
    }
    _emit_json(doc, args.output)
    return 0


def _cmd_integrate(args) -> int:
    d = specio.parse_derivator(specio.load_json(args.derivator, "derivator"))
    f = specio.parse_integrand(specio.load_json(args.integrand, "integrand"))
    lo = args.lo if args.lo is not None else d.a
    hi = args.hi if args.hi is not None else d.b
    m = measure.StieltjesMeasure(d, args.measure)
    value = m.integrate(f, lo, hi, rel_tol=args.rel_tol)
    _emit_json({
        "value": value,
        "signature": args.measure,
        "interval": [lo, hi],
    }, args.output)
    return 0


def _cmd_derive(args) -> int:
    d = specio.parse_derivator(specio.load_json(args.derivator, "derivator"))
    f = specio.parse_integrand(specio.load_json(args.function, "function"))
    points = []
    for t in args.at:
        points.append({
            "t": t,
            "derivative": calculus.g_derivative_fn(f, d, t, rel_tol=args.rel_tol),
        })
    _emit_json({"points": points}, args.output)
    return 0


def _cmd_ftc_check(args) -> int:
    d = specio.parse_derivator(specio.load_json(args.derivator, "derivator"))
    v = specio.parse_integrand(specio.load_json(args.integrand, "integrand"))
    m = measure.StieltjesMeasure(d, measure.SIGNED)
    h = calculus.primitive(m, v, grid_hint=args.grid_hint)
    report = calculus.ftc_roundtrip(h, pass_tol=args.tol)
    _emit_json({
        "max_deviation": report.max_deviation,
        "passed": report.passed,
        "excluded_points": report.excluded_points,
        "grid_points": int(len(report.grid)),
    }, args.output)
    return 0


# the sign column's text for np.sign -1, 0 and 1; a trajectory holds no NaN
_SIGN_TEXT = np.array(["-1", "0", "1"])


def _cmd_exp(args) -> int:
    d = specio.parse_derivator(specio.load_json(args.derivator, "derivator"))
    c = specio.parse_integrand(specio.load_json(args.coefficient, "coefficient"))
    lc = exponential.LinearCoefficient(d, c)
    if args.verify:
        report = exponential.verify_linear_solution(
            lc, grid_hint=args.grid_hint, pass_tol=args.tol
        )
        _emit_json({
            "max_residual": report.max_residual,
            "passed": report.passed,
            "jump_identity_exact": report.jump_identity_exact,
            "regime": report.regime,
            "warnings": list(report.warnings),
        }, args.output)
        return 0
    traj = exponential.GExponential(lc).trajectory(grid_hint=args.grid_hint)
    signs = _SIGN_TEXT[np.sign(traj.left_values).astype(int) + 1].tolist()
    # each value formatted once: a right value with the left value's bits takes its text
    left, right = traj.left_values, traj.right_values
    values = list(map("%.17g".__mod__, left.tolist()))
    values_right = values.copy()
    for k in np.flatnonzero(left.view(np.int64) != right.view(np.int64)).tolist():
        values_right[k] = "%.17g" % right[k]
    columns = (traj.grid, values, values_right, signs, [lc.regime] * len(signs))
    _emit_csv(("t", "value", "value_right", "sign", "regime"), columns, args.output)
    return 0


def _sided_rows(report):
    """Times, sides and states of the trajectory CSV: an ``L`` row per grid
    time, followed by an ``R`` row where some component jumps (the times of
    the jump audit)."""
    jumps = np.isin(report.grid, [r.time for r in report.jump_audit])
    per_time = 1 + jumps
    right_rows = np.cumsum(per_time)[jumps] - 1
    left = np.stack([tr.left_values for tr in report.trajectories], axis=1)
    right = np.stack([tr.right_values for tr in report.trajectories], axis=1)
    states = np.repeat(left, per_time, axis=0)
    states[right_rows] = right[jumps]
    sides = ["L"] * len(states)
    for k in right_rows.tolist():
        sides[k] = "R"
    return np.repeat(report.grid, per_time), sides, states


def _solve_summary(report, tau_star=None):
    max_ulps = max((r.residual_ulps for r in report.jump_audit), default=0.0)
    doc = {
        "method": report.method,
        "converged": report.converged,
        "iterations": report.iterations,
        "last_change": report.last_change,
        "error_estimate": report.error_estimate,
        "jump_audit_rows": len(report.jump_audit),
        "jump_audit_max_ulps": max_ulps,
        "simultaneous_jumps": list(report.simultaneous_jumps),
        "warnings": list(report.warnings),
    }
    if tau_star is not None:
        doc["tau_star"] = tau_star
    return doc


def _cmd_solve(args) -> int:
    doc = specio.load_json(args.system, "system")
    spec, bound = specio.parse_system(doc)
    tau = None
    if args.select_horizon:
        if bound is None:
            raise SpecValidationError(
                "system.bound", "horizon selection needs a bound with radius and dominators"
            )
        tau = solver.select_horizon(spec, bound, mesh=args.mesh)
        spec.horizon = tau
    config = solver.SolveConfig(
        mesh=args.mesh,
        picard=not args.euler,
        tol=args.tol,
        max_iter=args.max_iter,
        safety_radius=bound.radius if (bound is not None and args.euler) else None,
    )
    report = solver.solve(spec, config)
    header = ("t", "side", *(f"x{j + 1}" for j in range(spec.dim)))
    times, sides, states = _sided_rows(report)
    return _write_solution(report, header, (times, sides, *states.T), args.output,
                           lambda: _solve_summary(report, tau))


def _write_solution(report, header, columns, out_path, summary) -> int:
    """Write the trajectory CSV; when it goes to a file, ``summary()`` goes to
    stdout as JSON. Raises ConvergenceError after writing when the run did not
    converge."""
    _emit_csv(header, columns, out_path)
    if out_path:
        _emit_json(summary(), None)
    if not report.converged:
        raise ConvergenceError(
            "solver did not reach tolerance; partial results were written",
            report.last_change,
        )
    return 0


def _geometry(states):
    """Radius, velocity and buoyancy of each (q, m, beta) row; nan unless q > 0 and m > 0."""
    geo = np.full(states.shape, np.nan)
    ok = (states[:, 0] > 0) & (states[:, 1] > 0)
    geo[ok] = np.column_stack(plume.flux_to_geometry(*states[ok].T))
    return geo


def _cmd_plume(args) -> int:
    spec = specio.parse_plume(specio.load_json(args.plume, "plume"))
    config = solver.SolveConfig(mesh=args.mesh, picard=True, tol=args.tol,
                                max_iter=args.max_iter)
    report = solver.solve(spec, config)
    heights, sides, states = _sided_rows(report)
    columns = (heights, sides, *states.T, *_geometry(states).T)
    header = ("z", "side", "q", "m", "beta", "b", "w", "theta")
    return _write_solution(report, header, columns, args.output, lambda: _plume_summary(report))


def _plume_summary(report) -> dict:
    audit = plume._audit_plume(report)
    summary = _solve_summary(report)
    fields = ("height", "beta_left", "beta_right", "expected_jump", "residual_ulps")
    summary["buoyancy_jumps"] = [{key: getattr(r, key) for key in fields}
                                 for r in audit.buoyancy_jumps]
    for key in ("jumps_exact", "volume_continuous", "momentum_continuous", "min_momentum"):
        summary[key] = getattr(audit, key)
    summary["warnings"] = list(report.warnings) + list(audit.warnings)
    return summary


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stieltjes",
        description="Stieltjes calculus for piecewise-monotone derivators with jumps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="structural sets and variation of a derivator")
    p.add_argument("derivator", help="derivator JSON file")
    p.add_argument("-o", "--output", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("integrate", help="integrate a function against a derivator measure")
    p.add_argument("derivator")
    p.add_argument("integrand", help="integrand JSON file")
    p.add_argument("--measure", default=measure.SIGNED,
                   choices=[measure.SIGNED, measure.POSITIVE_PART,
                            measure.NEGATIVE_PART, measure.TOTAL_VARIATION])
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("derive", help="derivative of a function with respect to a derivator")
    p.add_argument("derivator")
    p.add_argument("function", help="function JSON file (integrand format)")
    p.add_argument("--at", type=float, action="append", required=True,
                   help="evaluation point (repeatable)")
    p.add_argument("--rel-tol", type=float, default=1e-8)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("ftc-check",
                       help="integrate, differentiate back, report the worst deviation")
    p.add_argument("derivator")
    p.add_argument("integrand")
    p.add_argument("--grid-hint", type=int, default=1024)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_ftc_check)

    p = sub.add_parser("exp", help="exponential of a linear coefficient along a derivator")
    p.add_argument("derivator")
    p.add_argument("coefficient", help="coefficient JSON file (integrand format)")
    p.add_argument("--grid-hint", type=int, default=512)
    p.add_argument("--verify", action="store_true",
                   help="emit a verification report instead of the trajectory CSV")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_exp)

    p = sub.add_parser("solve", help="integrate a measure-driven system")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--mesh", type=int, default=1024)
    p.add_argument("--euler", action="store_true",
                   help="use the forward Euler scheme instead of fixed-point iteration")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=25)
    p.add_argument("--select-horizon", action="store_true",
                   help="pick the largest certified horizon from the system's bound")
    p.add_argument("-o", "--output",
                   help="write the trajectory CSV here; the summary JSON then goes to stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("plume", help="plume rise through a layered ambient density")
    p.add_argument("plume", help="plume JSON file")
    p.add_argument("--mesh", type=int, default=2048)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=25)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_plume)

    parser.commands = sub.choices  # each subcommand's own parser, by name, for main
    return parser


# built on first use and kept: parsing leaves no state on the parser, and
# building it costs more than a small subcommand does
_PARSER: argparse.ArgumentParser | None = None

# the action classes the argv fast path reads: one value each, or none for the flag
_STORE, _APPEND, _FLAG = argparse._StoreAction, argparse._AppendAction, argparse._StoreTrueAction


def _quick_args(parser: argparse.ArgumentParser, tokens):
    """``parser.parse_args(tokens)``'s namespace, read from the parser's own
    actions, or None. It reads tokens that are each a positional, in order, or
    an option spelled out in full (store, append or store_true) with its value
    in the next token; every value passes its type and choices, no store option
    repeats and no required argument is missing. Any other argv, a token or
    value that starts with "-" included, gives None and goes to the parser."""
    actions = parser._actions
    ns = {a.dest: a.default for a in actions
          if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS}
    for dest, value in parser._defaults.items():
        ns.setdefault(dest, value)
    positionals = iter([a for a in actions if not a.option_strings])
    seen = set()
    tokens = iter(tokens)
    try:
        for token in tokens:
            if token[:1] == "-":
                action = parser._option_string_actions.get(token)
                kind = type(action)
                if kind not in (_STORE, _APPEND, _FLAG) or (kind is _STORE and action in seen):
                    return None
                seen.add(action)
                if kind is _FLAG:
                    ns[action.dest] = action.const
                    continue
                token = next(tokens, "-")
                if token[:1] == "-":
                    return None
            else:
                action = next(positionals, None)
                if action is None:
                    return None
                seen.add(action)
            if action.nargs is not None:
                return None
            value = parser._get_value(action, token)
            parser._check_value(action, value)
            ns[action.dest] = [*(ns[action.dest] or ()), value] if type(action) is _APPEND else value
        for action in actions:
            if action in seen:
                continue
            if action.required or not action.option_strings:
                return None
            # the parser converts a string default of an option it did not see
            if isinstance(action.default, str) and ns.get(action.dest) is action.default:
                ns[action.dest] = parser._get_value(action, action.default)
    except argparse.ArgumentError:
        return None
    return argparse.Namespace(**ns)


def main(argv=None) -> int:
    """Run the subcommand ``argv`` (default ``sys.argv[1:]``) names. The argv fast
    path (:func:`_quick_args`) reads the rest from the subcommand parser's actions;
    when it cannot, or argv names no subcommand, the full parser reads all of
    argv and prints its usage and error texts."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = _PARSER.commands.get(argv[0]) if argv else None
    args = _quick_args(sub, argv[1:]) if sub else None
    if args is None:
        args = _PARSER.parse_args(argv)
    else:
        args.command = argv[0]
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        _emit_error(exc)
        return 1
    except _DEGRADED_ERRORS as exc:
        _emit_error(exc)
        return 2
    except BrokenPipeError:
        # downstream reader (say `head`) closed stdout; park the fd on
        # devnull so the interpreter's exit flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _emit_error(exc: Exception):
    doc = {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "path": getattr(exc, "path", None),
        }
    }
    sys.stderr.write(_json_text(doc) + "\n")


if __name__ == "__main__":
    sys.exit(main())
