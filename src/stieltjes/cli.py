"""Command-line front end.

Subcommands operate on JSON descriptions (see :mod:`stieltjes.specio`) and
write JSON reports or CSV trajectories. Output is deterministic: floats in
CSV are formatted with 17 significant digits and lines end with a bare
newline, so repeated runs on the same input are byte-identical.

Exit codes: 0 on success; 1 for invalid input (a machine-readable error
object goes to stderr); 2 when a computation degrades (quadrature cap,
failed convergence, horizon selection, right-hand-side breakdown).
"""

from __future__ import annotations

import argparse
import json
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


def _emit_json(doc, out_path: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(header, columns, out_path: str | None):
    """Write columns as CSV: arrays as floats with 17 significant digits, any
    other column as the strings it holds."""
    template = ",".join("%.17g" if isinstance(c, np.ndarray) else "%s" for c in columns)
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    lines = [",".join(header)]
    lines.extend(template % row for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        "variation": {
            "total": d.variation(d.a, d.b, "total"),
            "positive": d.variation(d.a, d.b, "positive"),
            "negative": d.variation(d.a, d.b, "negative"),
        },
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
    signs = [str(int(s)) for s in np.sign(traj.left_values).tolist()]
    columns = (traj.grid, traj.left_values, traj.right_values, signs,
               [lc.regime] * len(signs))
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


def _parse_plume_doc(doc) -> tuple[plume.PlumeParams, plume.AmbientDensity, float, float, float, float | None]:
    doc = specio._expect_dict(doc, "plume")
    pobj = specio._expect_dict(doc.get("params", {}), "plume.params")
    kwargs = {}
    for key in ("entrainment", "mixing", "gravity", "reference_density"):
        if key in pobj:
            kwargs[key] = specio._num(pobj[key], f"plume.params.{key}")
    unknown = set(pobj) - {"entrainment", "mixing", "gravity", "reference_density"}
    if unknown:
        raise SpecValidationError("plume.params", f"unknown fields {sorted(unknown)}")
    try:
        params = plume.PlumeParams(**kwargs)
    except DomainError as exc:
        raise SpecValidationError("plume.params", str(exc)) from exc
    ambient_obj = specio._get(doc, "ambient", "plume")
    rho = specio.parse_derivator(ambient_obj, "plume.ambient")
    try:
        ambient = plume.AmbientDensity(rho)
    except DomainError as exc:
        raise SpecValidationError("plume.ambient", str(exc)) from exc
    init = specio._get(doc, "initial", "plume")
    if isinstance(init, dict):
        q0 = specio._num(specio._get(init, "q", "plume.initial"), "plume.initial.q")
        m0 = specio._num(specio._get(init, "m", "plume.initial"), "plume.initial.m")
        beta0 = specio._num(specio._get(init, "beta", "plume.initial"), "plume.initial.beta")
    else:
        vals = specio._expect_list(init, "plume.initial")
        if len(vals) != 3:
            raise SpecValidationError("plume.initial", "expected [q, m, beta]")
        q0, m0, beta0 = (specio._num(v, f"plume.initial[{i}]") for i, v in enumerate(vals))
    horizon = None
    if doc.get("horizon") is not None:
        horizon = specio._num(doc["horizon"], "plume.horizon")
    return params, ambient, q0, m0, beta0, horizon


def _geometry(states):
    """Radius, velocity and buoyancy of each (q, m, beta) row; nan unless q > 0 and m > 0."""
    geo = np.full(states.shape, np.nan)
    ok = (states[:, 0] > 0) & (states[:, 1] > 0)
    geo[ok] = np.column_stack(plume.flux_to_geometry(*states[ok].T))
    return geo


def _cmd_plume(args) -> int:
    params, ambient, q0, m0, beta0, horizon = _parse_plume_doc(
        specio.load_json(args.plume, "plume")
    )
    try:
        spec = plume.build_plume_system(params, ambient, q0, m0, beta0)
    except DomainError as exc:
        raise SpecValidationError("plume.initial", str(exc)) from exc
    spec.horizon = horizon
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
    summary["buoyancy_jumps"] = [
        {
            "height": r.height,
            "beta_left": r.beta_left,
            "beta_right": r.beta_right,
            "expected_jump": r.expected_jump,
            "residual_ulps": r.residual_ulps,
        }
        for r in audit.buoyancy_jumps
    ]
    summary["jumps_exact"] = audit.jumps_exact
    summary["volume_continuous"] = audit.volume_continuous
    summary["momentum_continuous"] = audit.momentum_continuous
    summary["min_momentum"] = audit.min_momentum
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

    return parser


# built on first use and kept: parsing leaves no state on the parser, and
# building it costs more than a small subcommand does
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
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
    sys.stderr.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
