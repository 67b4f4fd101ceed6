"""Output checks: one function per subcommand, each returning None or a reason.

Every check reads only what the CLI wrote (stdout, stderr, the ``-o`` file)
and the op's generated inputs; the references come from :mod:`oracle`.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracle


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def _parse_csv(text: str):
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:-1]]


def check_error(op, stderr: str) -> str | None:
    err = json.loads(stderr)["error"]
    if err["type"] != op.check["error"]:
        return f"expected {op.check['error']}, got {err['type']}"
    return None


def check_integrate(op, out: str, _file) -> str | None:
    c = op.check
    want, scale = oracle.integral(c["doc"], c["coeffs"], c["lo"], c["hi"], c["signature"])
    got = json.loads(out)["value"]
    if not _close(got, want, 1e-8 * max(1.0, scale)):
        return f"integral {got!r} vs closed form {want!r}"
    return None


def check_derive(op, out: str, _file) -> str | None:
    c = op.check
    rows = json.loads(out)["points"]
    if [r["t"] for r in rows] != c["points"]:
        return "derive reported other points than requested"
    for row in rows:
        want = oracle.derivative(c["doc"], c["coeffs"], row["t"])
        if not _close(row["derivative"], want, 1e-6 * max(1.0, abs(want))):
            return f"derivative at {row['t']!r}: {row['derivative']!r} vs {want!r}"
    return None


def check_decompose(op, out: str, _file) -> str | None:
    doc = json.loads(out)
    want = oracle.structure(op.check["doc"])
    if doc["sets"] != want["sets"]:
        return "structural sets differ from the closed form"
    for key, value in want["variation"].items():
        if not _close(doc["variation"][key], value, 1e-12 * max(1.0, value)):
            return f"{key} variation {doc['variation'][key]!r} vs {value!r}"
    return None


def check_ftc(op, out: str, _file) -> str | None:
    doc = json.loads(out)
    if not (doc["passed"] and doc["max_deviation"] < op.check["tol"]):
        return f"FTC deviation {doc['max_deviation']!r} not below {op.check['tol']}"
    if doc["grid_points"] < 2:
        return "empty grid"
    return None


def check_exp_verify(op, out: str, _file) -> str | None:
    doc = json.loads(out)
    ref = oracle.ExpReference(op.check["doc"], op.check["coeffs"])
    if not doc["jump_identity_exact"]:
        return "jump identity e(t+) == e(t) * factor is not exact"
    if not doc["passed"] or doc["max_residual"] >= 1e-6:
        return f"integral-identity residual {doc['max_residual']!r}"
    if doc["regime"] != ref.regime:
        return f"regime {doc['regime']} vs {ref.regime}"
    return None


def check_exp_csv(op, out: str, _file) -> str | None:
    header, rows = _parse_csv(out)
    if header != ["t", "value", "value_right", "sign", "regime"]:
        return f"unexpected header {header}"
    ref = oracle.ExpReference(op.check["doc"], op.check["coeffs"])
    ts = np.array([float(r[0]) for r in rows])
    left = np.array([float(r[1]) for r in rows])
    right = np.array([float(r[2]) for r in rows])
    if ts[0] != 0.0 or ts[-1] != 1.0 or np.any(np.diff(ts) <= 0):
        return "grid does not run strictly from 0 to 1"
    if left[0] != 1.0:
        return f"e(a) = {left[0]!r}, not 1"
    if any(r[4] != ref.regime for r in rows):
        return f"regime column differs from {ref.regime}"
    for t, e, er in zip(ts, left, right):
        if er != e * ref.factor(t):
            return f"e(t+) != e(t) * factor at t={t!r}"
    if any(int(r[3]) != np.sign(e) for r, e in zip(rows, left)):
        return "sign column disagrees with the values"
    sample = np.unique(np.concatenate([
        np.linspace(0, len(ts) - 1, 24).astype(int),
        np.nonzero(right != left)[0],
    ]))
    for k in sample:
        want = ref.value(ts[k])
        if not _close(left[k], want, 1e-6 * max(1.0, abs(want))):
            return f"e({ts[k]!r}) = {left[k]!r} vs closed form {want!r}"
    return None


def _rhs_at(rhs: dict, t: float, x: np.ndarray) -> np.ndarray:
    """The catalog right-hand sides, written with the same float expressions."""
    kind = rhs["kind"]
    if kind == "zero":
        return np.zeros(len(x))
    if kind == "linear":
        return np.array(rhs["coefficients"]) * x
    if kind == "polynomial":
        return np.array([np.polynomial.polynomial.polyval(t, np.array(p))
                         for p in rhs["coefficients"]])
    if kind == "tabulated":
        arr = np.array(rhs["points"])
        return np.array([np.interp(t, arr[:, 0], arr[:, 1 + j]) for j in range(len(x))])
    q, m, beta = x
    return np.array([rhs["A"] * m ** 0.25, rhs["B"] * q * beta, rhs["C"] * q])


def _jump_rows(header, rows, derivs, rhs, first_col: int):
    """Check every R row against left + f(t, left) * delta, bit for bit."""
    deltas: dict[float, np.ndarray] = {}
    for j, d in enumerate(derivs):
        for jmp in d.get("jumps", []):
            deltas.setdefault(jmp["at"], np.zeros(len(derivs)))[j] = jmp["delta"]
    prev = None
    seen = []
    for row in rows:
        t = float(row[0])
        x = np.array([float(v) for v in row[first_col:first_col + len(derivs)]])
        if row[1] == "R":
            if prev is None or prev[0] != t or t not in deltas:
                return None, f"right row at t={t!r} without a jump"
            dk = deltas[t]
            want = prev[1].copy()
            moved = dk != 0.0
            want[moved] = prev[1][moved] + _rhs_at(rhs, t, prev[1])[moved] * dk[moved]
            if not np.array_equal(x, want):
                return None, f"jump at t={t!r} is not left + f(left) * delta exactly"
            seen.append(t)
        prev = (t, x)
    return seen, None


def check_solve(op, out: str, csv_text: str) -> str | None:
    c = op.check
    doc = c["doc"]
    summary = json.loads(out)
    header, rows = _parse_csv(csv_text)
    dim = len(doc["derivators"])
    if header != ["t", "side", *(f"x{j + 1}" for j in range(dim))]:
        return f"unexpected header {header}"
    if summary["method"] != "euler" or not summary["converged"]:
        return "summary is not a converged Euler run"
    if summary["jump_audit_max_ulps"] != 0.0:
        return f"jump audit at {summary['jump_audit_max_ulps']} ulps"
    tau = summary["tau_star"]
    if float(rows[-1][0]) != tau or float(rows[0][0]) != 0.0:
        return "trajectory does not run from 0 to tau_star"
    dom = doc["bound"]["dominators"][0]["value"]
    radius = doc["bound"]["radius"]
    if not 0.0 < tau <= 1.0:
        return f"tau_star {tau!r} outside (0, 1]"
    mass = max(dom * oracle.total_variation_before(d, tau) for d in doc["derivators"])
    if mass > radius * (1.0 + 1e-9):
        return f"dominator mass {mass!r} before tau_star exceeds radius {radius!r}"
    jump_times = sorted({j["at"] for d in doc["derivators"] for j in d["jumps"] if j["at"] <= tau})
    seen, reason = _jump_rows(header, rows, doc["derivators"], doc["rhs"], 2)
    if reason:
        return reason
    if seen != jump_times:
        return f"right rows at {seen} but jumps at {jump_times}"
    together = sorted(t for t in jump_times
                      if sum(any(j["at"] == t for j in d["jumps"]) for d in doc["derivators"]) > 1)
    if summary["simultaneous_jumps"] != together:
        return f"simultaneous jumps {summary['simultaneous_jumps']} vs {together}"
    audit_rows = sum(1 for d in doc["derivators"] for j in d["jumps"] if j["at"] <= tau)
    if summary["jump_audit_rows"] != audit_rows:
        return f"{summary['jump_audit_rows']} audit rows, expected {audit_rows}"
    if doc["rhs"]["kind"] == "zero":
        init = np.array(doc["initial"])
        if any(not np.array_equal([float(v) for v in r[2:]], init) for r in rows):
            return "zero right-hand side moved the state"
    return None


def check_plume(op, out: str, csv_text: str) -> str | None:
    doc = op.check["doc"]
    summary = json.loads(out)
    header, rows = _parse_csv(csv_text)
    if header != ["z", "side", "q", "m", "beta", "b", "w", "theta"]:
        return f"unexpected header {header}"
    if summary["method"] != "picard" or not summary["converged"]:
        return "Picard sweep did not converge"
    if summary["jump_audit_max_ulps"] != 0.0 or not summary["jumps_exact"]:
        return "interface jumps are not exact"
    if not (summary["volume_continuous"] and summary["momentum_continuous"]):
        return "volume or momentum flux jumped"
    ambient = doc["ambient"]
    jumps = ambient["jumps"]
    if [r["height"] for r in summary["buoyancy_jumps"]] != [j["at"] for j in jumps]:
        return "buoyancy jump rows do not match the interfaces"
    if any(r["residual_ulps"] != 0.0 for r in summary["buoyancy_jumps"]):
        return "a buoyancy jump is off by some ulps"
    lam2 = doc["params"]["mixing"] ** 2
    rhs = {"kind": "plume", "A": 2.0 * doc["params"]["entrainment"],
           "B": 4.0 * 9.81 * lam2, "C": 1.0 / (lam2 * (1.0 + lam2) * 1000.0)}
    derivs = [{"jumps": []}, {"jumps": []}, ambient]
    seen, reason = _jump_rows(header, rows, derivs, rhs, 2)
    if reason:
        return reason
    if seen != [j["at"] for j in jumps]:
        return f"right rows at {seen}, interfaces at {[j['at'] for j in jumps]}"
    if float(rows[0][0]) != 0.0 or float(rows[-1][0]) != ambient["interval"][1]:
        return "profile does not span the ambient"
    for row in rows[:: max(1, len(rows) // 16)]:
        q, m, beta, b, w, theta = (float(v) for v in row[2:])
        want = (q * m ** -0.25, math.sqrt(m) / q, beta / q)
        if any(not _close(g, e, 1e-12 * abs(e)) for g, e in zip((b, w, theta), want)):
            return f"geometry columns inconsistent at z={row[0]}"
    return None


CHECKS = {
    "integrate": check_integrate,
    "derive": check_derive,
    "decompose": check_decompose,
    "ftc-check": check_ftc,
    "exp": check_exp_csv,
    "exp-verify": check_exp_verify,
    "solve": check_solve,
    "plume": check_plume,
}


def check(op, code, stdout: str, stderr: str, file_text: str | None) -> str | None:
    """None when the op's outcome matches its reference, else the reason."""
    if code != op.expect_exit:
        return f"exit {code}, expected {op.expect_exit}"
    try:
        if op.expect_exit:
            return check_error(op, stderr)
        return CHECKS[op.kind](op, stdout, file_text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
