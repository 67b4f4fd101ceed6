"""Shared corpus generators and independent oracles for the test suite.

The oracles deliberately avoid the library's own integration and variation
code paths: variation is measured as a partition sum over a dyadic grid
augmented with run boundaries and points just past each jump, and integrals
are midpoint Riemann-Stieltjes sums at dyadic level 16 against the continuous
part of the derivator plus exact atom terms.
"""

import numpy as np

from stieltjes.derivator import (
    ConstantProfile,
    Derivator,
    Jump,
    LinearProfile,
    PowerProfile,
    Segment,
    TabulatedProfile,
)

# offset used to isolate each jump in its own partition cell
_JUMP_EPS = 2.0 ** -48


def make_profile(rng, lo, hi):
    kind = rng.choice(["linear", "linear", "power", "constant", "tabulated"])
    if kind == "linear":
        return LinearProfile(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
    if kind == "power":
        return PowerProfile(rng.uniform(0.5, 3.0),
                            rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
    if kind == "constant":
        return ConstantProfile()
    n = int(rng.integers(3, 9))
    # knots on a coarse lattice strictly inside the segment, so they stay
    # well separated no matter how narrow the segment is
    lattice = lo + (hi - lo) * np.arange(1, 33) / 34.0
    xs = np.sort(rng.choice(lattice, size=n, replace=False))
    ys = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, size=n - 1))])
    if rng.random() < 0.5:
        ys = -ys
    return TabulatedProfile(tuple(zip(xs.tolist(), ys.tolist())))


def random_derivator(rng, a=0.0, b=1.0):
    """1 to 5 monotone segments, 0 to 3 jumps at segment starts."""
    nseg = int(rng.integers(1, 6))
    if nseg > 1:
        cuts = np.sort(rng.choice(np.arange(1, 32), size=nseg - 1, replace=False))
        edges = np.concatenate([[a], a + (b - a) * cuts / 32.0, [b]])
    else:
        edges = np.array([a, b])
    segments = [
        Segment(lo, hi, make_profile(rng, lo, hi))
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    njump = int(rng.integers(0, 4))
    sites = rng.choice(edges[:-1], size=min(njump, len(edges) - 1), replace=False)
    jumps = [
        Jump(float(at), float(rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])))
        for at in sites
    ]
    anchor = float(rng.normal(scale=0.5))
    return Derivator((a, b), segments, jumps, anchor=anchor)


def random_polynomial_coeffs(rng, max_degree=4):
    degree = int(rng.integers(0, max_degree + 1))
    return rng.uniform(-2.0, 2.0, size=degree + 1)


def random_subinterval(rng, d):
    lo, hi = sorted(rng.uniform(d.a, d.b, size=2))
    if hi - lo < 1e-3:
        lo, hi = d.a, d.b
    return float(lo), float(hi)


def variation_oracle(d, lo, hi, kind="total", level=12):
    """Partition sum of |g(t_{i+1}) - g(t_i)| with sign splitting.

    The partition is a dyadic grid joined with every run boundary and, for
    each jump, a point just past the jump so the atom lands in a cell of its
    own. For piecewise-monotone derivators this telescopes to the exact
    variation up to the width of those slivers.
    """
    pts = {float(lo), float(hi)}
    pts.update(np.linspace(lo, hi, 2 ** level + 1).tolist())
    for p in d.breakpoints():
        if lo < p < hi:
            pts.add(float(p))
    for j in d.jumps:
        if lo <= j.at < hi:
            pts.add(float(j.at))
            pts.add(float(min(j.at + _JUMP_EPS, hi)))
    grid = np.array(sorted(pts))
    diffs = np.diff(d.eval(grid))
    if kind == "total":
        return float(np.sum(np.abs(diffs)))
    if kind == "positive":
        return float(np.sum(np.clip(diffs, 0.0, None)))
    if kind == "negative":
        return float(np.sum(np.clip(-diffs, 0.0, None)))
    raise ValueError(kind)


def _continuous_part_values(d, ts):
    """g minus its accumulated jumps, left-continuously."""
    vals = d.eval(ts)
    if d.jumps:
        ats = np.array([j.at for j in d.jumps])
        cum = np.concatenate([[0.0], np.cumsum([j.delta for j in d.jumps])])
        vals = vals - cum[np.searchsorted(ats, ts, side="left")]
    return vals


def rs_integral_oracle(f, d, lo, hi, signature="signed", level=16):
    """Midpoint Riemann-Stieltjes sum against the continuous part plus atoms.

    Cells never straddle a run boundary, so each continuous increment has a
    single sign and the positive/negative/total weightings are exact.
    """
    base = np.linspace(lo, hi, 2 ** level + 1)
    extra = np.array([p for p in d.breakpoints() if lo < p < hi])
    edges = np.unique(np.concatenate([base, extra])) if len(extra) else base
    mids = 0.5 * (edges[:-1] + edges[1:])
    fv = np.asarray(f(mids), dtype=float)
    diffs = np.diff(_continuous_part_values(d, edges))
    if signature == "signed":
        weights = diffs
    elif signature == "total_variation":
        weights = np.abs(diffs)
    elif signature == "positive_part":
        weights = np.clip(diffs, 0.0, None)
    elif signature == "negative_part":
        weights = np.clip(-diffs, 0.0, None)
    else:
        raise ValueError(signature)
    total = float(np.sum(fv * weights))
    for j in d.jumps:
        if lo <= j.at < hi:
            fa = float(np.asarray(f(np.array([j.at])), dtype=float)[0])
            if signature == "signed":
                total += fa * j.delta
            elif signature == "total_variation":
                total += fa * abs(j.delta)
            elif signature == "positive_part":
                total += fa * max(j.delta, 0.0)
            else:
                total += fa * max(-j.delta, 0.0)
    return total


# ---------------------------------------------------------- solver references
#
# The per-point Euler and Picard loops the solver ran before it batched its
# right-hand-side evaluations, kept verbatim as references: the solver must
# give the same bits, and raise the same errors, as these loops.


def reference_euler(spec, grid, safety_radius=None):
    from stieltjes.solver import _continuous_increments, _jump_table

    n = len(grid)
    dim = spec.dim
    deltas = _jump_table(spec.derivators, grid)
    cont = _continuous_increments(spec.derivators, grid)
    left = np.empty((n, dim))
    right = np.empty((n, dim))
    left[0] = spec.initial
    warnings = []
    ball_left = False
    for k in range(n - 1):
        x = left[k]
        dk = deltas[k]
        if np.any(dk != 0.0):
            fx = spec.call_rhs(grid[k], x)
            xr = x.copy()
            moved = dk != 0.0
            xr[moved] = x[moved] + fx[moved] * dk[moved]
        else:
            xr = x
        right[k] = xr
        ck = cont[k]
        if np.any(ck != 0.0):
            fr = spec.call_rhs(grid[k], xr)
            xn = xr.copy()
            moved = ck != 0.0
            xn[moved] = xr[moved] + fr[moved] * ck[moved]
        else:
            xn = xr.copy()
        left[k + 1] = xn
        if safety_radius is not None and not ball_left:
            drift = float(np.max(np.abs(xn - spec.initial)))
            if drift > safety_radius:
                ball_left = True
                warnings.append(
                    f"state left the safety ball (radius {safety_radius}) "
                    f"near t={float(grid[k + 1])}; continuing anyway"
                )
    dk = deltas[n - 1]
    if np.any(dk != 0.0):
        fx = spec.call_rhs(grid[n - 1], left[n - 1])
        xr = left[n - 1].copy()
        moved = dk != 0.0
        xr[moved] = left[n - 1][moved] + fx[moved] * dk[moved]
        right[n - 1] = xr
    else:
        right[n - 1] = left[n - 1]
    return left, right, warnings


def reference_picard(spec, grid, tol=1e-10, max_iter=25):
    from stieltjes.solver import _continuous_increments, _jump_table

    n = len(grid)
    dim = spec.dim
    deltas = _jump_table(spec.derivators, grid)
    cont = _continuous_increments(spec.derivators, grid)
    jump_rows = np.nonzero(np.any(deltas != 0.0, axis=1))[0]
    left = np.tile(spec.initial, (n, 1))
    right = left.copy()
    warnings = []
    converged = False
    last_change = np.inf
    iterations = 0
    for sweep in range(max_iter):
        iterations = sweep + 1
        f_left = np.empty((n, dim))
        for k in range(n):
            f_left[k] = spec.call_rhs(grid[k], left[k])
        f_right = f_left.copy()
        for k in jump_rows:
            f_right[k] = spec.call_rhs(grid[k], right[k])
        atoms = f_left * deltas
        cells = 0.5 * (f_right[:-1] + f_left[1:]) * cont
        increments = atoms[:-1] + cells
        new_left = np.empty_like(left)
        new_left[0] = spec.initial
        new_left[1:] = spec.initial + np.cumsum(increments, axis=0)
        new_right = new_left + atoms
        last_change = float(np.max(np.abs(new_left - left)))
        left, right = new_left, new_right
        if last_change < tol:
            converged = True
            break
    if not converged:
        warnings.append(
            f"fixed-point sweep stopped after {iterations} iterations "
            f"with change {last_change:.3e} (tolerance {tol:.1e})"
        )
    for k in jump_rows:
        fx = spec.call_rhs(grid[k], left[k])
        right[k] = left[k] + fx * deltas[k]
    off = np.setdiff1d(np.arange(n), jump_rows)
    right[off] = left[off]
    return left, right, converged, iterations, last_change, warnings


def outcome(solver, *args, **kwargs):
    """A solver's result, or the text of the RhsEvaluationError it raised."""
    from stieltjes import RhsEvaluationError

    try:
        return solver(*args, **kwargs)
    except RhsEvaluationError as exc:
        return f"RhsEvaluationError: {exc}"


def assert_same_outcome(got, want):
    """Equal error texts, or results whose arrays hold the same bits."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b
