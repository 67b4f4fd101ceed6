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


def long_derivator(rng, nseg=200):
    """Many monotone segments of every profile kind, a jump every seventh cut."""
    edges = np.linspace(0.0, 1.0, nseg + 1)
    segments = [Segment(lo, hi, make_profile(rng, lo, hi))
                for lo, hi in zip(edges[:-1], edges[1:])]
    jumps = [Jump(float(at), float(rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])))
             for at in edges[:-1:7]]
    return Derivator((0.0, 1.0), segments, jumps, anchor=0.25)


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
# give the same bits, and raise the same errors, as these loops. The jump
# table, the plume audit and the CLI's geometry inversion keep their earlier
# per-jump and per-row loops here for the same reason.


def reference_jump_table(derivators, grid):
    """deltas[k, j] = jump of derivator j at grid[k], one jump at a time."""
    from stieltjes import DomainError

    deltas = np.zeros((len(grid), len(derivators)))
    for j, d in enumerate(derivators):
        for jump in d.jumps:
            if grid[0] <= jump.at <= grid[-1]:
                k = int(np.searchsorted(grid, jump.at))
                if k >= len(grid) or grid[k] != jump.at:
                    raise DomainError(f"solver grid is missing jump time {jump.at}")
                deltas[k, j] = jump.delta
    return deltas


def reference_plume_audit(params, ambient, report):
    """The plume audit recomputed per density jump from the trajectories."""
    from stieltjes import BuoyancyJumpRow, PlumeAudit

    q_tr, m_tr, b_tr = report.trajectories
    C = params.buoyancy_coefficient
    rows = []
    for jump in ambient.rho.jumps:
        if not (report.grid[0] <= jump.at <= report.grid[-1]):
            continue
        k = q_tr.index_of(jump.at)
        q_here = q_tr.left_values[k]
        bl = b_tr.left_values[k]
        br = b_tr.right_values[k]
        expected = bl + (C * q_here) * jump.delta
        residual = br - expected
        scale = max(abs(bl), abs(br), 1e-300)
        rows.append(BuoyancyJumpRow(
            height=float(jump.at),
            beta_left=float(bl),
            beta_right=float(br),
            expected_jump=float((C * q_here) * jump.delta),
            residual=float(residual),
            residual_ulps=float(abs(residual) / np.spacing(scale)),
        ))
    vol_cont = bool(np.all(q_tr.right_values == q_tr.left_values))
    mom_cont = bool(np.all(m_tr.right_values == m_tr.left_values))
    min_m = float(np.min(m_tr.left_values))
    warnings = []
    if min_m < 1e-8 * m_tr.left_values[0]:
        warnings.append(
            f"momentum flux nearly vanishes (min {min_m:.3e}); "
            "the plume is close to breakdown and the geometry inversion degrades"
        )
    return PlumeAudit(
        buoyancy_jumps=tuple(rows),
        volume_continuous=vol_cont,
        momentum_continuous=mom_cont,
        min_momentum=min_m,
        warnings=tuple(warnings),
    )


def reference_geometry(states):
    """(b, w, theta) per (q, m, beta) row, one row at a time; nan rows where
    q <= 0 or m <= 0."""

    def geometry(q, m, beta):
        if q > 0 and m > 0:
            b = q * m ** -0.25
            w = float(np.sqrt(m) / q)
            return b, w, beta / q
        return float("nan"), float("nan"), float("nan")

    return np.array([geometry(*x) for x in states], dtype=float).reshape(-1, 3)


def same_bits(a, b):
    """Equal values down to the bits: nan equals nan, -0.0 differs from 0.0."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def reference_euler(spec, grid, safety_radius=None):
    from stieltjes.solver import _continuous_increments

    n = len(grid)
    dim = spec.dim
    deltas = reference_jump_table(spec.derivators, grid)
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
    from stieltjes.solver import _continuous_increments

    n = len(grid)
    dim = spec.dim
    deltas = reference_jump_table(spec.derivators, grid)
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


# ------------------------------------------------------ integration references
#
# The per-kind integration rules as they were written before each profile
# class owned its chart: the three-branch grid-cell integrals, and the
# adaptive segment integral with its separate tabulated knot-cell routine.
# The charted code must give the same bits on the grid path, and on the
# adaptive path wherever the integrand has no kinks.


def reference_cell_integrals(d, v, grid):
    """Continuous part of the measure of v over each grid cell, one branch per kind."""
    from stieltjes import quadrature
    from stieltjes.derivator import CONSTANT, _groups

    out = np.zeros(len(grid) - 1)
    mids = 0.5 * (grid[:-1] + grid[1:])
    for k, cells in _groups(d.segment_index(mids)):
        seg = d.segments[k]
        if seg.direction == CONSTANT:
            continue
        edges = np.concatenate([grid[cells], [grid[cells[-1] + 1]]])
        profile = seg.profile
        if isinstance(profile, TabulatedProfile):
            ginc = seg.increment_to(edges)
            slopes = np.diff(ginc) / np.diff(edges)
            out[cells] = slopes * quadrature.panel_integrals(v, edges)
        elif isinstance(profile, PowerProfile) and profile.exponent < 1.0:
            p, s = profile.exponent, profile.scale
            u_edges = (edges - seg.lo) ** p
            inv = 1.0 / p
            out[cells] = s * quadrature.panel_integrals(
                lambda u: v(seg.lo + np.maximum(u, 0.0) ** inv), u_edges
            )
        else:
            out[cells] = quadrature.panel_integrals(
                lambda t: np.asarray(v(t), dtype=float) * np.asarray(seg.density_at(t), dtype=float),
                edges,
            )
    return out


def reference_segment_integral(f, seg, lo, hi, rel_tol):
    """Continuous integral of f against the segment's growth over [lo, hi]; only
    tabulated segments are cut, at their knots and at f's kinks."""
    from stieltjes import quadrature

    profile = seg.profile
    if isinstance(profile, TabulatedProfile):
        knots = np.concatenate([seg.interior_knots(), f._kinks])
        edges = np.unique(np.concatenate([[lo], knots[(knots > lo) & (knots < hi)], [hi]]))
        slopes = np.diff(seg.increment_to(edges)) / np.diff(edges)
        total = 0.0
        for c, e, slope in zip(edges[:-1].tolist(), edges[1:].tolist(), slopes.tolist()):
            if slope != 0.0:
                total += slope * quadrature.integrate_adaptive(f, c, e, rel_tol)
        return total
    if isinstance(profile, PowerProfile) and profile.exponent < 1.0:
        p = profile.exponent
        s = profile.scale
        u_lo = (lo - seg.lo) ** p
        u_hi = (hi - seg.lo) ** p
        inv = 1.0 / p

        def transformed(u):
            u = np.maximum(np.asarray(u, dtype=float), 0.0)
            return f(seg.lo + u ** inv)

        return s * quadrature.integrate_adaptive(transformed, u_lo, u_hi, rel_tol)

    def weighted(t):
        return np.asarray(f(t), dtype=float) * np.asarray(seg.density_at(t), dtype=float)

    return quadrature.integrate_adaptive(weighted, lo, hi, rel_tol)


# ------------------------------------------------------ segment-table references
#
# The per-segment loops the derivator and the estimate table ran before the
# structural queries read the segment table's columns, kept verbatim as
# references: runs, structural sets and the estimate table must keep their
# exact values, and cumulative variation its bits wherever no power segment
# is involved.


def reference_variation_cumulative(d, times, kind="total"):
    """``variation(a, t, kind)`` per time, summed over every segment in turn."""
    ts = np.asarray(times, dtype=float)
    pos = np.zeros_like(ts)
    neg = np.zeros_like(ts)
    for seg in d.segments:
        upper = np.clip(ts, seg.lo, seg.hi)
        inc = seg.increment_to(upper) - 0.0
        if seg.direction == "nondecreasing":
            pos = pos + inc
        elif seg.direction == "nonincreasing":
            neg = neg - inc
    if d.jumps:
        deltas = np.array([j.delta for j in d.jumps])
        idx = np.searchsorted([j.at for j in d.jumps], ts, side="left")
        pos_cum = np.concatenate([[0.0], np.cumsum(np.maximum(deltas, 0.0))])
        neg_cum = np.concatenate([[0.0], np.cumsum(np.maximum(-deltas, 0.0))])
        pos = pos + pos_cum[idx]
        neg = neg + neg_cum[idx]
    if kind == "positive":
        return pos
    if kind == "negative":
        return neg
    return pos + neg


def reference_runs(d):
    """Maximal runs as (lo, hi, direction), broken at jumps and direction changes."""
    jump_ats = {j.at for j in d.jumps}
    runs = []
    current = None
    for seg in d.segments:
        if current is None or seg.lo in jump_ats or seg.direction != current[2]:
            if current is not None:
                runs.append(tuple(current))
            current = [seg.lo, seg.hi, seg.direction]
        else:
            current[1] = seg.hi
    runs.append(tuple(current))
    return runs


def reference_structural_sets(d):
    from stieltjes.derivator import StructuralSets

    runs = reference_runs(d)
    return StructuralSets(
        tuple(float(j.at) for j in d.jumps if j.delta > 0),
        tuple(float(j.at) for j in d.jumps if j.delta < 0),
        tuple((lo, hi) for lo, hi, direction in runs if direction == "nondecreasing"),
        tuple((lo, hi) for lo, hi, direction in runs if direction == "nonincreasing"),
        tuple((lo, hi) for lo, hi, direction in runs if direction == "constant"),
    )


def reference_run_boundaries(d):
    pts = {d.a, d.b}
    for lo, hi, _ in reference_runs(d):
        pts.add(lo)
        pts.add(hi)
    return tuple(sorted(pts))


def reference_estimate_table(h):
    """The grid derivative estimate table, its same-segment windows checked
    one cell offset at a time against a per-segment constancy list."""
    from stieltjes.calculus import _EstimateTable
    from stieltjes.derivator import CONSTANCY_POINT, CONSTANT

    d = h.governing
    grid = h.grid
    n = len(grid)
    gl, gr = h.g_values()
    hl, hr = h.left_values, h.right_values

    deltas = d.deltas_on(grid)
    is_jump = deltas != 0.0

    mids = 0.5 * (grid[:-1] + grid[1:])
    cell_sid = d.segment_index(mids)
    seg_const = np.array([seg.direction == CONSTANT for seg in d.segments])
    cell_const = seg_const[cell_sid]

    def quot(j, k):
        q = np.full(n, np.nan)
        lo_idx = np.arange(0, n - j - k)
        hi_idx = lo_idx + j + k
        center = lo_idx + j
        num = hl[hi_idx] - hr[lo_idx]
        den = gl[hi_idx] - gr[lo_idx]
        with np.errstate(invalid="ignore", divide="ignore"):
            q[center] = np.where(den != 0.0, num / den, np.nan)
        return q

    def cells_same_segment(lo_off, hi_off):
        ok = None
        ref = np.full(n, -1)
        idx0 = np.arange(n) + lo_off
        valid0 = (idx0 >= 0) & (idx0 < n - 1)
        ref[valid0] = cell_sid[idx0[valid0]]
        for i_off in range(lo_off, hi_off):
            idx = np.arange(n) + i_off
            valid = (idx >= 0) & (idx < n - 1)
            cur = np.zeros(n, dtype=bool)
            cur[valid] = ~cell_const[idx[valid]] & (cell_sid[idx[valid]] == ref[valid])
            ok = cur if ok is None else (ok & cur)
        return ok

    q11 = quot(1, 1)
    q22 = quot(2, 2)
    central_ok = cells_same_segment(-2, 2) & ~np.isnan(q11) & ~np.isnan(q22)
    central = (4.0 * q11 - q22) / 3.0

    r1, r2, r3 = quot(0, 1), quot(0, 2), quot(0, 3)
    right_ok = cells_same_segment(0, 3) & ~np.isnan(r1) & ~np.isnan(r2) & ~np.isnan(r3)
    right_est = 3.0 * r1 - 3.0 * r2 + r3

    l1, l2, l3 = quot(1, 0), quot(2, 0), quot(3, 0)
    left_ok = cells_same_segment(-3, 0) & ~np.isnan(l1) & ~np.isnan(l2) & ~np.isnan(l3)
    left_est = 3.0 * l1 - 3.0 * l2 + l3

    values = np.zeros(n)
    eligible = np.zeros(n, dtype=bool)
    values[is_jump] = (hr[is_jump] - hl[is_jump]) / deltas[is_jump]
    eligible[is_jump] = True

    rest = ~is_jump
    use_central = rest & central_ok
    values[use_central] = central[use_central]
    eligible[use_central] = True

    rest &= ~central_ok
    both = rest & left_ok & right_ok
    values[both] = 0.5 * (left_est[both] + right_est[both])
    only_r = rest & right_ok & ~left_ok
    values[only_r] = right_est[only_r]
    only_l = rest & left_ok & ~right_ok
    values[only_l] = left_est[only_l]
    eligible[both | only_r | only_l] = True

    eligible &= d.classify(grid) < CONSTANCY_POINT
    values[~eligible] = 0.0
    return _EstimateTable(values, eligible, is_jump,
                          left_est, right_est, left_ok, right_ok)
