"""Seeded op lists for the two benchmark workloads.

An op is one ``stieltjes.cli.main(argv)`` call on JSON documents that this
module generates. Ops come in four families, each with its own op list:
``ftc-grid`` and ``pointwise`` make the ``ftc-pointwise`` workload,
``plume-picard`` and ``solve-euler`` the ``picard-euler`` one. Each family
splits its randomness in two:

* the *schedule* (which subcommand, how many segments, profile kinds, knot
  counts, jumps, meshes, grid hints) comes from a fixed seed, so every
  ``--seed`` runs ops of the same shape and cost;
* the *values* (cut points, slopes, exponents, jump sizes, coefficients,
  heights, densities) come from ``--seed``.

That keeps the end-to-end numbers comparable across seeds while each seed
still feeds the program inputs it has never seen.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

import oracle

SCHEDULE_SEED = 20250117

PROFILE_POOL = ("linear",) * 7 + ("power",) * 5 + ("constant",) * 3 + ("tabulated",) * 5


@dataclass
class Op:
    """One CLI call: argv with ``@name`` placeholders for generated files."""

    id: str
    kind: str
    argv: list
    files: dict
    expect_exit: int = 0
    check: dict = field(default_factory=dict)
    output: str | None = None

    @property
    def family(self) -> str:
        """The op list the op comes from: ``ftc-grid``, ``pointwise``, ..."""
        return self.id.rsplit("-", 2)[0]

    def resolved_argv(self, workdir: str) -> list:
        return [f"{workdir}/{a[1:]}" if a.startswith("@") else a for a in self.argv]

    def file_texts(self) -> dict:
        return {name: json.dumps(doc, sort_keys=True) for name, doc in self.files.items()}

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self.argv).encode())
        for name, text in sorted(self.file_texts().items()):
            h.update(name.encode())
            h.update(text.encode())
        return h.hexdigest()


def _rngs(seed: int, family: str, part: str):
    salt = int.from_bytes(hashlib.sha256(f"{family}/{part}".encode()).digest()[:4], "little")
    return (np.random.default_rng([SCHEDULE_SEED, salt]),
            np.random.default_rng([seed, salt]))


def _f(x) -> float:
    return float(x)


# ------------------------------------------------------------------ derivators


def _profile(vr, kind: str, lo: float, hi: float, knots: int, power_range):
    sign = float(vr.choice([-1.0, 1.0]))
    if kind == "linear":
        return {"kind": "linear", "slope": sign * _f(vr.uniform(0.2, 3.0))}
    if kind == "power":
        return {"kind": "power", "exponent": _f(vr.uniform(*power_range)),
                "scale": sign * _f(vr.uniform(0.2, 2.0))}
    if kind == "constant":
        return {"kind": "constant"}
    lattice = lo + (hi - lo) * np.arange(1, 34) / 34.0
    xs = np.sort(vr.choice(lattice, size=knots, replace=False))
    ys = np.concatenate([[0.0], np.cumsum(vr.uniform(0.05, 1.0, size=knots - 1))])
    return {"kind": "tabulated", "points": [[_f(x), sign * _f(y)] for x, y in zip(xs, ys)]}


def small_shape(sr, nseg: int, max_jumps: int = 3, pool=PROFILE_POOL) -> dict:
    """Schedule part of a small derivator: kinds, knot counts, jump count."""
    return {
        "kinds": [str(sr.choice(pool)) for _ in range(nseg)],
        "knots": [int(sr.integers(3, 9)) for _ in range(nseg)],
        "jumps": int(sr.integers(0, min(max_jumps, nseg) + 1)),
    }


def small_derivator(vr, shape: dict, power_range=(0.5, 3.0), interior_jumps=False,
                    shared_cut: float | None = None) -> dict:
    """Derivator document on [0, 1] with cuts on a 1/32 lattice.

    ``interior_jumps`` keeps jumps off t = 0; ``shared_cut`` forces a cut, and
    the only jump, at that lattice point so several components can jump together.
    """
    nseg = len(shape["kinds"])
    lattice = np.arange(1, 32)
    if shared_cut is None:
        cuts = vr.choice(lattice, size=nseg - 1, replace=False)
    else:
        fixed = int(round(shared_cut * 32))
        rest = vr.choice(lattice[lattice != fixed], size=nseg - 2, replace=False)
        cuts = np.concatenate([rest, [fixed]])
    edges = np.concatenate([[0.0], np.sort(cuts) / 32.0, [1.0]])
    segs = [
        {"lo": _f(lo), "hi": _f(hi),
         "profile": _profile(vr, kind, lo, hi, knots, power_range)}
        for lo, hi, kind, knots in zip(edges[:-1], edges[1:], shape["kinds"], shape["knots"])
    ]
    if shared_cut is not None:
        sites, count = np.array([shared_cut]), 1
    else:
        sites = edges[1:-1] if interior_jumps else edges[:-1]
        count = min(shape["jumps"], len(sites))
    chosen = np.sort(vr.choice(sites, size=count, replace=False))
    jumps = [{"at": _f(at), "delta": _f(vr.uniform(0.1, 2.0) * vr.choice([-1.0, 1.0]))}
             for at in chosen]
    return {"interval": [0.0, 1.0], "anchor": _f(vr.normal(scale=0.5)),
            "segments": segs, "jumps": jumps}


def big_shape(sr, n: int) -> dict:
    """Schedule of a many-segment derivator whose direction flips often."""
    kinds = [str(sr.choice(("linear",) * 14 + ("power",) * 3 + ("constant",) * 3))
             for _ in range(n)]
    flips = sr.random(n) < 0.7
    signs = np.where(np.cumsum(flips) % 2 == 0, 1.0, -1.0)
    sites = np.sort(sr.choice(np.arange(1, n), size=n // 10, replace=False))
    return {"kinds": kinds, "signs": signs.tolist(), "sites": sites.tolist()}


def big_derivator(vr, shape: dict) -> dict:
    n = len(shape["kinds"])
    edges = np.arange(n + 1) / n
    segs = []
    for k, (kind, sign) in enumerate(zip(shape["kinds"], shape["signs"])):
        if kind == "linear":
            prof = {"kind": "linear", "slope": sign * _f(vr.uniform(0.2, 3.0))}
        elif kind == "power":
            prof = {"kind": "power", "exponent": _f(vr.uniform(0.75, 1.25)),
                    "scale": sign * _f(vr.uniform(0.2, 2.0))}
        else:
            prof = {"kind": "constant"}
        segs.append({"lo": _f(edges[k]), "hi": _f(edges[k + 1]), "profile": prof})
    jumps = [{"at": _f(edges[s]), "delta": _f(vr.uniform(0.1, 1.0) * vr.choice([-1.0, 1.0]))}
             for s in shape["sites"]]
    return {"interval": [0.0, 1.0], "anchor": 0.0, "segments": segs, "jumps": jumps}


def _poly(vr, degree: int, scale: float) -> dict:
    return {"kind": "polynomial",
            "coefficients": [_f(c) for c in vr.uniform(-scale, scale, size=degree + 1)]}


def _interior_point(vr, seg: dict) -> float:
    return _f(seg["lo"] + (seg["hi"] - seg["lo"]) * vr.uniform(0.1, 0.9))


# ------------------------------------------------------------------- pointwise


def build_pointwise(seed: int, part: str = "timed") -> list[Op]:
    """``integrate``, ``derive`` and ``decompose`` on small derivators."""
    sr, vr = _rngs(seed, "pointwise", part)
    counts = {"timed": (112, 4, 76, 8, 40), "warmup": (4, 1, 4, 1, 2)}
    n_int, n_int_bad, n_der, n_der_bad, n_dec = counts[part]
    plan = (["integrate"] * n_int + ["integrate-reject"] * n_int_bad + ["derive"] * n_der
            + ["derive-reject"] * n_der_bad + ["decompose"] * n_dec)
    plan = [plan[i] for i in sr.permutation(len(plan))]
    signatures = ("signed", "positive_part", "negative_part", "total_variation")
    ops = []
    for i, kind in enumerate(plan):
        shape = small_shape(sr, int(sr.integers(1, 6)))
        degree = int(sr.integers(0, 5))
        if kind == "derive" and not {"linear", "power"} & set(shape["kinds"]):
            shape["kinds"][0] = "linear"
        if kind == "derive-reject" and "constant" not in shape["kinds"]:
            shape["kinds"][-1] = "constant"
        signature = signatures[i % 4]
        d = small_derivator(vr, shape)
        f = _poly(vr, degree, 2.0)
        op_id = f"pointwise-{part}-{i:03d}"
        files = {f"{op_id}-d.json": d, f"{op_id}-f.json": f}
        argv_files = [f"@{op_id}-d.json", f"@{op_id}-f.json"]
        if kind in ("integrate", "integrate-reject"):
            lo, hi = sorted(vr.uniform(0.0, 1.0, size=2))
            if hi - lo < 0.05:
                lo, hi = 0.0, 1.0
            if kind == "integrate-reject":
                lo = -0.25
            argv = ["integrate", *argv_files, "--measure", signature,
                    "--lo", repr(_f(lo)), "--hi", repr(_f(hi))]
            check = {"doc": d, "coeffs": f["coefficients"], "lo": _f(lo), "hi": _f(hi),
                     "signature": signature}
            expect = 1 if kind == "integrate-reject" else 0
            if expect:
                check = {"error": "DomainError"}
            ops.append(Op(op_id, "integrate", argv, files, expect, check))
        elif kind == "derive":
            # jumps and tabulated segments are left to the known-defect probe
            smooth = [s for s in d["segments"] if s["profile"]["kind"] in ("linear", "power")]
            points = [_interior_point(vr, smooth[int(vr.integers(len(smooth)))])
                      for _ in range(3)]
            argv = ["derive", *argv_files]
            for t in points:
                argv += ["--at", repr(t)]
            ops.append(Op(op_id, "derive", argv, files, 0,
                          {"doc": d, "coeffs": f["coefficients"], "points": points}))
        elif kind == "derive-reject":
            flat = [s for s in d["segments"] if s["profile"]["kind"] == "constant"]
            t = _interior_point(vr, flat[0])
            ops.append(Op(op_id, "derive", ["derive", *argv_files, "--at", repr(t)], files, 1,
                          {"error": "UndefinedPointError"}))
        else:
            ops.append(Op(op_id, "decompose", ["decompose", argv_files[0]],
                          {argv_files[0][1:]: d}, 0, {"doc": d}))
    return ops


def build_derive_probe(seed: int) -> list[Op]:
    """``derive`` where the bracketing quotients may not settle.

    Inside a tabulated segment the profile is constant between the segment
    ends and its outer samples (flat head and tail), so the quotient reaches
    0/0 there; in a knot cell the bracket crosses knot kinks; at a jump whose
    right segment runs against it the denominator passes through zero. These
    ops run once per run, outside the timed phase, and are reported by id and
    outcome so each behaviour stays visible until it is fixed. The
    derivative at a jump, exactly 0 for a polynomial, is probed here too:
    the extrapolation towards a zero limit does not always settle.
    """
    sr, vr = _rngs(seed, "pointwise", "probe")
    ops = []
    for i, where in enumerate(("head", "knot-cell", "tail", "jump-against", "jump") * 3):
        if where == "jump-against":
            d, t = _opposed_jump(vr)
        elif where == "jump":
            d = small_derivator(vr, small_shape(sr, 3, max_jumps=0), interior_jumps=True,
                                shared_cut=_f(int(sr.integers(1, 32)) / 32))
            t = d["jumps"][0]["at"]
        else:
            d, t = _tabulated_point(sr, vr, where)
        f = _poly(vr, 2, 2.0)
        op_id = f"probe-{where}-{i:02d}"
        files = {f"{op_id}-d.json": d, f"{op_id}-f.json": f}
        ops.append(Op(op_id, "derive",
                      ["derive", f"@{op_id}-d.json", f"@{op_id}-f.json", "--at", repr(t)],
                      files, 0, {"doc": d, "coeffs": f["coefficients"], "points": [t],
                                 "where": where}))
    return ops


def _tabulated_point(sr, vr, where: str):
    shape = small_shape(sr, int(sr.integers(1, 4)), max_jumps=0)
    k = int(sr.integers(len(shape["kinds"])))
    shape["kinds"][k] = "tabulated"
    d = small_derivator(vr, shape)
    seg = d["segments"][k]
    xs = [p[0] for p in seg["profile"]["points"]]
    if where == "head":
        lo, hi = seg["lo"], xs[0]
    elif where == "tail":
        lo, hi = xs[-1], seg["hi"]
    else:
        j = int(vr.integers(len(xs) - 1))
        lo, hi = xs[j], xs[j + 1]
    return d, _f(lo + (hi - lo) * vr.uniform(0.2, 0.8))


def _opposed_jump(vr):
    delta = _f(vr.uniform(0.1, 0.3) * vr.choice([-1.0, 1.0]))
    slope = _f(-np.sign(delta) * vr.uniform(2.0, 3.0))
    d = {"interval": [0.0, 1.0], "anchor": 0.0, "jumps": [{"at": 0.5, "delta": delta}],
         "segments": [{"lo": 0.0, "hi": 0.5, "profile": {"kind": "linear", "slope": 1.0}},
                      {"lo": 0.5, "hi": 1.0, "profile": {"kind": "linear", "slope": slope}}]}
    return d, 0.5


# -------------------------------------------------------------------- ftc-grid


def _exp_coefficient(vr, d: dict, regime: str) -> dict:
    """Coefficient whose jump factors 1 + c * delta land in the wanted regime.

    |c| stays at most 0.5 so the exponential stays within a few hundred and
    the verify report's absolute residual keeps its meaning.
    """
    if regime == "positive_factors" or not d["jumps"]:
        return _poly(vr, int(vr.integers(0, 2)), 0.4)
    j = d["jumps"][0]
    if regime == "vanishing":
        # a power-of-two jump makes 1 + c * delta exactly zero
        j["delta"] = -float(vr.choice([2.0, 4.0]))
        return {"kind": "constant", "value": -1.0 / j["delta"]}
    c = _f(vr.uniform(0.2, 0.5) * vr.choice([-1.0, 1.0]))
    j["delta"] = (_f(vr.uniform(-1.5, -0.5)) - 1.0) / c
    return {"kind": "constant", "value": c}


def build_ftc_grid(seed: int, part: str = "timed") -> list[Op]:
    """``ftc-check`` and ``exp`` (CSV and ``--verify``) on grid-calculus paths."""
    sr, vr = _rngs(seed, "ftc-grid", part)
    if part == "timed":
        small = {"ftc-check": 24, "exp": 36, "exp-verify": 28}
        big = [("ftc-check", n) for n in (100, 200, 400, 800, 1400, 2000)]
        big += [(k, n) for k in ("exp", "exp-verify") for n in (300, 1000, 2000)]
        rejects = 2
    else:
        small = {"ftc-check": 2, "exp": 2, "exp-verify": 2}
        big = [("ftc-check", 100), ("exp", 100), ("exp-verify", 100)]
        rejects = 1
    plan = [(k, 0) for k, n in small.items() for _ in range(n)] + big + [("reject", 0)] * rejects
    plan = [plan[i] for i in sr.permutation(len(plan))]
    regimes = ("positive_factors", "positive_factors", "sign_changing", "vanishing")
    ops = []
    for i, (kind, size) in enumerate(plan):
        op_id = f"ftc-grid-{part}-{i:03d}"
        if size:
            d = big_derivator(vr, big_shape(sr, size))
            grid_hint = "8"
        else:
            shape = small_shape(sr, int(sr.integers(1, 6)))
            shape["knots"] = [int(sr.integers(3, 5)) for _ in shape["kinds"]]
            # above exponent ~1.25 the graded grid's first cell is so wide that
            # the roundtrip misses the 1e-6 check at grid hint 1024 on some draws
            d = small_derivator(vr, shape, power_range=(0.5, 1.25))
            grid_hint = "1024"
        dname, fname = f"{op_id}-d.json", f"{op_id}-c.json"
        if kind == "reject":
            d["segments"][0]["hi"] = d["segments"][0]["lo"]
            f = _poly(vr, 1, 1.0)
            ops.append(Op(op_id, "exp", ["exp", f"@{dname}", f"@{fname}"],
                          {dname: d, fname: f}, 1, {"error": "SpecValidationError"}))
            continue
        if kind == "ftc-check":
            f = _poly(vr, int(sr.integers(0, 3)), 1.0)
            argv = ["ftc-check", f"@{dname}", f"@{fname}", "--grid-hint", grid_hint]
            ops.append(Op(op_id, kind, argv, {dname: d, fname: f}, 0, {"tol": 1e-6}))
            continue
        regime = "positive_factors" if size else regimes[i % 4]
        c = _exp_coefficient(vr, d, regime)
        coeffs = [c["value"]] if c["kind"] == "constant" else c["coefficients"]
        argv = ["exp", f"@{dname}", f"@{fname}"]
        if kind == "exp-verify":
            argv += ["--verify", "--grid-hint", grid_hint]
        else:
            argv += ["--grid-hint", "8" if size else "512"]
        ops.append(Op(op_id, kind, argv, {dname: d, fname: c}, 0,
                      {"doc": d, "coeffs": coeffs}))
    return ops


# ---------------------------------------------------------------- plume-picard


def _plume_doc(vr, interfaces: int | None) -> dict:
    top = _f(vr.uniform(6.0, 10.0))
    if interfaces is None:
        ambient = {"interval": [0.0, top], "anchor": _f(1000.0 + vr.uniform(0.0, 5.0)),
                   "segments": [{"lo": 0.0, "hi": top,
                                 "profile": {"kind": "linear",
                                             "slope": -_f(vr.uniform(0.05, 0.5))}}],
                   "jumps": []}
    else:
        heights = np.sort(vr.choice(np.arange(1, 64), size=interfaces, replace=False)) * top / 64
        edges = np.concatenate([[0.0], heights, [top]])
        ambient = {"interval": [0.0, top], "anchor": _f(1000.0 + vr.uniform(0.0, 5.0)),
                   "segments": [{"lo": _f(lo), "hi": _f(hi), "profile": {"kind": "constant"}}
                                for lo, hi in zip(edges[:-1], edges[1:])],
                   "jumps": [{"at": _f(z), "delta": -_f(vr.uniform(0.5, 3.0))}
                             for z in heights]}
    return {
        "params": {"entrainment": _f(vr.uniform(0.07, 0.1)), "mixing": _f(vr.uniform(1.1, 1.3))},
        "ambient": ambient,
        "initial": {"q": _f(vr.uniform(0.04, 0.06)), "m": _f(vr.uniform(0.008, 0.012)),
                    "beta": _f(vr.uniform(0.12, 0.18))},
    }


def build_plume_picard(seed: int, part: str = "timed") -> list[Op]:
    """``plume`` with the default Picard sweep and doubled-mesh error estimate."""
    sr, vr = _rngs(seed, "plume-picard", part)
    n_step, n_linear, n_reject = (80, 16, 4) if part == "timed" else (3, 1, 1)
    plan = ([("step", 1 + i % 8) for i in range(n_step)] + [("linear", 0)] * n_linear
            + [("reject", 0)] * n_reject)
    plan = [plan[i] for i in sr.permutation(len(plan))]
    meshes = (32, 64, 128, 256)
    ops = []
    for i, (kind, interfaces) in enumerate(plan):
        op_id = f"plume-picard-{part}-{i:03d}"
        doc = _plume_doc(vr, interfaces if kind == "step" else None)
        name, out = f"{op_id}.json", f"{op_id}.csv"
        if kind == "reject":
            doc["initial"]["q"] = -doc["initial"]["q"]
            ops.append(Op(op_id, "plume", ["plume", f"@{name}", "-o", f"@{out}"],
                          {name: doc}, 1, {"error": "SpecValidationError"}, out))
            continue
        mesh = str(sr.choice(meshes, p=(0.3, 0.25, 0.25, 0.2)))
        ops.append(Op(op_id, "plume", ["plume", f"@{name}", "--mesh", mesh, "-o", f"@{out}"],
                      {name: doc}, 0, {"doc": doc}, out))
    return ops


# ----------------------------------------------------------------- solve-euler


def _rhs(vr, kind: str, dim: int) -> dict:
    if kind == "zero":
        return {"kind": "zero"}
    if kind == "linear":
        return {"kind": "linear", "coefficients": [_f(c) for c in vr.uniform(-1.5, 1.5, dim)]}
    if kind == "polynomial":
        return {"kind": "polynomial",
                "coefficients": [[_f(c) for c in vr.uniform(-1.0, 1.0, int(vr.integers(1, 4)))]
                                 for _ in range(dim)]}
    if kind == "tabulated":
        ts = np.linspace(0.0, 1.0, 6)
        return {"kind": "tabulated",
                "points": [[_f(t), *(_f(v) for v in vr.uniform(-1.0, 1.0, dim))] for t in ts]}
    params = {"entrainment": _f(vr.uniform(0.07, 0.1)), "mixing": _f(vr.uniform(1.1, 1.3))}
    lam2 = params["mixing"] ** 2
    return {"kind": "plume", "A": 2.0 * params["entrainment"], "B": 4.0 * 9.81 * lam2,
            "C": 1.0 / (lam2 * (1.0 + lam2) * 1000.0)}


def _plume_system_derivators(vr, sr) -> list[dict]:
    sites = np.sort(sr.choice(np.arange(1, 32), size=int(sr.integers(1, 4)), replace=False)) / 32
    edges = np.concatenate([[0.0], sites, [1.0]])
    height = {"interval": [0.0, 1.0], "anchor": 0.0,
              "segments": [{"lo": _f(lo), "hi": _f(hi), "profile": {"kind": "linear", "slope": 1.0}}
                           for lo, hi in zip(edges[:-1], edges[1:])], "jumps": []}
    density = {"interval": [0.0, 1.0], "anchor": _f(1000.0 + vr.uniform(0.0, 5.0)),
               "segments": [{"lo": _f(lo), "hi": _f(hi), "profile": {"kind": "constant"}}
                            for lo, hi in zip(edges[:-1], edges[1:])],
               "jumps": [{"at": _f(z), "delta": -_f(vr.uniform(0.5, 3.0))} for z in sites]}
    return [height, json.loads(json.dumps(height)), density]


def build_solve_euler(seed: int, part: str = "timed") -> list[Op]:
    """``solve --euler --select-horizon`` over every right-hand side kind."""
    sr, vr = _rngs(seed, "solve-euler", part)
    n_ok, n_reject = (96, 4) if part == "timed" else (5, 1)
    plan = [1 + i % 4 for i in range(n_ok)] + [0] * n_reject
    plan = [plan[i] for i in sr.permutation(len(plan))]
    kinds = ("zero", "linear", "polynomial", "tabulated")
    meshes = (128, 256, 512, 1024)
    ops = []
    for i, dim in enumerate(plan):
        op_id = f"solve-euler-{part}-{i:03d}"
        name, out = f"{op_id}.json", f"{op_id}.csv"
        rhs_kind = "plume" if dim == 3 and sr.random() < 0.4 else kinds[int(sr.integers(4))]
        if rhs_kind == "plume":
            derivs = _plume_system_derivators(vr, sr)
            initial = [_f(vr.uniform(0.04, 0.06)), _f(vr.uniform(0.008, 0.012)),
                       _f(vr.uniform(0.12, 0.18))]
        else:
            n = max(dim, 1)
            shapes = [small_shape(sr, int(sr.integers(2, 5))) for _ in range(n)]
            shared = _f(int(sr.integers(1, 32)) / 32) if n > 1 and sr.random() < 0.5 else None
            derivs = [small_derivator(vr, shape, interior_jumps=True, shared_cut=shared)
                      for shape in shapes]
            initial = [_f(x) for x in vr.uniform(-1.0, 1.0, n)]
        dom = _f(vr.uniform(0.5, 2.0))
        mass = max(dom * oracle.total_variation_before(dd, 1.0) for dd in derivs)
        radius = _f(max(vr.uniform(0.4, 0.8) * mass, 1e-3))
        doc = {"derivators": derivs, "initial": initial,
               "rhs": _rhs(vr, rhs_kind, len(derivs)),
               "bound": {"radius": radius, "dominators": [{"kind": "constant", "value": dom}]}}
        mesh = str(meshes[int(sr.integers(len(meshes)))])
        argv = ["solve", f"@{name}", "--euler", "--select-horizon", "--mesh", mesh, "-o", f"@{out}"]
        if dim == 0:
            del doc["bound"]
            ops.append(Op(op_id, "solve", argv, {name: doc}, 1,
                          {"error": "SpecValidationError"}, out))
            continue
        ops.append(Op(op_id, "solve", argv, {name: doc}, 0, {"doc": doc}, out))
    return ops


# ---------------------------------------------------------------- workloads


def build_ftc_pointwise(seed: int, part: str = "timed") -> list[Op]:
    """The ``ftc-grid`` op list followed by the ``pointwise`` one: no solver."""
    return build_ftc_grid(seed, part) + build_pointwise(seed, part)


def build_picard_euler(seed: int, part: str = "timed") -> list[Op]:
    """The ``plume-picard`` op list followed by the ``solve-euler`` one: no adaptive quadrature."""
    return build_plume_picard(seed, part) + build_solve_euler(seed, part)


# Two workloads of two op families each, rather than one per family: a
# shared machine flips between fast and slow states every few seconds, and
# the benchmark's total time budget fits runs long enough to average that out
# (about a minute) for two workloads, not for four.
WORKLOADS = {
    "ftc-pointwise": build_ftc_pointwise,
    "picard-euler": build_picard_euler,
}
