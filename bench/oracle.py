"""Closed-form references computed from the benchmark's own JSON documents.

Nothing here imports ``stieltjes``: every reference is derived from the
document a workload generated, with numpy polynomials and the per-profile
formulas of the file format (linear, power, constant, tabulated). The
library's answers are checked against these, never against themselves.
"""

from __future__ import annotations

import math

import numpy as np

Poly = np.polynomial.Polynomial

RISING = "nondecreasing"
FALLING = "nonincreasing"
FLAT = "constant"


def increment(seg: dict, t):
    """Continuous increment of a segment from its left end up to t."""
    prof = seg["profile"]
    t = np.asarray(t, dtype=float)
    kind = prof["kind"]
    if kind == "linear":
        return prof["slope"] * (t - seg["lo"])
    if kind == "power":
        return prof.get("scale", 1.0) * (t - seg["lo"]) ** prof["exponent"]
    if kind == "constant":
        return np.zeros_like(t)
    xs, ys = np.array(prof["points"], dtype=float).T
    return np.interp(t, xs, ys) - ys[0]


def total_increment(seg: dict) -> float:
    return float(increment(seg, seg["hi"]))


def direction(seg: dict) -> str:
    inc = total_increment(seg)
    return RISING if inc > 0 else FALLING if inc < 0 else FLAT


def density(seg: dict, t: float) -> float:
    """dg/dt inside a segment (the slope of the knot cell for tabulated ones)."""
    prof = seg["profile"]
    kind = prof["kind"]
    if kind == "linear":
        return prof["slope"]
    if kind == "power":
        p = prof["exponent"]
        return prof.get("scale", 1.0) * p * (t - seg["lo"]) ** (p - 1.0)
    if kind == "constant":
        return 0.0
    xs, ys = np.array(prof["points"], dtype=float).T
    if t <= xs[0] or t >= xs[-1]:
        return 0.0
    i = int(np.searchsorted(xs, t))
    return float((ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1]))


def segment_integral(seg: dict, coeffs, c: float, d: float) -> float:
    """Integral of the polynomial f over [c, d] against the segment's growth."""
    f = Poly(coeffs)
    prof = seg["profile"]
    kind = prof["kind"]
    if kind == "constant" or c >= d:
        return 0.0
    if kind == "linear":
        big_f = f.integ()
        return prof["slope"] * (big_f(d) - big_f(c))
    if kind == "power":
        # expand f around the segment start: f(lo + u) = sum q_k u**k, so the
        # integral of q_k u**k * scale * p * u**(p-1) is closed form
        lo, p = seg["lo"], prof["exponent"]
        q = f(Poly([lo, 1.0])).coef
        u_c, u_d = c - lo, d - lo
        acc = 0.0
        for k, qk in enumerate(q):
            e = k + p
            acc += qk * (u_d ** e - u_c ** e) / e
        return prof.get("scale", 1.0) * p * acc
    big_f = f.integ()
    xs, ys = np.array(prof["points"], dtype=float).T
    acc = 0.0
    for i in range(len(xs) - 1):
        left, right = max(c, xs[i]), min(d, xs[i + 1])
        if left < right:
            slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
            acc += slope * (big_f(right) - big_f(left))
    return acc


_SEGMENT_WEIGHT = {
    "signed": {RISING: 1.0, FALLING: 1.0},
    "positive_part": {RISING: 1.0, FALLING: 0.0},
    "negative_part": {RISING: 0.0, FALLING: -1.0},
    "total_variation": {RISING: 1.0, FALLING: -1.0},
}


def jump_weight(signature: str, delta: float) -> float:
    if signature == "signed":
        return delta
    if signature == "positive_part":
        return max(delta, 0.0)
    if signature == "negative_part":
        return max(-delta, 0.0)
    return abs(delta)


def integral(doc: dict, coeffs, lo: float, hi: float, signature: str) -> tuple[float, float]:
    """Integral of a polynomial over [lo, hi) against one of the four measures.

    Returns (value, scale) where scale is the sum of the absolute values of
    the pieces, the natural size against which to judge a difference.
    """
    f = Poly(coeffs)
    value = scale = 0.0
    for seg in doc["segments"]:
        c, d = max(lo, seg["lo"]), min(hi, seg["hi"])
        dirn = direction(seg)
        if c >= d or dirn == FLAT:
            continue
        piece = _SEGMENT_WEIGHT[signature][dirn] * segment_integral(seg, coeffs, c, d)
        value += piece
        scale += abs(piece)
    for jmp in doc.get("jumps", []):
        if lo <= jmp["at"] < hi:
            piece = float(f(jmp["at"])) * jump_weight(signature, jmp["delta"])
            value += piece
            scale += abs(piece)
    return value, scale


def owning_segment(doc: dict, t: float) -> dict:
    for seg in doc["segments"]:
        if seg["lo"] < t < seg["hi"]:
            return seg
    raise ValueError(f"{t} is not strictly inside a segment")


def derivative(doc: dict, coeffs, t: float) -> float:
    """g-derivative of a polynomial at t: 0 at a jump, f'(t) / g'(t) inside."""
    if any(j["at"] == t for j in doc.get("jumps", [])):
        return 0.0
    return float(Poly(coeffs).deriv()(t)) / density(owning_segment(doc, t), t)


def structure(doc: dict) -> dict:
    """Structural sets and variation the way ``decompose`` reports them."""
    jump_at = {j["at"] for j in doc.get("jumps", [])}
    runs: list[list] = []
    for seg in doc["segments"]:
        dirn = direction(seg)
        if runs and seg["lo"] not in jump_at and runs[-1][2] == dirn:
            runs[-1][1] = seg["hi"]
        else:
            runs.append([seg["lo"], seg["hi"], dirn])
    deltas = sorted((j["at"], j["delta"]) for j in doc.get("jumps", []))
    incs = [total_increment(s) for s in doc["segments"]]
    pos = sum(i for i in incs if i > 0) + sum(d for _, d in deltas if d > 0)
    neg = -sum(i for i in incs if i < 0) - sum(d for _, d in deltas if d < 0)
    return {
        "sets": {
            "D_plus": [a for a, d in deltas if d > 0],
            "D_minus": [a for a, d in deltas if d < 0],
            "Lambda_plus": [[lo, hi] for lo, hi, d in runs if d == RISING],
            "Lambda_minus": [[lo, hi] for lo, hi, d in runs if d == FALLING],
            "C": [[lo, hi] for lo, hi, d in runs if d == FLAT],
        },
        "variation": {"total": pos + neg, "positive": pos, "negative": neg},
    }


def total_variation_before(doc: dict, t: float) -> float:
    """Total variation of g over [a, t)."""
    acc = 0.0
    for seg in doc["segments"]:
        if seg["lo"] >= t:
            break
        acc += abs(float(increment(seg, min(t, seg["hi"]))))
    acc += sum(abs(j["delta"]) for j in doc.get("jumps", []) if j["at"] < t)
    return acc


class ExpReference:
    """Left values of the g-exponential of a polynomial coefficient.

    ``value(t)`` is sign * exp(integral of c against the continuous part over
    [a, t) + sum of log|factor| over jumps before t), or 0 after a vanishing
    factor. ``factor(at)`` repeats the library's own float expression
    ``1 + c(at) * delta`` so that the jump identity can be checked bit for bit.
    """

    ZERO_TOL = 1e-14

    def __init__(self, doc: dict, coeffs):
        self.doc = doc
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.segs = doc["segments"]
        self.los = np.array([s["lo"] for s in self.segs])
        full = [segment_integral(s, self.coeffs, s["lo"], s["hi"])
                for s in self.segs]
        self.cum = np.concatenate([[0.0], np.cumsum(full)])
        self.factors = {}
        for j in doc.get("jumps", []):
            cv = float(np.polynomial.polynomial.polyval(j["at"], self.coeffs))
            f = 1.0 + cv * j["delta"]
            self.factors[j["at"]] = 0.0 if abs(f) < self.ZERO_TOL else f

    def factor(self, t: float) -> float:
        return self.factors.get(t, 1.0)

    @property
    def regime(self) -> str:
        fs = self.factors.values()
        if any(f == 0.0 for f in fs):
            return "vanishing"
        if any(f < 0.0 for f in fs):
            return "sign_changing"
        return "positive_factors"

    def value(self, t: float) -> float:
        k = max(int(np.searchsorted(self.los, t, side="left")) - 1, 0)
        seg = self.segs[k]
        integ = self.cum[k] + segment_integral(seg, self.coeffs, seg["lo"], t)
        sign = 1.0
        for at, f in self.factors.items():
            if at < t:
                if f == 0.0:
                    return 0.0
                integ += math.log(abs(f))
                sign *= -1.0 if f < 0.0 else 1.0
        return sign * math.exp(integ)
