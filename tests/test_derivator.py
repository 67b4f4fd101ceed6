import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    exact_power_derivator,
    long_derivator,
    random_derivator,
    random_subinterval,
    reference_eval,
    reference_eval_right,
    reference_run_boundaries,
    reference_runs,
    reference_structural_sets,
    reference_variation,
    reference_variation_by_segment,
    reference_variation_cumulative,
    same_bits,
    variation_oracle,
)
from stieltjes import (
    BOUNDARY_POINT,
    CONSTANCY_POINT,
    FALLING_POINT,
    JUMP_POINT,
    RISING_POINT,
    ConstantProfile,
    Derivator,
    DomainError,
    Jump,
    LinearProfile,
    PowerProfile,
    Segment,
    TabulatedProfile,
    specio,
    uniform_grid,
)

VAR_ATOL = 1e-12


def identity_with_jump(delta=2.0, at=0.5):
    return Derivator.identity(0.0, 1.0, jumps=[(at, delta)])


def tent():
    return Derivator((0.0, 1.0), [
        Segment(0.0, 0.5, LinearProfile(1.0)),
        Segment(0.5, 1.0, LinearProfile(-1.0)),
    ], [])


class TestEvaluation:
    def test_left_continuous_value(self):
        d = identity_with_jump()
        assert d.eval(0.8) == pytest.approx(2.8)
        assert d.eval(0.5) == 0.5
        assert d.eval_right(0.5) == 2.5

    def test_jump_delta_is_exact(self):
        d = identity_with_jump(delta=-3.0)
        assert d.eval_right(0.5) - d.eval(0.5) == -3.0
        assert d.delta_at(0.5) == -3.0
        assert d.delta_at(0.25) == 0.0

    def test_vectorized_eval_matches_scalar(self):
        rng = np.random.default_rng(3)
        d = random_derivator(rng)
        ts = np.linspace(0, 1, 257)
        vec = d.eval(ts)
        for i in (0, 64, 128, 255):
            assert vec[i] == d.eval(float(ts[i]))

    def test_domain_is_enforced(self):
        d = identity_with_jump()
        with pytest.raises(DomainError):
            d.eval(1.5)
        with pytest.raises(DomainError):
            d.eval(-0.1)

    def test_anchor_shifts_values(self):
        d = Derivator.identity(0.0, 1.0)
        shifted = Derivator((0.0, 1.0), [Segment(0.0, 1.0, LinearProfile(1.0))],
                            [], anchor=5.0)
        assert shifted.eval(0.3) == d.eval(0.3) + 5.0


class TestVariation:
    def test_tent_desk_values(self):
        d = tent()
        assert d.variation(0, 1, "total") == pytest.approx(1.0, abs=1e-15)
        assert d.variation(0, 1, "positive") == pytest.approx(0.5, abs=1e-15)
        assert d.variation(0, 1, "negative") == pytest.approx(0.5, abs=1e-15)

    def test_negative_jump_counts_in_total(self):
        d = identity_with_jump(delta=-3.0)
        # slope contributes 1, the drop contributes 3
        assert d.variation(0, 1, "total") == pytest.approx(4.0)
        assert d.variation(0, 1, "negative") == pytest.approx(3.0)

    def test_half_open_convention(self):
        d = identity_with_jump(delta=2.0, at=0.5)
        assert d.variation(0.0, 0.5, "total") == pytest.approx(0.5)
        # the jump sits at the closed left end of [0.5, 1)
        assert d.variation(0.5, 1.0, "total") == pytest.approx(2.5)

    def test_corpus_against_partition_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            d = random_derivator(rng)
            lo, hi = random_subinterval(rng, d)
            for kind in ("total", "positive", "negative"):
                lib = d.variation(lo, hi, kind)
                ora = variation_oracle(d, lo, hi, kind)
                assert lib == pytest.approx(ora, abs=VAR_ATOL, rel=1e-12)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2 ** 31))
    def test_jordan_identities_property(self, seed):
        rng = np.random.default_rng(seed)
        d = random_derivator(rng)
        lo, hi = random_subinterval(rng, d)
        total = d.variation(lo, hi, "total")
        pos = d.variation(lo, hi, "positive")
        neg = d.variation(lo, hi, "negative")
        assert total == pytest.approx(pos + neg, abs=VAR_ATOL, rel=1e-12)
        signed = d.eval(hi) - d.eval(lo)
        assert signed == pytest.approx(pos - neg, abs=1e-10, rel=1e-10)

    def test_one_pass_gives_what_three_variation_calls_give(self):
        # decompose and the measures take all three kinds from one pass
        rng = np.random.default_rng(2402)
        for i in range(1000):
            d = random_derivator(rng) if i % 50 else long_derivator(rng)
            lo, hi = ((d.a, d.b), random_subinterval(rng, d), (0.5, 0.5))[i % 3]
            want = [reference_variation(d, lo, hi, kind)
                    for kind in ("positive", "negative", "total")]
            assert same_bits(d._variations(lo, hi), want)
            assert same_bits([d.variation(lo, hi, k) for k in ("positive", "negative", "total")],
                             want)

    def test_cumulative_matches_pointwise(self):
        rng = np.random.default_rng(12)
        d = random_derivator(rng)
        ts = np.linspace(0, 1, 33)
        cum = d.variation_cumulative(ts, "total")
        for t, v in zip(ts, cum):
            assert v == pytest.approx(d.variation(0.0, float(t), "total"), abs=1e-12)


class TestStructure:
    def test_decomposition_desk_example(self):
        d = identity_with_jump(delta=2.0, at=0.5)
        sets = d.structural_sets()
        assert sets.jumps_up == (0.5,)
        assert sets.jumps_down == ()
        # the jump splits an otherwise uniform rise into two runs
        assert sets.rising == ((0.0, 0.5), (0.5, 1.0))
        assert sets.falling == ()
        assert sets.constant == ()

    def test_same_direction_junction_is_one_run(self):
        d = Derivator((0.0, 1.0), [
            Segment(0.0, 0.5, LinearProfile(1.0)),
            Segment(0.5, 1.0, LinearProfile(2.0)),
        ], [])
        sets = d.structural_sets()
        assert sets.rising == ((0.0, 1.0),)
        assert 0.5 not in d.run_boundaries()

    def test_constancy_run_recorded(self):
        d = Derivator((0.0, 1.0), [
            Segment(0.0, 0.4, LinearProfile(1.0)),
            Segment(0.4, 0.7, ConstantProfile()),
            Segment(0.7, 1.0, LinearProfile(1.0)),
        ], [])
        sets = d.structural_sets()
        assert sets.constant == ((0.4, 0.7),)
        assert sets.rising == ((0.0, 0.4), (0.7, 1.0))

    def test_classify_point(self):
        d = tent()
        kind, direction = d.classify_point(0.25)
        assert kind == "interior" and direction == "nondecreasing"
        kind, _ = d.classify_point(0.5)
        assert kind == "excluded"
        dj = identity_with_jump()
        kind, delta = dj.classify_point(0.5)
        assert kind == "jump" and delta == 2.0

    def test_runs_cover_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = random_derivator(rng)
            sets = d.structural_sets()
            runs = sorted(sets.rising + sets.falling + sets.constant)
            assert runs[0][0] == d.a
            assert runs[-1][1] == d.b
            for (_, r1), (l2, _) in zip(runs, runs[1:]):
                assert r1 == l2


class TestValidation:
    def test_segments_must_tile(self):
        with pytest.raises(DomainError):
            Derivator((0.0, 1.0), [
                Segment(0.0, 0.4, LinearProfile(1.0)),
                Segment(0.5, 1.0, LinearProfile(1.0)),
            ], [])

    def test_jump_must_sit_on_boundary(self):
        with pytest.raises(DomainError):
            Derivator((0.0, 1.0), [Segment(0.0, 1.0, LinearProfile(1.0))],
                      [Jump(0.3, 1.0)])

    def test_jump_at_right_endpoint_rejected(self):
        with pytest.raises(DomainError):
            Derivator.identity(0.0, 1.0, jumps=[(1.0, 1.0)])

    def test_zero_jump_rejected(self):
        with pytest.raises(DomainError):
            Jump(0.5, 0.0)

    def test_non_monotone_table_rejected(self):
        with pytest.raises(DomainError):
            Segment(0.0, 1.0, TabulatedProfile(((0.2, 0.0), (0.5, 1.0), (0.8, 0.5))))

    def test_direction_conflict_rejected(self):
        with pytest.raises(DomainError):
            Segment(0.0, 1.0, LinearProfile(1.0), direction="nonincreasing")

    def test_power_profile_needs_positive_exponent(self):
        with pytest.raises(DomainError):
            PowerProfile(0.0, 1.0)

    def test_tabulated_knots_must_be_interior(self):
        with pytest.raises(DomainError):
            Segment(0.0, 1.0, TabulatedProfile(((0.0, 0.0), (0.5, 1.0))))

    @pytest.mark.parametrize("query", ["eval", "eval_right", "variation_cumulative",
                                       "classify", "classify_point"])
    def test_nan_time_is_outside_the_interval(self, query):
        # t < a and t > b are both False for NaN; the time is still not in [a, b]
        d = identity_with_jump()
        with pytest.raises(DomainError, match=r"^time nan outside \[0\.0, 1\.0\]$"):
            getattr(d, query)(float("nan"))
        with pytest.raises(DomainError, match=r"^time nan outside"):
            getattr(d, query)(np.array([0.25, np.nan, 0.75]))

    @pytest.mark.parametrize("query", ["jump_index", "deltas_on", "delta_at",
                                       "segment_index", "segments_adjacent"])
    def test_structure_queries_check_the_domain(self, query):
        # these answered before: delta_at(5.0) gave 0.0, segment_index(nan) gave 1
        d = identity_with_jump()
        for t in (5.0, -1.0, float("nan")):
            with pytest.raises(DomainError, match=rf"^time {t} outside \[0\.0, 1\.0\]$"):
                getattr(d, query)(t)
        getattr(d, query)(1.0)  # the closed right end is inside


def test_power_profile_increment_shape():
    seg = Segment(0.0, 1.0, PowerProfile(0.5, 2.0))
    ts = np.array([0.0, 0.25, 1.0])
    np.testing.assert_allclose(Derivator((0.0, 1.0), [seg]).eval(ts), [0.0, 1.0, 2.0])


def test_tabulated_profile_extends_constantly():
    prof = TabulatedProfile(((0.3, 0.0), (0.7, 1.0)))
    seg = Segment(0.0, 1.0, prof)
    # flat before the first knot and after the last one
    d = Derivator((0.0, 1.0), [seg])
    assert d.eval(0.1) == 0.0
    assert d.eval(0.9) == 1.0
    assert seg.direction == "nondecreasing"


def test_constant_constructor():
    d = Derivator.constant(0.0, 2.0, level=4.5)
    assert d.eval(1.3) == 4.5
    assert d.variation(0, 2, "total") == 0.0
    assert d.structural_sets().constant == ((0.0, 2.0),)


# ------------------------------------------------ array structure queries
#
# Per-point reference lookups: a dict of jump masses, a linear scan over the
# maximal runs and over the segments. The array queries must agree with them
# exactly at every breakpoint, every jump, both ends and points off the
# breakpoints.


def reference_delta(d, t):
    return {j.at: j.delta for j in d.jumps}.get(float(t), 0.0)


def reference_classify(d, t):
    t = float(t)
    deltas = {j.at: j.delta for j in d.jumps}
    if t in deltas:
        return ("jump", deltas[t])
    sets = d.structural_sets()
    runs = ([(iv, "nondecreasing") for iv in sets.rising]
            + [(iv, "nonincreasing") for iv in sets.falling]
            + [(iv, "constant") for iv in sets.constant])
    for (lo, hi), direction in runs:
        if lo < t < hi:
            if direction == "constant":
                return ("excluded", "inside a constancy interval")
            return ("interior", direction)
    return ("excluded", "run boundary without a jump")


def reference_adjacent(d, t):
    left = right = None
    for k, seg in enumerate(d.segments):
        if seg.lo < t <= seg.hi:
            left = k
        if seg.lo <= t < seg.hi:
            right = k
    return (left, right)


CLASS_OF = {
    "jump": JUMP_POINT,
    "nondecreasing": RISING_POINT,
    "nonincreasing": FALLING_POINT,
    "inside a constancy interval": CONSTANCY_POINT,
    "run boundary without a jump": BOUNDARY_POINT,
}


def probe_times(rng, d):
    """Breakpoints, jumps, both ends, their float neighbours and random points."""
    bks = np.array(d.breakpoints())
    ats = np.array([j.at for j in d.jumps])
    near = np.concatenate([np.nextafter(bks, -np.inf), np.nextafter(bks, np.inf)])
    mids = 0.5 * (bks[:-1] + bks[1:])
    ts = np.concatenate([bks, ats, [d.a, d.b], near, mids, rng.uniform(d.a, d.b, 64)])
    ts = ts[(ts >= d.a) & (ts <= d.b)]
    rng.shuffle(ts)
    return ts


def assert_queries_match_reference(rng, d):
    ts = probe_times(rng, d)
    deltas = d.deltas_on(ts)
    codes = d.classify(ts)
    for t, delta, code in zip(ts, deltas, codes):
        want = reference_classify(d, t)
        assert delta == reference_delta(d, t)
        assert d.delta_at(t) == reference_delta(d, t)
        assert code == CLASS_OF[want[0] if want[0] == "jump" else want[1]]
        assert d.classify_point(t) == want
        assert d.segments_adjacent(t) == reference_adjacent(d, t)
        assert d.eval_right(float(t)) == d.eval(float(t)) + reference_delta(d, t)
    # the array forms keep the input shape
    assert d.classify(ts.reshape(-1, 1)).shape == (len(ts), 1)
    np.testing.assert_array_equal(d.deltas_on(ts[:, None])[:, 0], deltas)


class TestArrayQueries:
    def test_corpus_matches_per_point_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            assert_queries_match_reference(rng, random_derivator(rng))

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2 ** 31))
    def test_matches_per_point_reference_property(self, seed):
        rng = np.random.default_rng(seed)
        a = float(rng.uniform(-3.0, 0.0))
        b = a + float(rng.uniform(0.1, 4.0))
        assert_queries_match_reference(rng, random_derivator(rng, a, b))

    def test_classify_desk_values(self):
        d = Derivator((0.0, 1.0), [
            Segment(0.0, 0.4, LinearProfile(1.0)),
            Segment(0.4, 0.7, ConstantProfile()),
            Segment(0.7, 0.8, LinearProfile(-1.0)),
            Segment(0.8, 1.0, LinearProfile(-2.0)),
        ], [Jump(0.7, 0.5)])
        ts = [0.0, 0.2, 0.4, 0.5, 0.7, 0.75, 0.8, 0.9, 1.0]
        np.testing.assert_array_equal(d.classify(ts), [
            BOUNDARY_POINT, RISING_POINT, BOUNDARY_POINT, CONSTANCY_POINT,
            JUMP_POINT, FALLING_POINT, FALLING_POINT, FALLING_POINT, BOUNDARY_POINT,
        ])
        np.testing.assert_array_equal(d.deltas_on(ts), [0, 0, 0, 0, 0.5, 0, 0, 0, 0])
        np.testing.assert_array_equal(d.jump_index(ts), [-1, -1, -1, -1, 0, -1, -1, -1, -1])

    def test_classify_enforces_the_domain(self):
        with pytest.raises(DomainError):
            tent().classify([0.5, 1.5])

    def test_no_jumps(self):
        d = tent()
        ts = np.linspace(0.0, 1.0, 9)
        np.testing.assert_array_equal(d.deltas_on(ts), np.zeros(9))
        np.testing.assert_array_equal(d.jump_index(ts), np.full(9, -1))

    def test_eval_is_pointwise_whatever_the_order(self):
        # each point goes through the same segment increment whether it comes
        # alone, in order or shuffled among points of other segments
        rng = np.random.default_rng(32)
        for _ in range(30):
            d = random_derivator(rng)
            ts = probe_times(rng, d)
            vals = d.eval(ts)
            order = np.argsort(ts)
            np.testing.assert_array_equal(d.eval(ts[order]), vals[order])
            np.testing.assert_array_equal(d.eval(ts.reshape(-1, 1))[:, 0], vals)
            assert [d.eval(float(t)) for t in ts[:16]] == vals[:16].tolist()
            assert d.eval(np.array([])).shape == (0,)


class TestOnePointQueries:
    """A float query takes its own path; each answer keeps the array path's bits."""

    @staticmethod
    def corpus(seed, n=300):
        """Random derivators (power segments among them), every tenth one with
        numpy's exact scalar powers, and signed zeros: a = 0, with the time
        -0.0, in every other draw and a -0.0 anchor in every third."""
        rng = np.random.default_rng(seed)
        for i in range(n):
            if i % 10 == 0:
                d = exact_power_derivator(rng)
            else:
                a = 0.0 if i % 2 else float(rng.uniform(-2.0, 0.0))
                d = random_derivator(rng, a, a + float(rng.uniform(0.5, 3.0)))
            if i % 3 == 0:
                d = Derivator(d.interval, d.segments, d.jumps, anchor=-0.0)
            ts = [*rng.uniform(d.a, d.b, 16).tolist(), *d.breakpoints(),
                  *(j.at for j in d.jumps), d.a, d.b, *([-0.0] if d.a == 0.0 else [])]
            yield d, ts

    def test_values_keep_the_array_bits(self):
        powers = 0
        for d, ts in self.corpus(2101):
            powers += sum(p.kind == "power" for p in (s.profile for s in d.segments))
            for t in ts:
                for q in (d.eval, d.eval_right):
                    one, arr = q(t), q(np.array([t]))
                    assert type(one) is float
                    assert same_bits(one, arr[0]), (d, t, q.__name__)
                    assert same_bits(q(np.float64(t)), one)
        assert powers > 300

    def test_classes_and_neighbours_match_the_array_path(self):
        for d, ts in self.corpus(2102):
            segs = d.segments
            for t in ts:
                kind, payload = d.classify_point(t)
                assert (kind, payload) == d.classify_point(np.array(t))
                if kind == "jump":
                    assert same_bits(payload, d.deltas_on([t])[0])
                code = int(d.classify([t])[0])
                assert kind == ("jump" if code == JUMP_POINT else
                                "interior" if code in (RISING_POINT, FALLING_POINT)
                                else "excluded")
                left = [k for k, s in enumerate(segs) if s.lo < t <= s.hi]
                right = [k for k, s in enumerate(segs) if s.lo <= t < s.hi]
                assert d.segments_adjacent(t) == (left[0] if left else None,
                                                  right[0] if right else None)

    @pytest.mark.parametrize("query", ["eval", "eval_right", "classify_point",
                                       "segments_adjacent"])
    def test_times_outside_keep_the_domain_error(self, query):
        d = random_derivator(np.random.default_rng(2103), -1.0, 2.0)
        for t in (-1.5, 2.0 + 1e-12, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(DomainError) as one:
                getattr(d, query)(t)
            assert str(one.value) == f"time {t} outside [-1.0, 2.0]"
            with pytest.raises(DomainError) as arr:
                getattr(d, query)(np.array(t))
            assert str(arr.value) == str(one.value)


# The runs, structural sets and cumulative variation read the segment table's
# class and prefix columns; the per-segment loops they replace live on in
# helpers as references.

RUN_CLASS_OF = {"nondecreasing": RISING_POINT, "nonincreasing": FALLING_POINT,
                "constant": CONSTANCY_POINT}


def table_corpus(seed):
    rng = np.random.default_rng(seed)
    return rng, [random_derivator(rng) for _ in range(200)] + [long_derivator(rng)]


class TestSegmentTable:
    def test_runs_and_sets_match_the_per_segment_loop(self):
        _, draws = table_corpus(61)
        for d in draws:
            runs = list(zip(d._run_lo.tolist(), d._run_hi.tolist(), d._run_class.tolist()))
            assert runs == [(lo, hi, RUN_CLASS_OF[direction])
                            for lo, hi, direction in reference_runs(d)]
            assert d.structural_sets() == reference_structural_sets(d)
            assert d.run_boundaries() == reference_run_boundaries(d)

    def test_variation_cumulative_matches_the_per_segment_loop(self):
        rng, draws = table_corpus(62)
        for d in draws:
            ts = probe_times(rng, d)
            has_power = any(isinstance(seg.profile, PowerProfile) for seg in d.segments)
            for kind in ("total", "positive", "negative"):
                got = d.variation_cumulative(ts, kind)
                want = reference_variation_cumulative(d, ts, kind)
                if has_power:
                    # the prefix takes power totals from a scalar power, the
                    # loop from an array power: the last bit may differ
                    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
                else:
                    assert same_bits(got, want)

    def test_eval_and_variation_keep_the_bits_of_the_per_segment_loop(self):
        """The kind columns give each point the bits its own profile gives it,
        exponents with an exact numpy scalar power included."""
        rng, draws = table_corpus(63)
        draws += [exact_power_derivator(rng) for _ in range(20)]
        draws += [long_derivator(rng, 2000)]
        for d in draws:
            ts = np.concatenate([probe_times(rng, d), uniform_grid(d, 8)])
            for t in (ts, ts[:1]):
                assert same_bits(d.eval(t), reference_eval(d, t))
                assert same_bits(d.eval_right(t), reference_eval_right(d, t))
                for kind in ("total", "positive", "negative"):
                    assert same_bits(d.variation_cumulative(t, kind),
                                     reference_variation_by_segment(d, t, kind))

    def test_tabulated_points_read_their_knot_rows_without_interpolation(self, monkeypatch):
        """Points on tabulated segments take their knot row's affine expression,
        with np.interp's bits and no call to it, however many tabulated
        segments the derivator has."""
        d = long_derivator(np.random.default_rng(64), 2000)
        seg = [s for s in d.segments if isinstance(s.profile, TabulatedProfile)][100]
        ts = seg.lo + (seg.hi - seg.lo) * np.array([0.75, 0.25])
        want = reference_eval(d, ts)
        calls, interp = [], np.interp
        monkeypatch.setattr(np, "interp", lambda x, *args: calls.append(len(x)) or interp(x, *args))
        got = d.eval(ts)
        assert calls == []
        assert same_bits(got, want)

    def test_variation_cumulative_keeps_the_input_shape(self):
        d = identity_with_jump()
        ts = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        assert d.variation_cumulative(ts).shape == (2, 3)
        np.testing.assert_array_equal(d.variation_cumulative(ts).ravel(),
                                      d.variation_cumulative(ts.ravel()))
        assert d.variation_cumulative(np.array([])).shape == (0,)


# A tabulated segment is a run of table rows: a flat head, one affine row per
# knot cell and a flat tail. Every query must keep the bits that one
# np.interp per segment gives, and every segment-level answer its value.


def tabulated_draws(seed, count=300):
    """``count`` random derivators that each hold a tabulated segment."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        d = random_derivator(rng)
        if any(isinstance(s.profile, TabulatedProfile) for s in d.segments):
            draws.append(d)
    return rng, draws


class TestKnotRows:
    def test_queries_keep_the_bits_of_one_interpolation_per_segment(self):
        rng, draws = tabulated_draws(81)
        for d in draws:
            knots = [x for s in d.segments for x, _ in getattr(s.profile, "points", ())]
            ends = [v for s in d.segments for v in (s.lo, s.hi)]
            ts = np.concatenate([rng.uniform(d.a, d.b, 64), knots, ends,
                                 np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
            assert same_bits(d.eval(ts), reference_eval(d, ts))
            assert same_bits(d.eval_right(ts), reference_eval_right(d, ts))
            for kind in ("total", "positive", "negative"):
                assert same_bits(d.variation_cumulative(ts, kind),
                                 reference_variation_by_segment(d, ts, kind))
            for t in knots + ends:  # the one-point path
                assert same_bits(d.eval(t), reference_eval(d, [t]))
            lo, hi = random_subinterval(rng, d)
            for c, e in ((lo, hi), (d.a, d.b), (d.a, knots[0]), (knots[-1], d.b)):
                for kind in ("total", "positive", "negative"):
                    assert same_bits(d.variation(c, e, kind), reference_variation(d, c, e, kind))

    def test_head_and_tail_rows_do_not_split_a_run(self):
        _, draws = tabulated_draws(82)
        for d in draws:
            assert d.structural_sets() == reference_structural_sets(d)
            assert d.run_boundaries() == reference_run_boundaries(d)
            ts = np.array(d.breakpoints())
            assert d.segment_index(ts).tolist() == [
                max([k for k, s in enumerate(d.segments) if s.lo < t] or [0]) for t in ts]

    def test_tabulated_documents_round_trip(self):
        _, draws = tabulated_draws(83)
        for d in draws:
            doc = specio.serialize_derivator(d)
            assert specio.serialize_derivator(specio.parse_derivator(doc)) == doc
            assert specio.parse_derivator(doc).segments == d.segments

    @pytest.mark.parametrize("segments, jumps", [
        ([Segment(0.0, 1.0, LinearProfile(1e308)), Segment(1.0, 2.0, LinearProfile(-1e308))], []),
        ([Segment(0.0, 1.0, ConstantProfile()), Segment(1.0, 2.0, ConstantProfile())],
         [Jump(0.0, 1e308), Jump(1.0, -1e308)]),
    ], ids=["slopes", "jumps"])
    def test_a_total_variation_that_overflows_is_a_domain_error(self, segments, jumps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^increments or jumps overflow on \[0\.0, 2\.0\]"):
                Derivator((0.0, 2.0), segments, jumps)

    def test_a_knot_cell_slope_that_overflows_is_a_domain_error(self):
        with pytest.raises(DomainError, match="knot-cell slope"):
            Derivator((0.0, 1.0), [Segment(0.0, 1.0, TabulatedProfile(
                ((5e-324, 0.0), (1e-323, 1.0), (0.5, 2.0))))])
