import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    long_derivator,
    random_derivator,
    random_subinterval,
    reference_run_boundaries,
    reference_runs,
    reference_structural_sets,
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


def test_power_profile_increment_shape():
    seg = Segment(0.0, 1.0, PowerProfile(0.5, 2.0))
    ts = np.array([0.0, 0.25, 1.0])
    np.testing.assert_allclose(seg.profile.increment(0.0, 1.0, ts), [0.0, 1.0, 2.0])


def test_tabulated_profile_extends_constantly():
    prof = TabulatedProfile(((0.3, 0.0), (0.7, 1.0)))
    seg = Segment(0.0, 1.0, prof)
    # flat before the first knot and after the last one
    assert prof.increment(0.0, 1.0, 0.1) == 0.0
    assert prof.increment(0.0, 1.0, 0.9) == 1.0
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
                    # the prefix takes power totals from total_increment, the
                    # loop from an array power: the last bit may differ
                    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
                else:
                    assert same_bits(got, want)

    def test_variation_cumulative_keeps_the_input_shape(self):
        d = identity_with_jump()
        ts = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        assert d.variation_cumulative(ts).shape == (2, 3)
        np.testing.assert_array_equal(d.variation_cumulative(ts).ravel(),
                                      d.variation_cumulative(ts.ravel()))
        assert d.variation_cumulative(np.array([])).shape == (0,)
