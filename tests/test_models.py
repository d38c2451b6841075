"""Linear fits, root segmentation, and model-guided searches."""

import importlib
import math
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfindex.harness import DatasetSpec, generate_dataset
from lfindex.models import (
    Model,
    Segment,
    fit_linear,
    measure_segments,
    root_table,
    search_nonroot,
    search_root,
    segment_root,
)

LFBENCH = Path(__file__).resolve().parent.parent / "lfbench"

sorted_keys = st.lists(
    st.integers(0, 2**63), min_size=1, max_size=300, unique=True
).map(sorted)


def exact_least_squares(keys):
    """Independent rational-arithmetic fit for cross-checking."""
    n = len(keys)
    sx = sum(keys)
    sxx = sum(k * k for k in keys)
    sxy = sum(i * k for i, k in enumerate(keys))
    sy = n * (n - 1) // 2
    den = n * sxx - sx * sx
    if den == 0:
        return 0.0, 0.0
    a = Fraction(n * sxy - sx * sy, den)
    b = (Fraction(sy, n) - a * Fraction(sx, n))
    return float(a), float(b)


def table_prediction(table, si, key):
    """Segment ``si``'s rounded local prediction for ``key``, before the
    clamp to its slice, as ``search_root`` evaluates it from ``root_table``."""
    _, _, a, c, _ = table[1][si]
    return math.floor(a * key + c)


def single_model_prediction(model, key):
    """``table_prediction`` for a lone model covering the whole array."""
    return table_prediction(root_table([Segment(0, 0, model, 0)], 1), 0, key)


def oracle_search(keys, key):
    i = bisect_left(keys, key)
    if i < len(keys) and keys[i] == key:
        return i, True
    return i - 1, False


class TestFitLinear:
    def test_collinear_keys_fit_exactly(self):
        assert fit_linear([10, 20, 30]) == Model(0.1, -1.0, 0.0)

    def test_single_key_degenerates_to_zero(self):
        assert fit_linear([0]) == Model(0.0, 0.0, 0.0)
        assert fit_linear([2**62]) == Model(0.0, 0.0, 0.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_linear([])

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_keys_outside_the_domain_are_rejected(self, bad):
        keys = sorted([0, 5, bad])
        with pytest.raises(ValueError):
            fit_linear(keys)
        with pytest.raises(ValueError):
            segment_root(keys, 32.0)
        # numpy would wrap a negative numpy integer into uint64
        with pytest.raises(ValueError):
            fit_linear(np.array([-1, 5]))
        with pytest.raises(ValueError):
            segment_root(np.array([-3, 5, 9]), 32)

    def test_domain_edges_fit(self):
        keys = [0, 2**63, 2**64 - 1]
        assert fit_linear(keys).eps <= 1.0
        assert [s.start_index for s in segment_root(keys, 1.0)] == [0]

    def test_every_model_field_is_a_python_float(self):
        # a numpy float64 coefficient would slow every locate that reads it
        rng = np.random.default_rng(8)
        keys = sorted(set(rng.integers(0, 2**62, 3_000).tolist()))
        models = [fit_linear(ks) for ks in ([7], [5, 5, 5], [1, 2], keys)]
        models += [s.model for eps in (0.25, 32.0) for s in segment_root(keys, eps)]
        assert all(type(x) is float for m in models for x in m)

    def test_eps_matches_a_second_residual_pass(self):
        rng = np.random.default_rng(3)
        keys = sorted(set(rng.integers(0, 2**62, 10_000).tolist()))
        m = fit_linear(keys)
        brute = max(abs(m.a * k + m.b - i) for i, k in enumerate(keys))
        assert m.eps == brute

    def test_coefficients_match_rational_arithmetic(self):
        # the fit is float arithmetic over exact offsets, so it is near the
        # correctly rounded rational line, not equal to it: the slope within
        # 4 ulps, and the same measured eps within 1e-9 relative
        rng = np.random.default_rng(4)
        keys = sorted(set(rng.integers(0, 2**62, 2_000).tolist()))
        m = fit_linear(keys)
        a, b = exact_least_squares(keys)
        assert abs(m.a - a) <= 4 * math.ulp(a)
        rational_eps = max(abs(a * k + b - i) for i, k in enumerate(keys))
        assert m.eps == pytest.approx(rational_eps, rel=1e-9, abs=0)

    @given(sorted_keys)
    @settings(max_examples=150, deadline=None)
    def test_eps_bounds_every_residual(self, keys):
        m = fit_linear(keys)
        assert m.eps >= 0
        for i, k in enumerate(keys):
            assert abs(m.a * k + m.b - i) <= m.eps

    @given(sorted_keys)
    @settings(max_examples=100, deadline=None)
    def test_rounded_prediction_stays_in_the_window(self, keys):
        m = fit_linear(keys)
        window = int(m.eps) + 1
        for i, k in enumerate(keys):
            assert abs(single_model_prediction(m, k) - i) <= window


class TestSegmentRoot:
    def test_linear_data_is_one_segment(self):
        segs = segment_root(list(range(0, 5000, 5)), 1.0)
        assert len(segs) == 1
        assert segs[0].start_index == 0

    def test_two_regimes_split_where_the_line_breaks(self):
        keys = [0, 1, 2, 1000, 1001, 1002]
        assert fit_linear(keys).eps > 0.5  # no single line fits
        segs = segment_root(keys, 0.5)
        assert [s.start_key for s in segs] == [0, 1000]
        assert [s.start_index for s in segs] == [0, 3]

    def test_unbounded_target_gives_the_plain_fit(self):
        keys = [5, 9, 12, 400, 10_000]
        segs = segment_root(keys, math.inf)
        assert len(segs) == 1
        assert segs[0].model == fit_linear(keys)

    def test_empty_and_invalid_inputs(self):
        assert segment_root([], 32.0) == []
        with pytest.raises(ValueError):
            segment_root([1, 2], 0.0)
        with pytest.raises(ValueError):
            segment_root([1, 2], -3.0)

    def test_segment_models_match_fit_linear_on_their_slices(self):
        rng = np.random.default_rng(11)
        keys = sorted(set(rng.integers(0, 2**40, 3_000).tolist()))
        segs = segment_root(keys, 4.0)
        bounds = [s.start_index for s in segs] + [len(keys)]
        for seg, lo, hi in zip(segs, bounds, bounds[1:]):
            assert seg.model == fit_linear(keys[lo:hi])

    @given(sorted_keys, st.floats(0.25, 64.0))
    @settings(max_examples=100, deadline=None)
    def test_tiling_soundness_and_greedy_maximality(self, keys, eps_target):
        segs = segment_root(keys, eps_target)
        bounds = [s.start_index for s in segs] + [len(keys)]
        assert bounds[0] == 0
        assert all(a < b for a, b in zip(bounds, bounds[1:]))  # tiles, no overlap
        for seg, lo, hi in zip(segs, bounds, bounds[1:]):
            assert seg.start_key == keys[lo]
            assert seg.model.eps <= eps_target
            for local, i in enumerate(range(lo, hi)):
                assert abs(seg.model.a * keys[i] + seg.model.b - local) <= seg.model.eps
            if hi < len(keys):  # one more key would break the bound
                assert fit_linear(keys[lo:hi + 1]).eps > eps_target


@pytest.fixture(scope="module")
def workload_keys():
    """The bulk-loaded keys of the benchmark's seed-7 point_skewed and
    churn_scan workloads."""
    sys.path.insert(0, str(LFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        out = {}
        for name in ("point_skewed", "churn_scan"):
            inp = workloads.WORKLOADS[name].make(7, 1.0)
            out[name] = inp.universe[inp.loaded].tolist()
    finally:
        sys.path.remove(str(LFBENCH))
        sys.modules.pop("workloads", None)
    return out


class TestSegmentCounts:
    """Segment counts on fixed key sets, each at or below what the exact-int
    prefix-sum fit made on the same keys."""

    @pytest.mark.parametrize("name, most", [("point_skewed", 173), ("churn_scan", 64)])
    def test_workload_keys(self, workload_keys, name, most):
        segs = segment_root(workload_keys[name], 32.0)
        assert len(segs) <= most
        assert all(s.model.eps <= 32.0 for s in segs)

    def test_ascending_keys_are_one_segment(self):
        assert len(segment_root(list(range(20_000)), 32.0)) == 1

    def test_narrow_window_of_high_keys(self):
        # 50k keys in a 2**20-wide window at 2**62: float64 spacing there
        # is 1024, so absolute keys collide and only the exact offsets
        # separate them; the exact-int prefix-sum fit made 2183 segments
        offsets = np.random.default_rng(62).choice(2**20, 50_000, replace=False)
        keys = (np.uint64(2**62) + np.sort(offsets).astype(np.uint64)).tolist()
        segs = segment_root(keys, 32.0)
        assert all(s.model.eps <= 32.0 for s in segs)
        assert len(segs) <= 2183


class TestPredict:
    def test_exact_line(self):
        assert single_model_prediction(Model(0.1, -1.0, 0.0), 20) == 1

    def test_degenerate_model_predicts_zero(self):
        assert single_model_prediction(Model(0.0, 0.0, 0.0), 123456) == 0
        for keys in ([7], [5, 5, 5]):  # a single key, and equal keys
            m = fit_linear(keys)
            window = int(m.eps) + 1
            for i, k in enumerate(keys):
                assert single_model_prediction(m, k) == 0
                assert i <= window

    def test_containment_on_a_fitted_array(self):
        rng = np.random.default_rng(21)
        keys = sorted(set(rng.integers(0, 2**50, 1_000).tolist()))
        segs = segment_root(keys, 8.0)
        table = root_table(segs, len(keys))
        bounds = [s.start_index for s in segs] + [len(keys)]
        for si, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            window = table[1][si][4]
            assert window <= int(segs[si].model.eps) + 1
            for local, k in enumerate(keys[lo:hi]):
                clamped = min(max(table_prediction(table, si, k), 0), hi - lo - 1)
                assert local - window <= clamped <= local + window


def edge_probes(keys, segs):
    """Keys at and around each segment's edges: its start key and start
    +- 1, its last key and last + 1, and two keys in the gap before the
    next segment (or above the last key)."""
    probes = set()
    for si, seg in enumerate(segs):
        last = keys[segs[si + 1].start_index - 1] if si + 1 < len(segs) else keys[-1]
        nxt = segs[si + 1].start_key if si + 1 < len(segs) else last + 2**20
        probes.update((seg.start_key - 1, seg.start_key, seg.start_key + 1,
                       last, last + 1, (last + nxt) // 2, nxt - 1))
    return sorted(p for p in probes if p >= 0)


def prediction_side(table, key):
    """Where the routing segment's rounded prediction for ``key`` falls
    relative to that segment's slice: "below", "inside" or "above"."""
    starts, rows = table
    si = bisect_right(starts, key) - 1
    if si < 0:
        return "no segment"
    first, last = rows[si][:2]
    p = first + table_prediction(table, si, key)
    if p < first:
        return "below"
    return "above" if p > last else "inside"


class TestSearchRoot:
    def build(self, keys, eps=8.0):
        return root_table(segment_root(keys, eps), len(keys))

    def test_present_keys_found_at_exact_index(self):
        keys = list(range(10, 2010, 10))
        table = self.build(keys)
        for i in (0, 7, 100, len(keys) - 1):
            assert search_root(keys, table, keys[i]) == (i, True)

    def test_key_below_everything(self):
        keys = [100, 200, 300]
        table = self.build(keys)
        assert search_root(keys, table, 5) == (-1, False)

    def test_key_above_everything(self):
        keys = [100, 200, 300]
        table = self.build(keys)
        assert search_root(keys, table, 999) == (2, False)

    def test_empty_array(self):
        table = self.build([])
        for p in (0, 42, 2**63 - 1):
            assert search_root([], table, p) == (-1, False)

    def test_agrees_with_binary_search_on_random_probes(self):
        rng = np.random.default_rng(31)
        keys = sorted(set(rng.integers(0, 2**48, 5_000).tolist()))
        table = self.build(keys, 4.0)
        probes = np.concatenate([
            rng.choice(np.asarray(keys), 1_000),
            rng.integers(0, 2**48, 1_000),
        ]).tolist()
        for p in probes:
            assert search_root(keys, table, p) == oracle_search(keys, p)

    @pytest.mark.parametrize("source", ["uniform", "lognormal"])
    def test_segment_edges_agree_with_binary_search(self, source):
        keys = generate_dataset(DatasetSpec(source=source, size=5_000, seed=3)).tolist()
        segs = segment_root(keys, 2.0)
        table = root_table(segs, len(keys))
        probes = edge_probes(keys, segs)
        # the edges include predictions clamped at both ends of a slice
        sides = {prediction_side(table, p) for p in probes}
        assert {"below", "above"} <= sides
        for p in probes:
            assert search_root(keys, table, p) == oracle_search(keys, p)

    @given(sorted_keys, st.integers(0, 2**63))
    @settings(max_examples=150, deadline=None)
    def test_oracle_equivalence_property(self, keys, probe):
        segs = segment_root(keys, 2.0)
        table = root_table(segs, len(keys))
        for p in [probe, *edge_probes(keys, segs)]:
            assert search_root(keys, table, p) == oracle_search(keys, p)


@st.composite
def keys_and_wild_pieces(draw):
    """Sorted keys cut into up to six pieces, each with a random model of
    slope >= 0: zero, tiny, or far too steep, and an intercept anywhere
    from far below to far above the slice."""
    keys = draw(sorted_keys)
    cuts = draw(st.sets(st.integers(1, len(keys)), max_size=5))
    firsts = [0] + sorted(c for c in cuts if c < len(keys))
    slopes = st.one_of(st.just(0.0), st.floats(0.0, 1e-15), st.floats(0.0, 1e3))
    pieces = [(f, Model(draw(slopes), draw(st.floats(-1e20, 1e20)), 0.0)) for f in firsts]
    return keys, pieces


def gap_probes(keys):
    """Every key, a key in each gap between neighbours, and keys below the
    first and above the last."""
    probes = set(keys)
    probes.update((a + b) // 2 for a, b in zip(keys, keys[1:]))
    probes.update(k + 1 for k in keys)
    probes.update((0, keys[0] - 1, keys[-1] + 1, keys[-1] + 2**40))
    return sorted(p for p in probes if p >= 0)


class TestMeasuredWindow:
    @given(sorted_keys, st.floats(0.25, 64.0))
    @settings(max_examples=100, deadline=None)
    def test_window_is_the_widest_miss_and_within_eps(self, keys, eps_target):
        segs = segment_root(keys, eps_target)
        table = root_table(segs, len(keys))
        bounds = [s.start_index for s in segs] + [len(keys)]
        for si, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            misses = [abs(min(max(table_prediction(table, si, k), 0), hi - lo - 1) - local)
                      for local, k in enumerate(keys[lo:hi])]
            assert segs[si].window == max(misses)
            assert segs[si].window <= int(segs[si].model.eps) + 1

    @given(keys_and_wild_pieces())
    @settings(max_examples=200, deadline=None)
    def test_any_model_with_a_rising_slope_agrees_with_bisect(self, case):
        keys, pieces = case
        table = root_table(measure_segments(keys, pieces), len(keys))
        for p in gap_probes(keys):
            assert search_root(keys, table, p) == oracle_search(keys, p)

    @pytest.mark.parametrize("slope", [-1e-300, -2.0, math.nan])
    def test_root_table_rejects_a_slope_below_zero(self, slope):
        with pytest.raises(ValueError):
            root_table([Segment(0, 0, Model(slope, 0.0, 0.0), 0)], 1)

    @pytest.mark.parametrize("firsts", [[1], [0, 0], [0, 3, 2], [0, 4], []])
    def test_pieces_must_tile_the_keys_from_index_zero(self, firsts):
        with pytest.raises(ValueError):
            measure_segments([1, 2, 3, 4], [(f, Model(0.0, 0.0, 0.0)) for f in firsts])

    def test_no_keys_take_no_pieces(self):
        assert measure_segments([], []) == []
        with pytest.raises(ValueError):
            measure_segments([], [(0, Model(0.0, 0.0, 0.0))])


def one_segment(keys, model=None):
    """The table of a non-root node over ``keys``: one segment, by default
    over ``fit_linear(keys)``."""
    if model is None:
        model = fit_linear(keys)
    return root_table(measure_segments(keys, [(0, model)]), len(keys))


class TestSearchNonroot:
    def test_hit_at_the_predicted_position(self):
        keys = list(range(0, 100, 2))
        assert search_nonroot(keys, one_segment(keys), 40) == (20, True)

    def test_key_above_everything(self):
        keys = [3, 6, 9]
        assert search_nonroot(keys, one_segment(keys), 50) == (2, False)

    def test_key_below_everything(self):
        keys = [30, 60, 90]
        assert search_nonroot(keys, one_segment(keys), 4) == (-1, False)

    def test_agrees_with_binary_search_on_random_probes(self):
        rng = np.random.default_rng(41)
        keys = sorted(set(rng.integers(0, 2**52, 5_000).tolist()))
        table = one_segment(keys)
        probes = np.concatenate([
            rng.choice(np.asarray(keys), 1_000),
            rng.integers(0, 2**52, 1_000),
        ]).tolist()
        for p in probes:
            assert search_nonroot(keys, table, p) == oracle_search(keys, p)

    @given(sorted_keys, st.integers(0, 2**63))
    @settings(max_examples=150, deadline=None)
    def test_oracle_equivalence_property(self, keys, probe):
        assert search_nonroot(keys, one_segment(keys), probe) == oracle_search(keys, probe)

    def test_works_with_a_wild_model(self):
        # the window is measured over the keys, so it is as wide as the
        # junk prediction needs and the search is still right
        keys = [10, 20, 30, 40]
        wild = one_segment(keys, Model(123.0, -4567.0, 0.0))
        for p in (5, 10, 25, 40, 99):
            assert search_nonroot(keys, wild, p) == oracle_search(keys, p)
