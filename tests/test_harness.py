"""Benchmark harness: datasets, workload specs, op streams, reports."""

import io
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from lfindex.harness import (
    CSV_HEADER,
    DatasetFormatError,
    DatasetSpec,
    WORKLOAD_PRESETS,
    WorkloadReport,
    WorkloadSpec,
    _stream,
    _zipf_cdf,
    generate_dataset,
    make_workload,
    prepare_index,
    run_workload,
    write_keyfile,
    write_reports,
)


class TestGenerateDataset:
    def test_deterministic_sorted_unique_u64(self):
        spec = DatasetSpec(source="uniform", size=50_000, seed=9)
        a, b = generate_dataset(spec), generate_dataset(spec)
        assert np.array_equal(a, b)
        assert a.dtype == np.uint64
        assert np.all(np.diff(a.astype(object)) > 0)  # strictly ascending
        assert generate_dataset(DatasetSpec(size=50_000, seed=10))[0] != a[0]

    def test_size_zero(self):
        assert len(generate_dataset(DatasetSpec(size=0))) == 0

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            generate_dataset(DatasetSpec(size=-1))
        with pytest.raises(ValueError):
            generate_dataset(DatasetSpec(source="weibull"))
        with pytest.raises(ValueError):
            generate_dataset(DatasetSpec(source="uniform", lo=10, hi=10))
        with pytest.raises(ValueError):
            generate_dataset(DatasetSpec(source="file"))  # no path

    def test_uniform_respects_bounds(self):
        keys = generate_dataset(DatasetSpec(size=10_000, seed=3, lo=500, hi=600))
        assert keys.min() >= 500 and keys.max() < 600

    def test_normal_centers_on_loc(self):
        spec = DatasetSpec(source="normal", size=200_000, seed=4)
        keys = generate_dataset(spec).astype(np.float64)
        assert abs(keys.mean() - spec.loc) < 4 * spec.scale / np.sqrt(len(keys))

    def test_lognormal_matches_reference_distribution(self):
        spec = DatasetSpec(source="lognormal", size=1_000_000, seed=7)
        keys = generate_dataset(spec).astype(np.float64)
        ref = scipy.stats.lognorm(s=spec.sigma,
                                  scale=spec.multiplier * np.exp(spec.mu))
        stat = scipy.stats.kstest(keys, ref.cdf).statistic
        assert stat < 0.01, f"KS distance {stat}"

    @pytest.mark.parametrize("spec", [
        DatasetSpec(source="normal", size=1_000, seed=5, loc=float(2**64), scale=float(2**40)),
        DatasetSpec(source="lognormal", size=1_000, seed=5, multiplier=float(2**70)),
    ])
    def test_float_draws_clamp_to_the_top_key(self, spec):
        # float64 rounds 2**63 - 1 up to 2**63, so the clamp must not be a float
        keys = generate_dataset(spec)
        assert int(keys.max()) == 2**63 - 1


class TestKeyfile:
    def test_round_trip(self, tmp_path):
        keys = generate_dataset(DatasetSpec(size=5_000, seed=1))
        path = tmp_path / "keys.bin"
        write_keyfile(keys, path)
        back = generate_dataset(DatasetSpec(source="file", path=str(path)))
        assert np.array_equal(back, keys)
        assert path.stat().st_size == 8 + 8 * len(keys)

    def test_unsorted_input_comes_back_canonical(self, tmp_path):
        path = tmp_path / "keys.bin"
        write_keyfile([30, 10, 20, 10], path)
        back = generate_dataset(DatasetSpec(source="file", path=str(path)))
        assert back.tolist() == [10, 20, 30]

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(DatasetFormatError, match="truncated header"):
            generate_dataset(DatasetSpec(source="file", path=str(path)))

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes((10).to_bytes(8, "little") + (1).to_bytes(8, "little") * 3)
        with pytest.raises(DatasetFormatError, match="header says 10"):
            generate_dataset(DatasetSpec(source="file", path=str(path)))

    def test_key_past_the_domain_rejected(self, tmp_path):
        path = tmp_path / "keys.bin"
        write_keyfile([5, 2**63 - 1], path)
        top = generate_dataset(DatasetSpec(source="file", path=str(path)))
        assert int(top.max()) == 2**63 - 1
        write_keyfile([5, 2**63], path)
        with pytest.raises(DatasetFormatError, match="above"):
            generate_dataset(DatasetSpec(source="file", path=str(path)))

    def test_format_error_is_a_value_error(self):
        assert issubclass(DatasetFormatError, ValueError)


class TestWorkloadSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(mix=(0.5, 0.5)),
        dict(mix=(0.5, 0.6, -0.1)),
        dict(mix=(0.5, 0.4, 0.2)),
        dict(range_frac=1.0),
        dict(range_frac=-0.1),
        dict(hotspot=0.0),
        dict(hotspot=1.5),
        dict(threads=0),
        dict(total_ops=None),
        dict(total_ops=0),
        dict(total_ops=-5),
        dict(total_ops=None, duration=-1.0),
        dict(range_width=-3),
        dict(key_dist="pareto"),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)

    def test_accepts_edges(self):
        WorkloadSpec(mix=(1.0, 0.0, 0.0), hotspot=1.0, range_frac=0.0)
        WorkloadSpec(total_ops=None, duration=0.5)

    def test_presets(self):
        assert WORKLOAD_PRESETS["read-heavy"]["mix"] == (0.95, 0.03, 0.02)
        assert WORKLOAD_PRESETS["update-heavy"]["mix"] == (0.30, 0.50, 0.20)
        assert WORKLOAD_PRESETS["ycsb-a"]["mix"] == (0.50, 0.50, 0.0)
        assert WORKLOAD_PRESETS["ycsb-b"]["mix"] == (0.95, 0.05, 0.0)
        assert WORKLOAD_PRESETS["ycsb-c"]["mix"] == (1.0, 0.0, 0.0)
        for name in ("ycsb-a", "ycsb-b", "ycsb-c"):
            assert make_workload(name).key_dist == "zipfian"
        assert make_workload("read-heavy").key_dist == "uniform"

    def test_make_workload_overrides(self):
        spec = make_workload("read-heavy", threads=4, seed=9)
        assert spec.mix == (0.95, 0.03, 0.02)
        assert spec.threads == 4 and spec.seed == 9
        with pytest.raises(ValueError):
            make_workload("write-only")


class TestStreams:
    def test_zipf_cdf_shape(self):
        c = _zipf_cdf(5, 0.99)
        w = 1.0 / np.arange(1, 6) ** 0.99
        assert np.allclose(c, np.cumsum(w) / w.sum())
        assert c[-1] == 1.0 and np.all(np.diff(c) > 0)
        assert np.allclose(_zipf_cdf(4, 0.0), [0.25, 0.5, 0.75, 1.0])

    def test_stream_codes_and_positions(self):
        spec = WorkloadSpec(mix=(0.6, 0.3, 0.1), range_frac=0.2, seed=0)
        rng = np.random.default_rng(5)
        codes, pos = _stream(rng, spec, 50_000, wstart=100, wsize=400, zcdf=None)
        assert set(np.unique(codes)) <= {0, 1, 2, 3}
        assert pos.min() >= 100 and pos.max() < 500
        frac = np.bincount(codes, minlength=4) / len(codes)
        assert abs(frac[3] - 0.2) < 0.01
        points = frac[:3] / frac[:3].sum()
        for got, want in zip(points, spec.mix):
            assert abs(got - want) < 0.01

    def test_stream_without_ranges_emits_none(self):
        spec = WorkloadSpec(mix=(0.5, 0.3, 0.2), range_frac=0.0)
        codes, _ = _stream(np.random.default_rng(1), spec, 20_000, 0, 100, None)
        assert 3 not in codes

    def test_pure_search_mix_never_mutates(self):
        spec = WorkloadSpec(mix=(1.0, 0.0, 0.0))
        codes, _ = _stream(np.random.default_rng(2), spec, 20_000, 0, 100, None)
        assert set(np.unique(codes)) == {0}


class TestPrepareIndex:
    def test_prefill_subset_payload_is_key(self):
        keys = generate_dataset(DatasetSpec(size=2_000, seed=2))
        index, chosen = prepare_index(keys, 500, seed=1)
        assert len(chosen) == 500
        assert np.all(np.diff(chosen.astype(object)) > 0)
        assert set(chosen.tolist()) <= set(keys.tolist())
        for k in chosen[:20].tolist():
            assert index.search(k) == k

    def test_full_and_empty_prefill(self):
        keys = generate_dataset(DatasetSpec(size=300, seed=2))
        index, chosen = prepare_index(keys, len(keys))
        assert np.array_equal(chosen, keys)
        index2, chosen2 = prepare_index(keys, 0)
        assert len(chosen2) == 0
        assert index2.search(int(keys[0])) is None

    def test_prefill_bounds(self):
        keys = generate_dataset(DatasetSpec(size=10, seed=2))
        with pytest.raises(ValueError):
            prepare_index(keys, 11)
        with pytest.raises(ValueError):
            prepare_index(keys, -1)


def _spy_index(index):
    """A stand-in exposing the four driver entry points, recording keys."""
    seen = {"keys": [], "misses": 0}

    def search(k):
        v = index.search(k)
        seen["keys"].append(k)
        if v is None:
            seen["misses"] += 1
        return v

    spy = SimpleNamespace(search=search, insert=index.insert,
                          delete=index.delete, range=index.range)
    return spy, seen


class TestRunWorkload:
    def test_ops_mode_runs_exactly_the_budget(self):
        keys = generate_dataset(DatasetSpec(size=2_000, seed=5))
        index, _ = prepare_index(keys, 1_000)
        spec = WorkloadSpec(total_ops=10_001, threads=3, seed=2)
        report = run_workload(index, keys, spec, label="exact")
        assert report.total_ops == 10_001
        assert report.label == "exact"
        assert report.elapsed > 0 and report.mops > 0

    def test_pure_reads_on_full_prefill_never_miss(self):
        keys = generate_dataset(DatasetSpec(size=2_000, seed=5))
        index, _ = prepare_index(keys, len(keys))
        spy, seen = _spy_index(index)
        spec = WorkloadSpec(mix=(1.0, 0.0, 0.0), total_ops=20_000, seed=3)
        report = run_workload(spy, keys, spec)
        assert report.counts == (20_000, 0, 0, 0)
        assert seen["misses"] == 0

    def test_realized_mix_tracks_spec(self):
        keys = generate_dataset(DatasetSpec(size=5_000, seed=5))
        index, _ = prepare_index(keys, 2_500)
        spec = WorkloadSpec(mix=(0.6, 0.3, 0.1), range_frac=0.1,
                            total_ops=40_000, seed=4)
        report = run_workload(index, keys, spec)
        sf, inf, df, rf = report.realized_mix()
        assert abs(sf - 0.6) < 0.01 and abs(inf - 0.3) < 0.01
        assert abs(df - 0.1) < 0.01 and abs(rf - 0.1) < 0.01

    def test_hotspot_confines_keys_to_one_window(self):
        keys = generate_dataset(DatasetSpec(size=10_000, seed=6))
        index, _ = prepare_index(keys, len(keys))
        spy, seen = _spy_index(index)
        spec = WorkloadSpec(mix=(1.0, 0.0, 0.0), hotspot=0.1,
                            total_ops=5_000, seed=11)
        run_workload(spy, keys, spec)
        # recompute the window the runner must have drawn from the run seed
        n = len(keys)
        wsize = max(1, int(round(0.1 * n)))
        wstart = int(np.random.default_rng([11, 3]).integers(0, n - wsize + 1))
        window = set(keys[wstart:wstart + wsize].tolist())
        assert seen["keys"] and set(seen["keys"]) <= window

    def test_zipfian_load_is_skewed(self):
        keys = generate_dataset(DatasetSpec(size=2_000, seed=6))
        index, _ = prepare_index(keys, len(keys))
        spy, seen = _spy_index(index)
        spec = make_workload("ycsb-c", total_ops=20_000, seed=12)
        run_workload(spy, keys, spec)
        top = max(np.unique(seen["keys"], return_counts=True)[1])
        assert top / len(seen["keys"]) > 10 / len(keys)  # far above uniform

    def test_duration_mode(self):
        keys = generate_dataset(DatasetSpec(size=1_000, seed=5))
        index, _ = prepare_index(keys, 500)
        spec = WorkloadSpec(total_ops=None, duration=0.3, threads=2, seed=1)
        report = run_workload(index, keys, spec)
        assert report.total_ops > 0
        assert 0.3 <= report.elapsed < 1.5

    @pytest.mark.parametrize("fault, error", [
        ("search raises", RuntimeError),       # mid-run
        ("no range method", AttributeError),   # before the start barrier
    ])
    def test_a_worker_exception_is_raised(self, fault, error):
        # the exception surfaces: no report of zero counts, no hang
        keys = generate_dataset(DatasetSpec(size=500, seed=5))
        index, _ = prepare_index(keys, 250)

        def search(k):
            raise RuntimeError("search failed")

        broken = SimpleNamespace(search=index.search, insert=index.insert,
                                 delete=index.delete, range=index.range)
        if fault == "search raises":
            broken.search = search
        else:
            del broken.range
        spec = WorkloadSpec(mix=(1.0, 0.0, 0.0), total_ops=1_000, threads=2, seed=1)
        with pytest.raises(error):
            run_workload(broken, keys, spec)

    def test_empty_dataset_rejected(self):
        index, _ = prepare_index(np.array([], dtype=np.uint64), 0)
        with pytest.raises(ValueError):
            run_workload(index, np.array([], dtype=np.uint64), WorkloadSpec())


class TestReports:
    def test_csv_row_matches_header(self):
        keys = generate_dataset(DatasetSpec(size=500, seed=5))
        index, _ = prepare_index(keys, 250)
        report = run_workload(index, keys, WorkloadSpec(total_ops=2_000), "w")
        fields = report.to_csv_row().split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "w" and int(fields[2]) == 2_000
        float(fields[4])  # mops parses

    def test_zero_op_report(self):
        r = WorkloadReport("x", WorkloadSpec(), (0, 0, 0, 0), 0.0)
        assert r.total_ops == 0 and r.mops == 0.0
        assert r.realized_mix() == (0.0, 0.0, 0.0, 0.0)

    def test_write_reports_stream(self):
        r = WorkloadReport("x", WorkloadSpec(), (3, 2, 1, 0), 1.0)
        buf = io.StringIO()
        write_reports([r, r], buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == CSV_HEADER and len(lines) == 3
