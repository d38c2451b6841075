"""End-to-end acceptance gate, full scale.

Each test runs one criterion from lfindex.acceptance and emits its
PASS/FAIL/SKIP line to the live terminal (bypassing capture) so the run
log carries the measured numbers, then asserts the verdict.  The last
test checks, at quick scale, what criterion 8 reports below 8 cores.
"""

import re

import pytest

from lfindex import acceptance


def _gate(fn, capsys):
    result = fn(quick=False)
    with capsys.disabled():
        print("\n" + result.line())
    if result.skipped:
        pytest.skip(result.detail)
    assert result.passed, result.line()


def test_criterion_1_sequential_conformance(capsys):
    _gate(acceptance.criterion_1_sequential_conformance, capsys)


def test_criterion_2_model_soundness(capsys):
    _gate(acceptance.criterion_2_model_soundness, capsys)


def test_criterion_3_fit_determinism(capsys):
    _gate(acceptance.criterion_3_fit_determinism, capsys)


def test_criterion_4_no_lost_pairs(capsys):
    _gate(acceptance.criterion_4_no_lost_pairs, capsys)


def test_criterion_5_linearizability(capsys):
    _gate(acceptance.criterion_5_linearizability, capsys)


def test_criterion_6_snapshot_ranges(capsys):
    _gate(acceptance.criterion_6_snapshot_ranges, capsys)


def test_criterion_7_workload_fidelity(capsys):
    _gate(acceptance.criterion_7_workload_fidelity, capsys)


def test_criterion_8_scaling(capsys):
    _gate(acceptance.criterion_8_scaling, capsys)


def test_criterion_9_frozen_reads(capsys):
    _gate(acceptance.criterion_9_frozen_reads, capsys)


def test_criterion_8_below_8_cores_skips_and_prints_no_throughput(monkeypatch):
    # the smoke runs still take the multi-thread path, but one short run
    # of each is noise, so the detail gives no Mops/s figure
    monkeypatch.setattr(acceptance.os, "cpu_count", lambda: 2)
    threads = []
    real_run = acceptance.run_workload

    def run_workload(index, keys, spec):
        threads.append(spec.threads)
        return real_run(index, keys, spec)

    monkeypatch.setattr(acceptance, "run_workload", run_workload)
    result = acceptance.criterion_8_scaling(quick=True)
    assert result.skipped and result.passed
    assert threads == [1, 2]
    assert "Mops" not in result.detail
    assert not re.search(r"\d\.\d", result.detail), result.detail
