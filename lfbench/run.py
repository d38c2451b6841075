"""lfindex benchmark: one closed-loop client, oracle-checked, per-layer traced.

Usage, from the repository root:

    python3 lfbench/run.py --workload point_skewed --seed 1 --seconds 10 --trace 0

It builds the index from ``src/`` of the checkout it sits in, drives one
client thread through the workload's fixed op stream for ``--seconds`` of op
time, checks every result against ``SequentialOracle`` and audits the final
structure.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
repeats the untraced passes, then traced ones, and reports the per-layer
metrics and the tracing overhead.  Human-readable lines start with ``#``; the
last line is the JSON result.  One client thread only: under the GIL, more
threads would mostly measure the scheduler.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program() -> None:
    """Put the checkout's ``src`` first on the import path, or exit 2."""
    if not (SRC / "lfindex" / "__init__.py").is_file():
        print(f"lfbench: no lfindex sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))


def git_revision() -> str:
    """HEAD's commit, read from the files; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts() -> dict:
    import numpy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_revision": git_revision()}


def _latency_metrics(m, codes) -> dict:
    """Throughput, and median and p99 per op type, from the paired samples.

    Throughput is ops per second of the client's busy time.  An op type
    without samples is absent."""
    from drive import percentile
    from workloads import OP_NAMES
    paired = m.paired_ns()
    out = {"throughput_ops_s": (
        paired.size / paired.sum() * 1e9, "1/s",
        f"{paired.size} op samples; raw wall clock {m.timed_ops / m.run_s:.1f} ops/s")}
    for code, name in enumerate(OP_NAMES):
        s = np.sort(paired[:, codes == code], axis=None)
        if len(s):
            for tag, q in (("p50", 0.50), ("p99", 0.99)):
                out[f"{name}_{tag}_us"] = (percentile(s, q) / 1e3, "us",
                                           f"{len(s)} samples")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, index_cls=None) -> tuple[dict, dict, list]:
    """Run one workload; returns (result object, metrics, report lines).

    Each metric is (value, unit) or (value, unit, note).

    ``index_cls`` substitutes an index class, which the self-test uses to
    plant wrong results."""
    # imported here: these import lfindex, which load_program() makes importable
    import drive
    import layers
    from lfindex import LearnedIndex
    from workloads import OP_NAMES, WORKLOADS, prepare

    index_cls = index_cls or LearnedIndex
    wl = WORKLOADS[workload]
    inputs = wl.make(seed, scale)
    prep = prepare(inputs)
    lines = [
        f"host {json.dumps(host_facts())}",
        f"workload {workload} seed {seed}: {len(inputs.universe)} keys in the "
        f"dataset, {len(prep.pairs)} bulk-loaded, {len(prep.ops)} ops per pass ("
        + ", ".join(f"{n} {c}" for n, c in zip(OP_NAMES, prep.op_counts))
        + f"), {prep.live_keys} live keys after a pass",
        f"why: {wl.why}",
    ]
    metrics: dict = {}
    if trace:
        plain = drive.measure(prep, seconds / 2, index_cls, warm_up=True)
        tracer = layers.Tracer()
        traced = drive.measure(prep, seconds / 2, index_cls,
                               around_pass=tracer.installed)
        passes = len(traced.pass_ns)
        metrics.update(layers.traced_metrics(tracer, len(prep.ops), passes, prep.examined,
                                             traced.corrected_s / traced.run_s))
        metrics.update(layers.snapshot(traced.index))
        probe_keys = [args[0] for _, args in prep.ops[:layers.PROBE_KEYS]]
        metrics.update(layers.probes(traced.index, probe_keys))
        overhead = ((traced.corrected_s / traced.timed_ops)
                    / (plain.corrected_s / plain.timed_ops) - 1)
        metrics["trace.overhead_frac"] = (overhead, "frac", "traced vs untraced time per op")
        lines.append(f"untraced {plain.timed_ops / plain.corrected_s:.1f} ops/s, traced "
                     f"{traced.timed_ops / traced.corrected_s:.1f} ops/s over {passes} "
                     f"traced passes")
        runs = (plain, traced)
    else:
        m = drive.measure(prep, seconds, index_cls, min_passes=2, warm_up=True)
        metrics.update(_latency_metrics(m, prep.codes))
        metrics["setup_s"] = (median(m.setup_s), "s", f"median of {len(m.setup_s)} builds")
        metrics["mem_bytes_per_key"] = (drive.held_bytes(m.index) / prep.live_keys, "B",
                                        f"bytes reachable from the index / {prep.live_keys} live keys")
        runs = (m,)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    raised = sum(r.raised for r in runs)
    problems = drive.check_final(runs[-1].index, prep)
    lines.append(f"ops_failed_frac {failed / attempted:.6g} ({failed} of {attempted} "
                 f"ops disagreed with the oracle, {raised} of them raised)")
    lines.append("audit " + ("clean" if not problems else "; ".join(problems)))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    return result, metrics, lines


def main(argv=None) -> int:
    load_program()
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time to measure; whole passes run until it is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, metrics, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print("#", line)
    for name, (value, unit, *note) in metrics.items():
        print(f"# {name} {value:.6g} {unit}" + "".join(f" ({n})" for n in note))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
