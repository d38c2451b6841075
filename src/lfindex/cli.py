"""Command-line front end.

Three subcommands:

* ``bench``  -- run one workload against a freshly built index and emit a
  CSV row of counts and throughput.
* ``verify`` -- run the acceptance suite, one line per criterion; exit 0
  iff nothing failed (skipped criteria report why).
* ``replay`` -- read a history log and report the checker verdict; exit 1
  with the minimal failing prefix when the log is not linearizable.
"""

from __future__ import annotations

import argparse
import sys

from .acceptance import run_criteria
from .harness import (
    DatasetSpec,
    WorkloadSpec,
    WORKLOAD_PRESETS,
    generate_dataset,
    make_workload,
    prepare_index,
    run_workload,
    write_reports,
)
from .index import IndexConfig
from .verify import check_linearizable, format_event, read_history

_EXAMPLES = """examples:
  lfindex bench --workload read-heavy --threads 8 --size 1000000 --seed 1 --out r.csv
  lfindex bench --workload custom --mix 0.6,0.3,0.1 --range-frac 0.05 --ops 200000
  lfindex verify --quick
  lfindex replay history.log
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfindex",
        description="learned lock-free ordered index: benchmarks, acceptance checks, history replay",
        epilog=_EXAMPLES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run one workload and emit a CSV row")
    b.add_argument("--workload", default="read-heavy",
                   choices=sorted(WORKLOAD_PRESETS) + ["custom"],
                   help="preset mix, or 'custom' with --mix")
    b.add_argument("--mix", default=None, metavar="S,I,D",
                   help="search,insert,delete fractions (must sum to 1)")
    b.add_argument("--threads", type=int, default=1)
    b.add_argument("--prefill", type=int, default=None,
                   help="keys loaded before the run (default: half the dataset)")
    b.add_argument("--ops", type=int, default=100_000,
                   help="total operations across threads")
    b.add_argument("--duration", type=float, default=None,
                   help="run for this many seconds instead of a fixed op count")
    b.add_argument("--hotspot", type=float, default=1.0,
                   help="fraction of the key space queries touch, in (0, 1]")
    b.add_argument("--range-frac", type=float, default=0.0,
                   help="fraction of ops that are range queries, in [0, 1)")
    b.add_argument("--range-width", type=int, default=100,
                   help="key-space width of each range query")
    b.add_argument("--dataset", default="uniform", metavar="KIND",
                   help="uniform | normal | lognormal | file:PATH")
    b.add_argument("--size", type=int, default=1_000_000,
                   help="number of keys to generate")
    b.add_argument("--seed", type=int, default=0)
    defaults = IndexConfig()
    b.add_argument("--olb-threshold", type=int, default=defaults.olb_threshold,
                   help="one-level bin size that triggers a rebuild")
    b.add_argument("--tlb-threshold", type=int, default=defaults.tlb_threshold,
                   help="two-level bin size that triggers retraining")
    b.add_argument("--fanout", type=int, default=defaults.tlb_fanout,
                   help="children per two-level bin")
    b.add_argument("--eps", type=float, default=defaults.eps_target,
                   help="segment error bound of every model node")
    b.add_argument("--out", default=None, metavar="PATH",
                   help="write the CSV here instead of stdout")

    v = sub.add_parser("verify", help="run the acceptance criteria")
    v.add_argument("--quick", action="store_true",
                   help="smoke scales (same checks, smaller sizes)")
    v.add_argument("--criteria", default=None, metavar="N,N,...",
                   help="run only these criterion numbers (default: all)")

    r = sub.add_parser("replay", help="check a recorded history log")
    r.add_argument("log", help="history file, one event per line")
    return parser


def _parse_mix(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--mix needs exactly three comma-separated fractions")
    return tuple(float(p) for p in parts)


def _dataset_spec(token: str, size: int, seed: int) -> DatasetSpec:
    if token.startswith("file:"):
        return DatasetSpec(source="file", path=token[5:], size=size, seed=seed)
    if token in ("uniform", "normal", "lognormal"):
        return DatasetSpec(source=token, size=size, seed=seed)
    raise ValueError(f"unknown dataset {token!r} (expected uniform|normal|lognormal|file:PATH)")


def _cmd_bench(ns, parser) -> int:
    try:
        keys = generate_dataset(_dataset_spec(ns.dataset, ns.size, ns.seed))
        if len(keys) == 0:
            raise ValueError("dataset is empty")
        config = IndexConfig(eps_target=ns.eps,
                             olb_threshold=ns.olb_threshold,
                             tlb_fanout=ns.fanout,
                             tlb_threshold=ns.tlb_threshold)
        overrides = dict(threads=ns.threads, seed=ns.seed, hotspot=ns.hotspot,
                         range_frac=ns.range_frac, range_width=ns.range_width,
                         total_ops=None if ns.duration is not None else ns.ops,
                         duration=ns.duration)
        if ns.workload == "custom":
            if ns.mix is None:
                raise ValueError("--workload custom requires --mix S,I,D")
            spec = WorkloadSpec(mix=_parse_mix(ns.mix), **overrides)
        elif ns.mix is not None:
            spec = make_workload(ns.workload, mix=_parse_mix(ns.mix), **overrides)
        else:
            spec = make_workload(ns.workload, **overrides)
        prefill = len(keys) // 2 if ns.prefill is None else ns.prefill
        index, _ = prepare_index(keys, prefill, config, ns.seed)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))  # exits 2 with usage

    report = run_workload(index, keys, spec, label=ns.workload)
    if ns.out:
        with open(ns.out, "w") as f:
            write_reports([report], f)
        print(f"wrote {ns.out}: {report.total_ops} ops, {report.mops:.3f} Mops/s")
    else:
        write_reports([report], sys.stdout)
    return 0


def _cmd_verify(ns, parser) -> int:
    numbers = None
    if ns.criteria is not None:
        try:
            numbers = [int(p) for p in ns.criteria.split(",")]
            if any(not 1 <= n <= 9 for n in numbers):
                raise ValueError
        except ValueError:
            parser.error("--criteria needs comma-separated numbers in 1..9")
    results = run_criteria(numbers, quick=ns.quick)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed and not r.skipped]
    return 1 if failed else 0


def _cmd_replay(ns, parser) -> int:
    try:
        events = read_history(ns.log)
        verdict = check_linearizable(events)
    except (ValueError, OSError) as exc:
        print(f"replay error: {exc}", file=sys.stderr)
        return 2
    if verdict.ok:
        print(f"linearizable: {len(events)} events admit a sequential witness")
        return 0
    print(f"NOT linearizable: no witness for the first {len(verdict.failing_prefix)} events:")
    for e in verdict.failing_prefix:
        print("  " + format_event(e))
    return 1


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "bench":
        return _cmd_bench(ns, parser)
    if ns.command == "verify":
        return _cmd_verify(ns, parser)
    return _cmd_replay(ns, parser)


if __name__ == "__main__":
    sys.exit(main())
