"""Lock-free learned ordered index.

A linearizable ordered map over unsigned 63-bit keys (README, "Input
contract").  Lookups route through a shallow hierarchy of immutable-keyed
model nodes, each predicting positions with a linear approximation of its
key set's rank function; new keys accumulate in lock-free sorted bins that
freeze and retrain into fresh model nodes once they grow past a threshold.
Range queries snapshot the map at one logical timestamp via per-key version
chains.

Quick start::

    from lfindex import LearnedIndex

    index = LearnedIndex.build([(10, 100), (20, 200)])
    index.insert(15, 150)
    index.search(15)        # 150
    index.range(10, 10)     # [(10, 100), (15, 150), (20, 200)]
    index.delete(20)        # True
"""

from .core import set_cas_hook
from .harness import (
    DatasetSpec,
    WorkloadSpec,
    WORKLOAD_PRESETS,
    generate_dataset,
    make_workload,
    prepare_index,
    run_workload,
    write_keyfile,
)
from .index import IndexConfig, LearnedIndex
from .models import Model, Segment, fit_linear, segment_root
from .verify import (
    AuditReport,
    HistoryEvent,
    HistoryRecorder,
    SequentialOracle,
    audit_structure,
    check_linearizable,
    read_history,
    write_history,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "DatasetSpec",
    "HistoryEvent",
    "HistoryRecorder",
    "IndexConfig",
    "LearnedIndex",
    "Model",
    "Segment",
    "SequentialOracle",
    "WORKLOAD_PRESETS",
    "WorkloadSpec",
    "audit_structure",
    "check_linearizable",
    "fit_linear",
    "generate_dataset",
    "make_workload",
    "prepare_index",
    "read_history",
    "run_workload",
    "segment_root",
    "set_cas_hook",
    "write_history",
    "write_keyfile",
    "__version__",
]
