"""Fast self-test of the benchmark at toy scale.

    python3 lfbench/selftest.py

Checks that BENCHMARK.json declares the workloads ``workloads.py`` defines,
with the same reasons, and, for every workload, that an untraced run emits
exactly the end-to-end metrics and a traced run exactly the per-layer ones,
with their declared units, that a clean run is correct, and that the count
metrics repeat exactly for a seed.  Then it plants
a wrong search result and checks that the run counts every wrong answer as
failed and is not reported correct.
"""

from __future__ import annotations

import json
import sys

import run

TOY_SCALE = 0.01
TOY_SECONDS = 0.05
SEED = 7


def declared() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_declared(spec: dict) -> None:
    from workloads import WORKLOADS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()], "BENCHMARK.json workloads are stale"
    print(f"ok   BENCHMARK.json names the {len(WORKLOADS)} workloads with their reasons")


# metrics that count structure or events rather than time; they must
# repeat exactly for a seed
EXACT = ("mem_bytes_per_key", "index.depth_max", "index.model_nodes",
         "index.transitions.new_bin", "index.transitions.olb_to_tlb",
         "index.transitions.tlb_to_node", "core.cas_per_op", "core.chain_len_mean",
         "core.chain_len_max", "core.tombstone_keys_frac", "bins.olb_count",
         "bins.tlb_count", "rangescan.keys_examined_per_pair", "models.root_segments")


def check_runs(spec: dict) -> None:
    """Each workload twice per mode: the declared metrics, correct, repeatable."""
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for w in spec["workloads"]:
            result, again = (run.run(w["name"], SEED, TOY_SECONDS, trace, TOY_SCALE)[0]
                             for _ in range(2))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == want, f"{w['name']} trace={trace}: {sorted(set(got) ^ set(want))}"
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, result
            json.dumps(result)
            for name in EXACT:
                if name in want:
                    assert result["metrics"][name] == again["metrics"][name], (w["name"], name)
        print(f"ok   {kind}: {len(want)} metrics on {len(spec['workloads'])} workloads, "
              f"counts repeat exactly for a seed")


def check_planted(workload: str) -> None:
    from lfindex import LearnedIndex
    from workloads import SEARCH, WORKLOADS, prepare

    prep = prepare(WORKLOADS[workload].make(SEED, TOY_SCALE))
    target = next(args[0] for c, args in prep.ops if c == SEARCH)
    wrong_per_pass = sum(1 for c, args in prep.ops if c == SEARCH and args[0] == target)

    class PlantedWrongSearch(LearnedIndex):
        """Answers every search for ``target`` with a payload never written."""

        def search(self, key):
            found = super().search(key)
            return -1 if key == target else found

    result, _, lines = run.run(workload, SEED, TOY_SECONDS, False, TOY_SCALE,
                               index_cls=PlantedWrongSearch)
    passes = result["attempted"] // len(prep.ops)  # the warm-up pass is checked too
    assert result["failed"] == wrong_per_pass * passes, (result["failed"], lines)
    assert not result["correct"]
    assert any(line.startswith(f"ops_failed_frac {result['failed'] / result['attempted']:.6g}")
               for line in lines), lines
    print(f"ok   planted wrong result: {result['failed']} of {result['attempted']} "
          f"ops counted as failed")


def main() -> int:
    run.load_program()
    spec = declared()
    check_declared(spec)
    check_runs(spec)
    check_planted(spec["workloads"][0]["name"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
