"""The performance records at the repository root, ``BENCH_<n>_<workload>.json``,
follow the protocol their claims rest on: the claimed metric is an
end-to-end metric of ``BENCHMARK.json``, and the change wins at least nine
of every ten of at least ten alternating pairs of runs, with the lower
median."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_follows_the_protocol(path):
    record = json.loads(path.read_text())
    bench = _benchmark()
    name = re.fullmatch(r"BENCH_\d+_(.+)\.json", path.name)
    assert name, f"{path.name} is not named BENCH_<n>_<workload>.json"
    assert record["workload"] == name.group(1)
    assert record["workload"] in {w["name"] for w in bench["workloads"]}
    claimed = record["claimed"]
    assert claimed in {m["name"] for m in bench["end_to_end"]}
    summary = record["summary"][claimed]
    parent, change = summary["parent"]["median"], summary["change"]["median"]
    assert change < parent
    # older records count their pairs in ``runs`` only
    pairs = summary.get("pairs", len(record["runs"]))
    assert pairs >= 10
    assert summary["change_better_pairs"] >= 0.9 * pairs
