"""The metric contract, read from ``BENCHMARK.json`` at the root of the checkout.

Names, units, directions and bounds live in that one file; the code that emits
a metric and the code that compares two runs both look them up here, so a name
cannot drift between them.
"""

import json
import os
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: where a run leaves its artifacts (profiles, traces); ignored by git
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


@dataclass(frozen=True)
class MetricSpec:
    name: str
    unit: str
    better: str
    bound: float = None   # end-to-end metrics only


@dataclass(frozen=True)
class Spec:
    run_seconds: int
    workloads: tuple      # names, in file order
    end_to_end: dict      # name -> MetricSpec
    per_layer: dict       # name -> MetricSpec


def load(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return Spec(
        run_seconds=document["run_seconds"],
        workloads=tuple(row["name"] for row in document["workloads"]),
        end_to_end={row["name"]: MetricSpec(**row)
                    for row in document["end_to_end"]},
        per_layer={row["name"]: MetricSpec(**row)
                   for row in document["per_layer"]})
