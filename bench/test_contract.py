"""BENCHMARK.json lists exactly the per-layer metrics a traced run reports.

Run from the repository root:  python3 -m pytest -q bench/test_contract.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import impulsegames.cli  # noqa: E402,F401  (the tracer wraps every module)
import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def test_per_layer_table_matches_benchmark_json():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as f:
        contract = json.load(f)
    listed = [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]]
    assert listed == [(n, u, b) for n, u, b, _ in layers.metrics(Tracer(), 1, 0.0)]
