"""BENCHMARK.json names exactly the metrics and workloads that run.py reports."""

import json
import re
from pathlib import Path

import layers
import run

DOC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_keys_and_command():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DOC["command"] == ["python3", "perfbench/run.py"]
    assert DOC["paths"] == ["perfbench"]
    assert isinstance(DOC["run_seconds"], int) and 1 <= DOC["run_seconds"] <= 60


def test_workloads_match_the_runner():
    assert [w["name"] for w in DOC["workloads"]] == list(run.MODULES)
    for w in DOC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metrics_match_the_runner():
    assert {m["name"]: m["unit"] for m in DOC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in DOC["per_layer"]} == layers.UNITS
    for m in DOC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in DOC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DOC["end_to_end"])
    for m in DOC["end_to_end"] + DOC["per_layer"]:
        assert NAME.match(m["name"]) and m["better"] in ("lower", "higher")
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"])
