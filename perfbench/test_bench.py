"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402
from probes import RunCapture  # noqa: E402
from tracer import Patcher  # noqa: E402
from tsclab import cli, optim  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "tiny-ucr": workloads.Workload(
        "tiny-ucr", "ucr", 8, 6, 16, 1, 2, 0.3,
        (workloads.Arch("fcn", 1, 2, 4), workloads.Arch("tlenet", 1, 1))),
    "tiny-mts": workloads.Workload(
        "tiny-mts", "long", 9, 6, 12, 3, 3, 0.6,
        (workloads.Arch("mlp", 2, 2), workloads.Arch("twiesn", 1)), jobs=2),
}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", {**workloads.WORKLOADS, **TINY})


def bench(name: str, trace: int) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = bench(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs}
    if not trace:
        assert result["metrics"]["success_rate"]["value"] == 1.0
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    counts = [k for k, s in ((s["name"], s) for s in BENCH["per_layer"])
              if s["unit"] == "count"]
    first, second = (bench("tiny-ucr", 1)["metrics"] for _ in range(2))
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert first["layers.conv_calls"]["value"] > 0


def test_inputs_follow_the_seed(tmp_path):
    wl = TINY["tiny-mts"]
    a = sweep.write_inputs(wl, 5, tmp_path / "a")
    b = sweep.write_inputs(wl, 5, tmp_path / "b")
    c = sweep.write_inputs(wl, 6, tmp_path / "c")
    assert a.train.read_bytes() == b.train.read_bytes()
    assert a.test.read_bytes() != c.test.read_bytes()


@pytest.mark.parametrize("name", sorted(TINY))
def test_reload_check_fails_on_one_flipped_byte(tmp_path, name):
    wl = TINY[name]
    inputs = sweep.write_inputs(wl, 1, tmp_path)
    patcher, capture = Patcher(), RunCapture()
    capture.install(patcher, cli, optim)
    try:
        res = sweep.run_sweep(wl, inputs, tmp_path / "out")
    finally:
        patcher.close()
    for r in res.records:
        manifest = tmp_path / "out" / f"{r.dataset}_{r.architecture}_seed{r.seed}.model"
        model = capture.models[(r.architecture, r.seed)]
        assert sweep.reload_problem(r.architecture, model, manifest)[0] is None
        blob = manifest.with_suffix(".model.bin")
        raw = bytearray(blob.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        blob.write_bytes(bytes(raw))
        assert sweep.reload_problem(r.architecture, model, manifest)[0] is not None


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(BENCH["command"] + ["--workload", "ucr-conv", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
