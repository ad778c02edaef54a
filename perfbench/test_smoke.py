"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once through the command line and checks the result
line, then corrupts one output per workload and checks that the harness
counts the failures instead of passing them.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

run.cap_blas_threads()
run.import_program()

import workloads  # noqa: E402  (needs the program on sys.path)
from nqisim import nogo, protocols  # noqa: E402
from nqisim.tolerances import RANK_TOL  # noqa: E402


def result_line(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--tiny", "--seconds", "0", *args],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_is_correct_and_reports_every_layer(name):
    result = result_line("--workload", name, "--trace", "1")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    assert got == metric_units("per_layer")


def test_untraced_run_reports_every_end_to_end_metric():
    result = result_line("--workload", "chain-sweep", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    assert got == metric_units("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def _shifted_success(fn):
    def corrupted(*args, **kwargs):
        out = fn(*args, **kwargs)
        return dataclasses.replace(out, success_prob=out.success_prob + 1e-6)

    return corrupted


def _no_witness(pair, atom_init, tol=RANK_TOL):
    return nogo.Absence(residual=1.0)


def _raises(*args, **kwargs):
    raise RuntimeError("deliberately broken")


CORRUPTIONS = [
    ("chain-sweep", protocols, "run_mz_chain", _shifted_success(protocols.run_mz_chain)),
    ("chain-long", protocols, "run_mz_chain", _shifted_success(protocols.run_mz_chain)),
    ("witness-scan", nogo, "find_witness", _no_witness),
    ("cavity", protocols, "run_fabry_perot", _raises),
]


@pytest.mark.parametrize("name, module, attr, corrupted", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS])
def test_corrupted_output_counts_as_failed(monkeypatch, name, module, attr, corrupted):
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed=1, pass_index=1, tiny=True)

    clean = workloads.Ledger()
    workload.run_pass(inputs, clean)
    assert clean.attempted > 0 and clean.failed == 0

    monkeypatch.setattr(module, attr, corrupted)
    broken = workloads.Ledger()
    workload.run_pass(inputs, broken)
    assert broken.attempted == clean.attempted
    assert 0 < broken.failed <= broken.attempted
