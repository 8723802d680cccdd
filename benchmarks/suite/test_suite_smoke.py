"""Smoke test of the benchmark suite (not collected by tier-1):

    PYTHONPATH=src python -m pytest benchmarks/suite -q

Runs every workload with ``--smoke`` (tiny decks, 3 operations, the same
code path and correctness checks), traced and untraced, and validates
that every metric named in ``BENCHMARK.json`` is printed with its unit.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

SUITE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((SUITE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_suite(tmp_path, *argv):
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--out", str(tmp_path), *argv],
        capture_output=True, text=True, timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(tmp_path, workload, trace):
    proc, lines = run_suite(
        tmp_path, "--workload", workload, "--seed", "7", "--smoke",
        "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 3 and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert isinstance(cell["value"], (int, float))
        # ...and by name, with its unit, in the table a person reads
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[2] == metric["unit"] for line in lines)
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
        assert result["metrics"]["failed_share"]["value"] == 0
        assert (tmp_path / f"trace_{workload}.json").exists()
    else:
        assert all(cell["value"] > 0 for cell in result["metrics"].values())
    doc = json.loads(next(tmp_path.glob(f"{workload}_seed7_*.json")).read_text())
    assert {"nproc", "affinity", "loadavg_start", "loadavg_end", "python",
            "numpy", "commit", "argv", "seed", "window_seconds"} <= set(doc["host"])


def test_corrupted_reference_fails_the_run(tmp_path, monkeypatch, capsys):
    """Bit-identity is the referee: a wrong reference digest must make
    every operation a failure and the exit code non-zero."""
    sys.path.insert(0, str(SUITE))
    import run

    monkeypatch.setattr(run, "reference_digest", lambda deck: "0" * 64)
    code = run.main(["--workload", "cell_ref", "--seed", "7", "--smoke",
                     "--out", str(tmp_path)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 3


def test_compare_agrees_with_itself_and_catches_a_changed_count(tmp_path):
    for trace in ("0", "1"):
        proc, _ = run_suite(tmp_path, "--workload", "cell_shield", "--seed",
                            "7", "--smoke", "--trace", trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    compare = [sys.executable, str(SUITE / "compare.py")]
    same = subprocess.run(compare + [str(tmp_path), str(tmp_path)],
                          capture_output=True, text=True)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "AGREE" in same.stdout

    other = tmp_path / "other"
    other.mkdir()
    for path in tmp_path.glob("cell_shield_*.json"):
        doc = json.loads(path.read_text())
        if doc["trace"]:
            doc["metrics"]["cell.dma.bytes_get"]["value"] += 16
        (other / path.name).write_text(json.dumps(doc))
    changed = subprocess.run(compare + [str(tmp_path), str(other)],
                             capture_output=True, text=True)
    assert changed.returncode != 0
    assert "cell.dma.bytes_get is not exact" in changed.stdout
