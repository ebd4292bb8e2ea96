"""Self-test of the benchmark at tiny sizes.

Runs every workload of ``BENCHMARK.json`` untraced and traced, and checks
that each declared metric is emitted with its unit, that both runs give the
same output digest, and that a failing check makes the command exit non-zero.
Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _bench(*args, code=None):
    """Run the benchmark at tiny sizes; returns (exit code, stdout lines)."""
    head = ["-c", code] if code else [str(HERE / "run.py")]
    proc = subprocess.run([sys.executable, *head, *args, "--seconds", "0", "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def _digest(lines):
    return next(line.split()[1] for line in lines if line.startswith("digest "))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_declared_metrics_and_same_digest_traced(workload):
    digests = []
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        code, lines = _bench("--workload", workload, "--seed", str(SEED),
                             "--trace", str(trace))
        assert code == 0, lines
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in declared}
        digests.append(_digest(lines))
    assert digests[0] == digests[1]


def test_failing_check_exits_nonzero():
    # cull returning an id the scene does not have must fail the viewcell check
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "fp = run.import_package(); cull = fp['evalrt'].cull; "
            "fp['evalrt'].cull = lambda *a: cull(*a) | {-5}; "
            "sys.exit(run.main(sys.argv[2:]))")
    rc, lines = _bench(str(HERE), "--workload", "viewcell-64", "--seed", str(SEED + 1),
                       "--trace", "0", code=code)
    assert rc != 0
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]
