"""Checks of the benchmark itself.  Slow (several minutes):

    python3 -m pytest perfbench/test_perfbench.py

Run from the repository root.  Not part of the library's test suite.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(HERE))))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_inputs_match_the_program():
    from stringlinks import filtration_degree
    from stringlinks.cli import parse_braid
    from stringlinks.words import longitudes

    rng = random.Random(5)
    cases = [(inputs.level1_braid(rng, 4, 9), 4, 1)]
    cases += [(inputs.level2_braid(rng), 3, 2) for _ in range(4)]
    cases += [(inputs.level3_braid(rng), 3, 3) for _ in range(4)]
    for (text, letters), n, level in cases:
        braid = parse_braid(text, n)
        assert list(braid.letters) == letters
        assert filtration_degree(braid, 5) == level
        assert inputs.longitudes(n, letters) == [
            list(y.letters) for y in longitudes(braid).words]


def test_passes_never_share_a_process(tmp_path):
    """Each pass and each CLI command starts cold, in its own interpreter."""
    pids = set()
    for index in range(2):
        out = subprocess.run([sys.executable, str(HERE / "worker.py"),
                              "--pass", str(index)], cwd=ROOT,
                             env=ENV, capture_output=True, text=True, check=True)
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report["cold"]
        pids.add(report["pid"])
    for _ in range(2):
        path = tmp_path / "trace.json"
        subprocess.run([sys.executable, str(HERE / "clichild.py"), str(path),
                        repr(time.time()), "0", "level", "--n", "3",
                        "--braid", "[A(1,2) , A(1,3)]"],
                       cwd=ROOT, env=ENV, capture_output=True, check=True)
        report = json.loads(path.read_text())
        assert report["cold"]
        pids.add(report["pid"])
    assert len(pids) == 4 and os.getpid() not in pids


def test_clichild_behaves_like_the_entry_point(tmp_path):
    """Same stdout and exit code as ``python3 -m stringlinks.cli``, plus a
    report with the probes around the command."""
    for argv in (["level", "--n", "3", "--braid", "[A(1,2) , [A(1,3) , A(2,3)]]"],
                 ["level", "--n", "3", "--braid", "A(1,4)"]):
        plain = subprocess.run([sys.executable, "-m", "stringlinks.cli", *argv],
                               cwd=ROOT, env=ENV, capture_output=True)
        path = tmp_path / "report.json"
        child = subprocess.run([sys.executable, str(HERE / "clichild.py"),
                                str(path), repr(time.time()), "0", *argv],
                               cwd=ROOT, env=ENV, capture_output=True)
        assert (child.returncode, child.stdout) == (plain.returncode, plain.stdout)
        assert len(json.loads(path.read_text())["probes"]) >= 2


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "koszul-h3", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("workload", sorted(tracing.LAYER_MAP))
def test_traced_run(workload):
    runs = [last_json(bench("--workload", workload, "--seed", "3",
                            "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    for run in runs:
        assert run["correct"] and run["failed"] == 0
        metrics = {k: m["value"] for k, m in run["metrics"].items()}
        expected_names = {m["name"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        assert set(metrics) == expected_names
        for span in tracing.LAYER_MAP[workload]["fires"]:
            assert metrics[f"{span}.calls"] > 0, span
        for span in tracing.LAYER_MAP[workload]["silent"]:
            assert metrics[f"{span}.calls"] == 0, span
        assert metrics["trace.coverage"] >= 0.95
        # the long-word evaluate route is reached only from a test oracle
        assert metrics["expansions.evaluate.long_calls"] == 0
        if workload == "cli-session":
            assert metrics["milnor.special_artin.repeat_ratio"] > 0
    for key in ("linalg.rref.calls", "linalg.rref.cells", "tensor.mul.calls",
                "koszul.project.calls"):
        assert runs[0]["metrics"][key] == runs[1]["metrics"][key], key
