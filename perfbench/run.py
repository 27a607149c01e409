"""The stringlinks benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see perfbench/NOTES.md for why each exists):

  cli-session  a fixed list of ``stringlinks`` commands, each in its own
               interpreter, on braids and a longitude file from the seed
  koszul-h3    H_3 bases of two free nilpotent quotients, then
               projections of planted cycles

Every pass and every command runs in a fresh interpreter.  Query rounds
repeat until --seconds of query time, as measured, have passed (at least
one round; cli-session at least three).  Every timing is also scaled to a
reference host speed by probes timed around it (see speed.py); the
metrics use the scaled timings.
With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 one round runs with spans installed and
the metrics are the per-layer ones.  A query fails on a wrong exit code, a
failed self-check or, where perfbench/expected.json records one, an output
hash that differs.  A process that fails or outlives the deadline gives no
result: the benchmark exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("cli-session", "koszul-h3")
# koszul-h3: fresh-interpreter passes per untraced run, each a cold set-up
# followed by its share of the query time, so the set-ups and the query
# rounds sample the same stretches of the run
KOSZUL_PASSES = 5
# cli-session: least number of rounds of the command list per untraced run,
# so each command's median has several samples
CLI_ROUNDS = 3
# a child still running at this point is killed and the run gives no result
DEADLINE_S = 170
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0


class TimedOut(Exception):
    pass


def median(values):
    return statistics.median(values) if values else 0.0


def round_wall(queries, key="scaled"):
    """Wall time of a typical round at the reference speed: for each query
    slot of a round, the median of its scaled latencies over the run,
    summed.  With ``key="latency"``, the same at the host's own speed."""
    slots = {}
    for q in queries:
        if q[key] is not None:
            slots.setdefault(q["slot"], []).append(q[key])
    return sum(median(v) for v in slots.values())


def tail(latencies):
    """(percentile, value): the highest percentile with >= 10 samples beyond."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(latencies) * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
            return p, cuts[round(p * 10) - 1]
    return None


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), str(HERE), os.environ.get("PYTHONPATH"))
            if p)
        expected = json.loads(EXPECTED.read_text())
        self.expected = expected[args.workload]

    def child(self, argv):
        """Run a process to completion: (code, stdout, wall s).

        Raises TimedOut if it is still running at the deadline.  A timer
        kills it there, because ``Popen.wait(timeout=...)`` polls every
        50 ms and would round the wall time to that step."""
        out_path = self.work / "stdout"
        with open(out_path, "wb") as out, open(self.work / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=err)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), kill)
            timer.start()
            code = proc.wait()
            wall = time.perf_counter() - start
            timer.cancel()
            timer.join()
            if killed.is_set():
                raise TimedOut(" ".join(argv[1:]))
        if code:
            sys.stderr.write((self.work / "stderr").read_text()[-2000:])
        return code, out_path.read_bytes(), wall

    def expect(self, label, digest, from_seed=True) -> bool:
        """Compare an output hash with the recorded one, where there is one.
        Seed-0 hashes apply only to inputs made from the seed alone."""
        want = self.expected["any"].get(label)
        if want is None and from_seed and self.args.seed == DEFAULT_SEED:
            want = self.expected["seed0"].get(label)
        if want is None or want == digest:
            return True
        print(f"output of {label} differs from perfbench/expected.json: "
              f"recorded {want}, got {digest}", file=sys.stderr)
        return False

    # -- koszul-h3 -----------------------------------------------------------

    def koszul(self):
        passes = 1 if self.args.trace else KOSZUL_PASSES
        out = {"setups": [], "queries": [], "rounds": [], "rss_mb": 0.0,
               "region_s": 0.0}
        reports = []
        for index in range(passes):
            argv = [sys.executable, str(HERE / "worker.py"),
                    "--seed", str(self.args.seed), "--pass", str(index),
                    "--seconds", str(self.args.seconds / passes),
                    "--trace", str(self.args.trace)]
            code, stdout, _ = self.child(argv)
            if code != 0:
                return None
            result = json.loads(stdout.decode().strip().splitlines()[-1])
            same = all([self.expect(label, digest)
                        for label, digest in result["hashes"].items()])
            for q in result["queries"]:
                q["ok"] = q["ok"] and same and result["cold"]
            out["setups"].append(result["setup_s"])
            out["queries"] += result["queries"]
            out["rounds"] += result["rounds"]
            out["rss_mb"] = max(out["rss_mb"], result["rss_mb"])
            out["region_s"] += result["region_s"]
            reports.append(result["trace"])
        out["trace"] = tracing.merge(reports) if self.args.trace else None
        return out

    # -- cli-session -------------------------------------------------------

    def cli_inputs(self, index):
        """The command list of round ``index``, quick and slow ones
        alternating; writes the longitude file.  Round 0 is made from the
        seed, later rounds from the seed and the round, so that each
        command's median is taken over several inputs."""
        rng = random.Random(self.args.seed if index == 0
                            else f"{self.args.seed}/{index}")
        _braid, doc = inputs.longitude_tuple(rng)
        path = self.work / "longitudes.json"
        path.write_text(json.dumps(doc))

        def lowest(d):
            return min((len(e["lyndonWord"]) for e in d["entries"]), default=0)

        return [
            ("milnor-degree", ["milnor", "--n", "3", "--k", "3", "--braid",
                               inputs.level3_braid(rng)[0]],
             lambda d: lowest(d) == 3),
            ("milnor-total-n4", ["milnor", "--n", "4", "--mode", "total",
                                 "--trunc", "3", "--braid",
                                 inputs.level1_braid(rng, 4, 8)[0]],
             lambda d: lowest(d) == 1),
            ("milnor-truncated", ["milnor", "--n", "3", "--mode", "truncated",
                                  "--k", "2", "--braid", inputs.level2_braid(rng)[0]],
             lambda d: lowest(d) == 2),
            ("milnor-longitude-file", ["milnor", "--n", "3", "--mode", "total",
                                       "--trunc", "4", "--longitude-file",
                                       str(path)],
             lambda d: lowest(d) == 3),
            ("trees", ["trees", "--n", "3", "--k", "2", "--braid",
                       inputs.level2_braid(rng)[0]],
             lambda d: bool(d["terms"])),
            ("morita", ["morita", "--n", "3", "--k", "2", "--braid",
                        inputs.level3_braid(rng)[0]],
             lambda d: d["diagramCommutes"] is True),
            ("level", ["level", "--n", "3", "--braid", inputs.level3_braid(rng)[0]],
             lambda d: d["level"] == 3),
            ("homology", ["homology", "--n", "4", "--k", "3"],
             lambda d: d["dimension"] > 0),
        ]

    def cli_session(self):
        """One interpreter per command, started through clichild.py, which
        times the speed probes around the command.  Set-up is input
        generation, which runs no program code; it is timed before every
        round, so its samples are spread over the run like the commands."""
        setups, queries, rounds, reports = [], [], [], []
        least = 1 if self.args.trace else CLI_ROUNDS
        query_time = 0.0
        while len(rounds) < least or (not self.args.trace
                                      and query_time < self.args.seconds):
            before = speed.probe()
            start = time.perf_counter()
            commands = self.cli_inputs(len(rounds))
            elapsed = time.perf_counter() - start
            setups.append(speed.scaled(elapsed, [before, speed.probe()]))
            wall_round = 0.0
            for slot, (label, argv, check) in enumerate(commands):
                report = self.work / "report.json"
                code, out, wall = self.child(
                    [sys.executable, str(HERE / "clichild.py"), str(report),
                     repr(time.time()), str(self.args.trace)]
                    + argv + ["--format", "json"])
                ok = code == 0
                try:
                    ok = ok and check(json.loads(out))
                except (ValueError, KeyError, TypeError):
                    ok = False
                ok = self.expect(label, hashlib.sha256(out).hexdigest(),
                                 from_seed=not rounds) and ok
                latency, scaled = wall, None
                if report.exists():
                    rep = json.loads(report.read_text())
                    report.unlink()
                    ok = ok and rep["cold"]
                    latency = wall - sum(rep["probes"])
                    scaled = speed.scaled(latency, rep["probes"])
                    if self.args.trace:
                        reports.append(rep["trace"])
                else:
                    ok = False
                queries.append({"label": label, "slot": slot, "latency": latency,
                                "scaled": scaled, "ok": ok})
                query_time += latency
                wall_round += scaled or 0.0
            rounds.append(wall_round)
        trace = tracing.merge(reports) if self.args.trace else None
        return {"setups": setups, "queries": queries, "rounds": rounds,
                "rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                "trace": trace,
                "region_s": sum(q["latency"] for q in queries)}

    # -- report --------------------------------------------------------------

    def run(self):
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            if self.args.workload == "cli-session":
                result = self.cli_session()
            else:
                result = self.koszul()
        except TimedOut as exc:
            print(f"still running after {DEADLINE_S} s: {exc}", file=sys.stderr)
            result = None
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        if result is None:
            return None
        queries = result["queries"]
        latencies = [q["scaled"] for q in queries if q["scaled"] is not None]
        failed = sum(not q["ok"] for q in queries)
        summary = {"correct": failed == 0, "attempted": len(queries),
                   "failed": failed}
        name = self.args.workload
        print(f"{name} seed {self.args.seed}: {len(result['rounds'])} round(s), "
              f"{len(queries)} queries, {failed} failed "
              f"(failed_ratio {failed / len(queries):.4f})")
        if name == "cli-session":
            print(f"  {'command':<24} {'latency':>8} {'scaled':>8}")
            for q in queries:
                print(f"  {q['label']:<24} {q['latency']:>8.3f} "
                      f"{q['scaled'] or 0.0:>8.3f}{'' if q['ok'] else '  FAILED'}")
        if self.args.trace:
            wall = median(result["rounds"])
            metrics = tracing.per_layer_metrics(result["trace"], result["region_s"],
                                                wall)
            print(f"  traced wall_s {wall:.4f} s, span coverage "
                  f"{metrics['trace.coverage']['value']:.4f} of "
                  f"{result['region_s']:.4f} s")
        else:
            metrics = {
                "setup_s": {"value": median(result["setups"]), "unit": "s"},
                "wall_s": {"value": round_wall(queries), "unit": "s"},
                "peak_rss_mb": {"value": result["rss_mb"], "unit": "MB"},
            }
            for key, m in metrics.items():
                print(f"  {key:<14} {m['value']:.4f} {m['unit']}")
            print(f"  unscaled wall  {round_wall(queries, 'latency'):.4f} s")
            print(f"  query_p50_s    {median(latencies):.4f} s")
            cut = tail(latencies)
            print(f"  query_tail_s   p{cut[0]:g} = {cut[1]:.4f} s over "
                  f"{len(latencies)} queries" if cut else
                  f"  query_tail_s   omitted: {len(latencies)} queries")
        summary["metrics"] = metrics
        return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stringlinks" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'stringlinks'} is missing",
              file=sys.stderr)
        return 2
    summary = Runner(args).run()
    if summary is None:
        print("a benchmark process failed; no result", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
