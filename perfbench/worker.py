"""One pass of the koszul-h3 workload, in a fresh interpreter.

    python3 perfbench/worker.py --seed N --pass K --seconds S --trace 0|1

A pass builds the H_3 bases cold (its set-up), then projects planted
cycles in rounds until --seconds of query time have passed; a traced pass
runs exactly one round so its counts repeat.  The host-speed probe (see
speed.py) runs before the set-up and after it and after every round, so
each of these regions is also given at the reference speed.  Prints one
JSON object: the process id, whether the program's caches were cold at the
start, the scaled set-up time, per-query latencies (as measured and
scaled) and self-check outcomes, output hashes, the scaled wall time of
each round, peak RSS and, with --trace 1, the span report.  ``run.py`` starts several passes; run this by hand only
to debug.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

import speed
import tracer as tracing

# homology bases, (n, degree cap) for H_3: the groups the k=2 refined
# invariant needs at n=4 and at n=3
KOSZUL_BASES = ((4, 2), (3, 2))
# the bases projected onto in one round, by index into KOSZUL_BASES
KOSZUL_ROUND = (0, 0, 0, 1)


def sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Pass:
    def __init__(self, trace: bool):
        self.tracer = tracing.Tracer()
        self.traced = trace
        if trace:
            tracing.install(self.tracer)
        self.region_s = 0.0
        self.queries: list[dict] = []
        self.rounds: list[float] = []
        self.hashes: dict[str, str] = {}

    def timed(self, fn, *args):
        """Run one timed region (set-up or query) with tracing switched on."""
        self.tracer.enabled = self.traced
        start = time.perf_counter()
        try:
            value = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.tracer.enabled = False
            self.region_s += elapsed
        return value, elapsed

    def query(self, label, slot, fn, *args, check):
        """Time one query, then check its output outside the timed region."""
        try:
            value, latency = self.timed(fn, *args)
            ok = check(value)
        except Exception as exc:  # a crashing query is a failed query
            print(f"query {label} raised {exc!r}", file=sys.stderr)
            latency, ok = None, False
        self.queries.append({"label": label, "slot": slot, "latency": latency,
                             "scaled": None, "ok": ok})
        return latency or 0.0


def koszul_setup():
    from stringlinks import homology
    out = []
    for n, cap in KOSZUL_BASES:
        basis = homology(3, n, cap)
        out.append((basis, basis.degree_table(), basis.fingerprint()))
    return out


def planted_cycle(rng, basis, reps, four_degrees):
    """Random combination of representatives plus the boundary of a 4-chain."""
    from stringlinks.koszul import ExteriorChain, boundary, exterior_basis

    planted = [rng.choice((1, 2, 3)) * rng.choice((1, -1)) for _ in reps]
    chain = ExteriorChain.zero(basis.basis, 3)
    for c, rep in zip(planted, reps):
        chain = chain + rep.scale(c)
    four = {}
    for d in four_degrees:
        tuples = exterior_basis(basis.basis, 4, d)
        for t in rng.sample(tuples, min(3, len(tuples))):
            four[t] = Fraction(rng.choice((1, 2, 3)) * rng.choice((1, -1)))
    return chain + boundary(ExteriorChain(basis.basis, 4, four)), planted


def koszul_h3(run: Pass, rng: random.Random, seconds: float):
    from stringlinks.koszul import exterior_basis

    before = speed.probe()
    built, elapsed = run.timed(koszul_setup)
    after = speed.probe()
    run.setup_s = speed.scaled(elapsed, [before, after])
    targets = []
    for (n, cap), (basis, table, fingerprint) in zip(KOSZUL_BASES, built):
        label = f"homology(3,{n},{cap})"
        run.hashes[f"{label}.fingerprint"] = sha(fingerprint)
        run.hashes[f"{label}.degree_table"] = sha(
            {str(d): row for d, row in table.items()})
        reps = [basis.representative(k) for k in range(basis.dimension)]
        degrees = [d for d in sorted(basis.blocks)
                   if exterior_basis(basis.basis, 4, d)]
        targets.append((label, basis, reps, degrees))

    query_time = 0.0
    while not run.rounds or (not run.traced and query_time < seconds):
        before, first, wall = after, len(run.queries), 0.0
        for slot, index in enumerate(KOSZUL_ROUND):
            label, basis, reps, degrees = targets[index]
            chain, planted = planted_cycle(rng, basis, reps, degrees)

            def check(cls, planted=planted):
                return list(cls.coords) == planted

            wall += run.query(f"project {label}", slot, basis.project, chain,
                              check=check)
        after = speed.probe()
        for q in run.queries[first:]:
            if q["latency"] is not None:
                q["scaled"] = speed.scaled(q["latency"], [before, after])
        run.rounds.append(speed.scaled(wall, [before, after]))
        query_time += wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass", dest="index", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import stringlinks  # noqa: F401
    cold = tracing.cached_entries() == 0
    run = Pass(bool(args.trace))
    koszul_h3(run, random.Random(f"{args.seed}/{args.index}"), args.seconds)
    print(json.dumps({
        "pid": os.getpid(), "cold": cold, "setup_s": run.setup_s,
        "queries": run.queries, "rounds": run.rounds, "hashes": run.hashes,
        "region_s": run.region_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": run.tracer.report() if run.traced else None}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
