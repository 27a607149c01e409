"""Run one ``stringlinks`` command as ``python3 -m stringlinks.cli`` would.

    python3 perfbench/clichild.py REPORT.json LAUNCHED TRACE COMMAND [ARGS...]

Same stdout and exit code as the ``stringlinks`` entry point.  Writes to
REPORT.json the host-speed probes (see speed.py) timed just before and
just after the command and, in an untraced run, every
``speed.SAMPLE_EVERY_S`` while it runs, from a timer signal; the process
id; whether the program's caches were cold; and, with TRACE 1, the span
report.  LAUNCHED is the ``time.time()``
at which the caller started this process: ``cli.startup`` runs from then
until the CLI is imported, less the first probe, so it includes the
interpreter's own start-up, and ``cli.<command>`` covers ``cli.main``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import speed
import tracer as tracing


def main() -> int:
    report_path, launched = sys.argv[1], float(sys.argv[2])
    trace, argv = sys.argv[3] == "1", sys.argv[4:]
    probes = [speed.probe()]
    if not trace:
        signal.signal(signal.SIGALRM, lambda *_: probes.append(speed.probe()))
        signal.setitimer(signal.ITIMER_REAL, speed.SAMPLE_EVERY_S,
                         speed.SAMPLE_EVERY_S)
    tracer = tracing.Tracer()
    from stringlinks import cli
    tracer.record("cli.startup", time.time() - launched - probes[0])
    cold = tracing.cached_entries() == 0
    if trace:
        tracing.install(tracer)
        tracer.enabled = True
    try:
        with tracer.span(f"cli.{argv[0]}"):
            code = cli.main(argv)
    finally:
        sys.stdout.flush()
        signal.setitimer(signal.ITIMER_REAL, 0)
        tracer.enabled = False
        probes.append(speed.probe())
        report = {"probes": probes, "pid": os.getpid(), "cold": cold}
        if trace:
            report["trace"] = tracer.report()
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
