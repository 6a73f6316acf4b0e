"""One benchmark job: a fresh process that runs one ``colflux`` scenario.

Usage::

    python3 bench/job.py RECORD TRACE [scenario arguments ...]

It times the import of ``colflux.cli`` (what every CLI invocation pays
before any work) and then ``colflux.cli.main(argv)``, exactly as the
``colflux`` console script calls it. With TRACE 1 the public functions are
traced (see tracer.py) and the spans go into the record. With no scenario
arguments the job only imports: a set-up probe. The JSON record is written
to RECORD; the exit code is the scenario's.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    record_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    start = time.perf_counter()
    import colflux.cli

    record = {"setup_s": time.perf_counter() - start, "exit_code": 0}
    if argv:
        tracer = None
        if traced:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        record["exit_code"] = colflux.cli.main(argv)
        record["work_s"] = time.perf_counter() - start
        if tracer is not None:
            record["trace"] = tracer.dump()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
