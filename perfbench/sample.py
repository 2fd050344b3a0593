"""One benchmark sample, run in a fresh interpreter.

Usage: python3 perfbench/sample.py [--warm-seconds S] [--trace] -- <argv>

Imports ``tautrels.cli`` and calls ``main(argv)`` once (cold).  With
``--warm-seconds S`` it then repeats the identical call in the same
interpreter (warm) until the warm calls add up to S wall-clock seconds,
at least once; every call after the first finds the same filled caches.
The CLI's stdout is captured so it never mixes with the benchmark's own
output.  The last line written to stdout is one JSON object with, per
call, the exit code, the seconds (see meter.py), the sha256 of the first
output line (the payload of ``relations gen``) and the tally of
``verify`` check rows; and, for the process, the ``lru_cache`` totals of
the catalog's cached functions after the cold call, the peak RSS and, with
``--trace``, the tracer's quantities for the cold call.  ``PYTHONPATH``
and ``TAUTRELS_CACHE`` are set by the caller.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import sys

from meter import SpeedMeter

_SUMMARY = re.compile(r"^passed=(\d+) total=(\d+)$")


def summarize(text: str) -> dict:
    """What the correctness gate needs from one call's captured stdout."""
    lines = text.splitlines()
    first = lines[0] if lines else ""
    rows = [line for line in lines if line.startswith("check=")]
    summary = [m.groups() for m in map(_SUMMARY.match, lines) if m]
    generators = None
    if first.startswith("{"):
        generators = json.loads(first).get("generators")
    return {
        "digest": hashlib.sha256(first.encode()).hexdigest(),
        "rows": len(rows),
        "rows_ok": sum(1 for line in rows if line.endswith(" ok=True")),
        "summary": [int(v) for v in summary[-1]] if summary else None,
        "generators": generators,
    }


def call(cli, argv: list) -> dict:
    """One ``main(argv)`` call: ``seconds`` at the reference speed (see
    meter.py), ``wall_s`` as the clock read, ``factor`` from one to the
    other."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), SpeedMeter() as meter:
        rc = cli.main(list(argv))
    return {"rc": rc, "seconds": meter.seconds, "wall_s": meter.wall_s,
            "factor": meter.factor, **summarize(buf.getvalue())}


def lru_totals(cached: list) -> dict:
    infos = [f.cache_info() for f in cached]
    return {"hits": sum(i.hits for i in infos),
            "misses": sum(i.misses for i in infos)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--warm-seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import tautrels.cli as cli
    from tautrels import catalog

    cached = [f for f in vars(catalog).values() if hasattr(f, "cache_info")]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calls = [call(cli, argv)]
    lru = lru_totals(cached)
    trace = None
    if tracer:  # span seconds, too, at the reference speed
        trace = {k: v * calls[0]["factor"] if k.endswith((".s", ".self_s"))
                 else v for k, v in tracer.metrics().items()}
    warm = 0.0
    while args.warm_seconds > 0 and warm < args.warm_seconds:
        calls.append(call(cli, argv))
        warm += calls[-1]["wall_s"]
    result = {
        "calls": calls,
        "lru": lru,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": trace,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
