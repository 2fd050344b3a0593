"""Self-test of the benchmark:  python3 perfbench/selftest.py

For every workload, at tiny size:

1. the runner (run.py) runs it untraced and traced; both runs must be
   correct and report exactly the metrics ``BENCHMARK.json`` names;
2. an untraced and a traced sample must give the same output digest and
   the same catalog ``lru_cache`` misses (both start cold);
3. the tracer's call counts and work quantities must equal those of a
   direct ``tautrels.cli.main`` call in a fresh interpreter, counted with
   ``sys.setprofile`` instead of wrappers.

It also checks that the tracer rebinds names imported into other modules
and method aliases.  Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import TARGETS, Tracer, resolve  # noqa: E402

FAILURES: list = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def profile_counts(argv: list) -> dict:
    """Calls and work quantities of the tracer's targets for one direct
    ``main(argv)`` call, seen through ``sys.setprofile``.  Targets wrapped
    in ``lru_cache`` are left out: the profiler sees only their misses."""
    import tautrels.cli as cli

    codes = {}
    counts = {}
    for module, path, prefix, kind, work in TARGETS:
        fn = resolve(module, path)
        if hasattr(fn, "cache_info"):
            continue
        codes[fn.__code__] = (prefix, work)
        counts[f"{prefix}.calls"] = 0
        if work:
            counts[work[0]] = 0
    pending = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            prefix, work = codes[frame.f_code]
            counts[f"{prefix}.calls"] += 1
            if work:
                code = frame.f_code
                names = code.co_varnames[:code.co_argcount]
                pending[frame] = (work, [frame.f_locals[n] for n in names])
        elif event == "return" and frame in pending:
            (name, measure), args = pending.pop(frame)
            counts[name] += measure(args, arg)

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            cli.main(list(argv))
        finally:
            sys.setprofile(None)
    return counts


def runner(spec: dict, workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--size", "tiny", "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    label = f"{workload} run.py --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and bool(lines), f"{label} exits 0")
    if not lines:
        return
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{label} result keys")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{label} correct")
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    check(sorted(result["metrics"]) == sorted(names), f"{label} metric names")


def main() -> int:
    if sys.argv[1:2] == ["--count"]:
        print(json.dumps(profile_counts(sys.argv[2:])))
        return 0
    spec = run.load_spec()
    sys.path.insert(0, str(run.ROOT / "src"))
    tracer = Tracer()
    tracer.install()
    check(tracer.bindings["classes.normal_form"] >= 2,
          "normal_form rebound in tautrels.relations too")
    check(tracer.bindings["graphs.enumerate_graphs"] >= 3,
          "enumerate_graphs rebound in tautrels.relations and tautrels.cli")
    check(tracer.bindings["series.mul"] >= 2, "Series.__rmul__ alias rebound")

    for workload in run.WORKLOADS:
        argv = run.workload_argv(workload, "tiny", 7)
        for trace in (0, 1):
            runner(spec, workload, trace)
        plain = run.run_sample(argv, warm=0, trace=False, timeout=120)
        traced = run.run_sample(argv, warm=0, trace=True, timeout=120)
        both = [plain, traced]
        check(all(run.sample_ok(workload, "tiny", s) for s in both),
              f"{workload} samples pass the correctness gate")
        if None in both:
            continue
        check(both[0]["calls"][0]["digest"] == both[1]["calls"][0]["digest"],
              f"{workload} traced output equals untraced output")
        check(both[0]["lru"] == both[1]["lru"],
              f"{workload} lru totals equal in two cold samples")
        proc = subprocess.run(
            [sys.executable, str(HERE / "selftest.py"), "--count"] + argv,
            env=run.child_env(), cwd=run.ROOT, stdout=subprocess.PIPE,
            text=True, timeout=120)
        direct = json.loads(proc.stdout.strip().splitlines()[-1])
        seen = both[1]["trace"]
        wrong = {k: (seen[k], v) for k, v in direct.items() if seen[k] != v}
        check(not wrong, f"{workload} tracer counts equal direct counts "
              f"({len(direct)} quantities){' ' + str(wrong) if wrong else ''}")
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
