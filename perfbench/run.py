"""tautrels benchmark runner (standard library only).

One workload per call:

    python3 perfbench/run.py --workload fz-graphs --seed 1 --seconds 25 --trace 0

runs the workload's CLI command (``tautrels.cli.main``) as a closed loop:
one client, one call at a time, each sample in a fresh child interpreter
with ``TAUTRELS_CACHE`` pointing at a new empty directory, so every sample
starts cold the way a command-line run does.  The CLI keeps its default of
one thread.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the end-to-end
metrics of ``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics,
taken from one untraced and one traced cold sample.  Times are CPU
seconds at a reference CPU speed (see meter.py).

Report mode, every workload:

    python3 perfbench/run.py --report --seed 1

prints every metric by name and unit with the core count, the Python
version, the git HEAD, the seed and each workload's rationale.

Only ``series-verify`` uses the seed (as the CLI's ``--seed``); the other
workloads have fixed inputs and do no randomized work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from meter import reference, speed_factor

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
TMP_DIR = ROOT / ".perfbench_tmp"
PROBES_PER_SAMPLE = 8
WARM_SECONDS = 3  # warm calls per sample add up to at least this
DEADLINE_S = 165  # every run must end well inside 180 s

# CLI arguments per workload at full and at tiny size (self-test).  Only
# "seeded" workloads receive the seed, as the CLI's global --seed.  "digest"
# is the sha256 of the --primitive payload line, recorded at the seed commit
# of the benchmark.  The reason for each workload is in BENCHMARK.json.
WORKLOADS = {
    "fz-graphs": {
        "full": ["relations", "gen", "--genus", "5", "--codim", "4",
                 "--primitive"],
        "tiny": ["relations", "gen", "--genus", "3", "--codim", "2",
                 "--primitive"],
        "digest": {
            "full": "a371f862d18576d441cccc383b608897c92b6e85ecdff5598e4aaeb58b149fb2",
            "tiny": "c35c2adeafc0ba530bfa9ef75cba98743627acb657d66c2974c5f114d872475d",
        },
    },
    "fz-marked": {
        "full": ["relations", "gen", "--genus", "4", "--codim", "3",
                 "--weights", "1/8,1/8", "--subset", "1,2", "--primitive"],
        "tiny": ["relations", "gen", "--genus", "2", "--codim", "3",
                 "--weights", "1/8,1/8", "--subset", "1,2", "--primitive"],
        "digest": {
            "full": "0fabdcd2e90f5d724a0a1eb0b3d87dae5c6ee29792760f1ae43daa29304c978b",
            "tiny": "788f2c12699955e0792da0b60871ec464f4939cd8c9832eae87e5b174f673cb8",
        },
    },
    "series-verify": {
        "full": ["verify", "--suite", "series"],
        "tiny": ["verify", "--suite", "series", "--quick"],
        "seeded": True,
    },
    "pushforward": {
        "full": ["verify", "--suite", "pushforward", "--d", "5"],
        "tiny": ["verify", "--suite", "pushforward", "--d", "2"],
    },
}


def workload_argv(workload: str, size: str, seed: int) -> list:
    spec = WORKLOADS[workload]
    return (["--seed", str(seed)] if spec.get("seeded") else []) + spec[size]


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env(cache_dir: str | None = None) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    if cache_dir:
        env["TAUTRELS_CACHE"] = cache_dir
    return env


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "tautrels" / "cli.py").is_file():
        raise BenchError(f"no tautrels sources under {ROOT / 'src'}")
    return json.loads(path.read_text())


def setup_probes(count: int) -> list:
    """CPU seconds for fresh interpreters to start and import tautrels.cli,
    at the reference speed measured just before and after each one (see
    meter.py).  This process and the probes share one CPU meanwhile, so that
    the reference loop runs where the probe runs."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        return [setup_probe() for _ in range(count)]
    finally:
        os.sched_setaffinity(0, allowed)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_probe() -> float:
    refs = [reference()]
    start = children_cpu_s()
    proc = subprocess.run([sys.executable, "-c", "import tautrels.cli"],
                          env=child_env(), cwd=ROOT)
    seconds = children_cpu_s() - start
    refs.append(reference())
    if proc.returncode != 0:
        raise BenchError("python cannot import tautrels.cli")
    return seconds * speed_factor(refs)


def run_sample(argv: list, warm: float, trace: bool,
               timeout: float) -> dict | None:
    """One sample in a fresh child (see sample.py): a cold call, then warm
    calls adding up to ``warm`` seconds.  ``None`` if the child failed."""
    TMP_DIR.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=TMP_DIR)
    cmd = [sys.executable, str(HERE / "sample.py")]
    cmd += ["--warm-seconds", str(warm)]
    cmd += ["--trace"] if trace else []
    try:
        proc = subprocess.run(cmd + ["--"] + argv, env=child_env(cache_dir),
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        return None
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def call_ok(workload: str, size: str, call: dict) -> bool:
    """The correctness gate for one CLI call."""
    if call["rc"] != 0:
        return False
    expected = WORKLOADS[workload].get("digest")
    if expected:
        return call["digest"] == expected[size]
    total = call["rows"]
    return (total > 0 and call["rows_ok"] == total
            and call["summary"] == [total, total])


def sample_ok(workload: str, size: str, result: dict | None) -> bool:
    return result is not None and all(
        call_ok(workload, size, c) for c in result["calls"])


def untraced_run(workload: str, size: str, seed: int, seconds: float,
                 started: float) -> dict:
    argv = workload_argv(workload, size, seed)
    setup = []
    samples = []
    begin = time.perf_counter()
    budget = min(seconds, DEADLINE_S - (begin - started))
    while True:
        iteration = time.perf_counter()
        # interleaved, so that set-up is timed across the whole run
        setup += setup_probes(PROBES_PER_SAMPLE)
        left = DEADLINE_S - (time.perf_counter() - started)
        samples.append(run_sample(argv, warm=WARM_SECONDS, trace=False,
                                  timeout=left))
        now = time.perf_counter()
        if (now - begin) + (now - iteration) > budget:
            break
    good = [r for r in samples if r is not None]
    failed = sum(1 for s in samples if not sample_ok(workload, size, s))
    metrics = {}
    if good:
        metrics = {
            "wall_s": statistics.median(r["calls"][0]["seconds"] for r in good),
            "warm_s": statistics.median(
                c["seconds"] for r in good for c in r["calls"][1:]),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in good),
        }
    return {"attempted": len(samples), "failed": failed, "metrics": metrics}


def traced_run(workload: str, size: str, seed: int, started: float) -> dict:
    """One untraced and one traced cold sample of the same command.

    The traced sample counts as failed unless it passes the gate, its
    output digest equals the untraced one and its catalog ``lru_cache``
    misses equal the untraced sample's, which shows both started cold.
    """
    argv = workload_argv(workload, size, seed)
    plain = run_sample(argv, warm=0, trace=False,
                       timeout=DEADLINE_S - (time.perf_counter() - started))
    traced = run_sample(argv, warm=0, trace=True,
                        timeout=DEADLINE_S - (time.perf_counter() - started))
    failed = [not sample_ok(workload, size, s) for s in (plain, traced)]
    metrics: dict = {}
    if not any(failed):
        if (traced["calls"][0]["digest"] != plain["calls"][0]["digest"]
                or traced["lru"]["misses"] != plain["lru"]["misses"]):
            failed[1] = True
        metrics = derived_layer_metrics(traced, plain)
    return {"attempted": 2, "failed": sum(failed), "metrics": metrics}


def derived_layer_metrics(traced: dict, plain: dict) -> dict:
    out = dict(traced["trace"])
    out["catalog.lru.hits"] = traced["lru"]["hits"]
    out["catalog.lru.misses"] = traced["lru"]["misses"]
    visited = out["graphs.is_connected.calls"]
    out["graphs.enumerate.kept_ratio"] = (
        out["graphs.enumerate_graphs.kept"] / visited if visited else 0.0)
    # terms of the relation written by `relations gen` per term added;
    # verify suites write no relation and report 0
    generators = traced["calls"][0]["generators"]
    added = out["classes.TautClass.add_term.calls"]
    out["classes.terms.kept_ratio"] = (
        generators / added if generators is not None and added else 0.0)
    untraced_s = plain["calls"][0]["seconds"]
    traced_s = traced["calls"][0]["seconds"]
    out["trace.untraced_s"] = untraced_s
    out["trace.untraced_wall_s"] = plain["calls"][0]["wall_s"]
    out["trace.traced_s"] = traced_s
    out["trace.overhead_ratio"] = traced_s / untraced_s - 1
    return out


def select(metrics: dict, specs: list) -> dict:
    """The metrics ``BENCHMARK.json`` names, with their units."""
    if not metrics:
        return {}
    return {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
            for s in specs}


def run_workload(spec: dict, workload: str, size: str, seed: int,
                 seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    if trace:
        run = traced_run(workload, size, seed, started)
        metrics = select(run["metrics"], spec["per_layer"])
    else:
        run = untraced_run(workload, size, seed, seconds, started)
        metrics = select(run["metrics"], spec["end_to_end"])
    return {"correct": run["failed"] == 0 and bool(metrics),
            "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics}


def git_head() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(spec: dict, seed: int, seconds: float, size: str) -> int:
    print(f"cores {os.cpu_count()}  python {platform.python_version()}  "
          f"git {git_head()}  seed {seed}  seconds {seconds}  size {size}")
    ok = True
    for entry in spec["workloads"]:
        name = entry["name"]
        seeded = WORKLOADS[name].get("seeded", False)
        print(f"\n{name}: {entry['why']}")
        print(f"  argv: {' '.join(workload_argv(name, size, seed))}"
              f"  ({'uses' if seeded else 'ignores'} the seed)")
        for trace in (False, True):
            res = run_workload(spec, name, size, seed, seconds, trace)
            ok = ok and res["correct"]
            print(f"  {'traced' if trace else 'untraced'}: correct "
                  f"{res['correct']}  attempted {res['attempted']}  "
                  f"failed {res['failed']}")
            for key, metric in res["metrics"].items():
                print(f"    {key:<44} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description="tautrels benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--report", action="store_true",
                        help="run every workload and print every metric")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each command at a small size "
                             "(self-test)")
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so subprocess.run kills and reaps
    # the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        if args.report:
            return report(spec, args.seed, seconds, args.size)
        if not args.workload:
            parser.error("--workload or --report is required")
        result = run_workload(spec, args.workload, args.size, args.seed,
                              seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
