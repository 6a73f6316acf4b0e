"""Benchmark of the colflux command line, one workload per invocation.

Usage::

    python3 bench/run.py --workload {estimate,diagnose} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root. Load model: a closed loop with one
client. Each job is a fresh ``colflux <scenario>`` process (bench/job.py),
and the next job starts only after the previous one has exited; nothing
runs beside it. A pass runs the workload's jobs in order (workloads.py).
Passes repeat until ``--seconds`` have elapsed, and at least one runs.

Every job's artifacts are checked (checks.py) and hashed. A job fails if it
exits non-zero, fails a check, or writes bytes that differ from an earlier
pass or run of the same source tree and config.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` one untraced pass is followed by
traced passes (tracer.py) and it carries the per-layer metrics. The full
result (environment, every sample, artifact digests, the spans of the last
traced pass) is written under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib.metadata import version
from pathlib import Path

import workloads
from checks import check
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

#: Import-only processes per run, so set-up time has a median even on
#: workloads with few jobs per pass.
SETUP_PROBES = 5
#: ``python -X importtime`` processes per traced run.
IMPORTTIME_PROBES = 3


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(threads: int, seed: int) -> dict:
    import numpy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        openblas = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "openblas": openblas,
        "blas_threads": threads,
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


def summarize(values: list) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    out = {"median": statistics.median(values), "n": len(values), "tail": None}
    for p in (90, 99, 99.9):
        if len(values) * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            out["tail"] = {"percentile": p, "value": cut}
    return out


def aggregate_spans(traces: list) -> dict:
    """Per-layer and per-function counts and times from one pass's spans.

    A span's self time is its duration minus that of its child spans.
    ``<function>.s`` is inclusive time, counting only spans not nested in
    another span of the same function.
    """
    m = defaultdict(int)
    for trace in traces:
        names, spans = trace["names"], trace["spans"]
        children = [0.0] * len(spans)
        for fn, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (fn, start, end, parent, raised) in enumerate(spans):
            name = names[fn]
            layer = name.split(".", 1)[0]
            m[f"{layer}.calls"] += 1
            m[f"{layer}.self_s"] += (end - start) - children[i]
            m[f"{layer}.errors"] += raised
            m[f"{name}.calls"] += 1
            while parent >= 0 and spans[parent][0] != fn:
                parent = spans[parent][3]
            if parent < 0:
                m[f"{name}.s"] += end - start
        m["numerics.solve_tridiagonal.columns"] += trace["columns"]
    return dict(m)


class Run:
    """One benchmark run: a workload at one seed, in its own work directory."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.doc = workloads.config(workload, seed)
        self.dir = WORK / f"{workload}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        text = json.dumps(self.doc, sort_keys=True, indent=2) + "\n"
        self.config.write_text(text, encoding="utf-8")
        self.threads = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)
        self.source = _source_digest()
        # BLAS reductions depend on the thread count, so bytes are compared
        # only between runs that share it
        self.identity = _sha256(f"{self.source}{self.threads}{text}".encode())
        self.store_path = WORK / "digests.json"
        self.store = json.loads(self.store_path.read_text()) if self.store_path.is_file() else {}
        self.setup_samples = []
        self.jobs_run = 0

    def spawn(self, argv: list, traced: bool = False) -> dict:
        """Run bench/job.py in a fresh process; its record plus its own rusage."""
        self.jobs_run += 1
        record = self.dir / f"job{self.jobs_run}.json"
        stderr = self.dir / f"job{self.jobs_run}.err"
        with open(stderr, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "job.py"), str(record), "1" if traced else "0", *argv],
                cwd=self.dir,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        result = json.loads(record.read_text()) if record.is_file() else {}
        record.unlink(missing_ok=True)
        result["stderr"] = stderr.read_text(errors="replace")[-2000:]
        stderr.unlink()
        result["returncode"] = proc.returncode
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        return result

    def probe_setup(self) -> None:
        self.setup_samples.append(self.spawn([])["setup_s"])

    def scipy_integrate_s(self) -> float:
        """Cumulative import time of scipy.integrate under ``-X importtime``."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import colflux.cli"],
            cwd=self.dir, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.integrate":
                return int(parts[1]) / 1e6
        return 0.0

    def run_pass(self, traced: bool) -> dict:
        """Run the workload's jobs once, in order, then check their outputs."""
        ran = []
        start = time.perf_counter()
        for scenario in workloads.JOBS[self.workload]:
            out = self.dir / "out" / scenario
            shutil.rmtree(out, ignore_errors=True)
            argv = [scenario, "--config", str(self.config), "--out", str(out)]
            ran.append((scenario, out, self.spawn(argv, traced)))
        wall = time.perf_counter() - start

        jobs, traces, artifact_bytes, cg_iterations = [], [], 0, 0
        for job_id, (scenario, out, rec) in enumerate(ran):
            problems = [] if rec["returncode"] == 0 else [f"exit code {rec['returncode']}: {rec['stderr']}"]
            if not problems:
                problems = check(scenario, self.doc, out)
            digests = {}
            if out.is_dir():
                for path in sorted(out.iterdir()):
                    data = path.read_bytes()
                    artifact_bytes += len(data)
                    digests[path.name] = _sha256(data)
            if scenario == "assimilate" and not problems:
                cg_iterations += json.loads((out / "assimilate.json").read_text())["iterations"]
            key = f"{scenario}:{self.identity}"
            if not problems:
                earlier = self.store.setdefault(key, digests)
                changed = sorted(n for n in {*earlier, *digests} if earlier.get(n) != digests.get(n))
                if changed:
                    problems.append(f"artifacts differ from an earlier run: {changed}")
            if "setup_s" in rec:
                self.setup_samples.append(rec["setup_s"])
            if "trace" in rec:
                traces.append(dict(rec.pop("trace"), job=job_id, scenario=scenario))
            jobs.append(dict(rec, scenario=scenario, problems=problems, digests=digests))
            shutil.rmtree(out, ignore_errors=True)
        return {
            "traced": traced,
            "wall_s": wall,
            "work_s": sum(j.get("work_s", 0.0) for j in jobs),
            "cpu_s": sum(j["cpu_s"] for j in jobs),
            "peak_rss_mb": max(j["peak_rss_mb"] for j in jobs),
            "artifact_bytes": artifact_bytes,
            "cg_iterations": cg_iterations,
            "jobs": jobs,
            "traces": traces,
        }

    def save_store(self) -> None:
        tmp = self.store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.store, sort_keys=True, indent=1))
        tmp.replace(self.store_path)


def layer_metrics(run: Run, passes: list, untraced_work_s: float, importtime: list) -> tuple:
    """Per-layer metrics of the traced passes, and any count that did not repeat."""
    per_pass = []
    for p in passes:
        if p["traced"]:
            m = aggregate_spans(p["traces"])
            m["assimilate.cg_iterations"] = p["cg_iterations"]
            m["cli.artifact_mb"] = p["artifact_bytes"] / 1e6
            m["trace.overhead_s"] = p["work_s"] - untraced_work_s
            per_pass.append(m)
    counts = {
        k: v for k, v in per_pass[0].items()
        if isinstance(v, int) or k == "cli.artifact_mb"
    }
    unsteady = [k for m in per_pass[1:] for k in counts if m.get(k) != counts[k]]
    key = f"counts:{run.workload}:{run.identity}"
    earlier = run.store.setdefault(key, counts)
    unsteady += [k for k in {*earlier, *counts} if earlier.get(k) != counts.get(k)]
    metrics = dict(counts)
    for k in set().union(*per_pass):
        if k not in counts:
            metrics[k] = statistics.median(m.get(k, 0.0) for m in per_pass)
    metrics["setup.scipy_integrate_s"] = statistics.median(importtime)
    return metrics, sorted(set(unsteady))


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "colflux" / "cli.py").is_file() or not spec:
        print(f"{ROOT} lacks src/colflux or BENCHMARK.json; nothing to run", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    environment = _environment(run.threads, args.seed)
    for _ in range(SETUP_PROBES):
        run.probe_setup()
    traced = bool(args.trace)
    importtime = [run.scipy_integrate_s() for _ in range(IMPORTTIME_PROBES)] if traced else []

    # untraced work_s of this workload on this source tree, from earlier runs
    reference = run.store.setdefault(f"work:{args.workload}:{run.source}:{run.threads}", [])
    passes = []
    deadline = time.perf_counter() + args.seconds
    if traced and not reference:
        passes.append(run.run_pass(False))
    while True:
        passes.append(run.run_pass(traced))
        if time.perf_counter() >= deadline:
            break

    jobs = [j for p in passes for j in p["jobs"]]
    failed = sum(1 for j in jobs if j["problems"])
    timed = [p for p in passes if not p["traced"]]
    samples = {
        "setup_s": run.setup_samples,
        **{k: [p[k] for p in timed] for k in ("work_s", "wall_s", "cpu_s", "peak_rss_mb")},
    }
    summaries = {k: summarize(v) for k, v in samples.items() if v}
    reference[:] = (reference + [p["work_s"] for p in timed])[-50:]
    unsteady = []
    if traced:
        values, unsteady = layer_metrics(run, passes, statistics.median(reference), importtime)
        declared = spec["per_layer"]
    else:
        values = {k: s["median"] for k, s in summaries.items()}
        declared = spec["end_to_end"]
    run.save_store()
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "config": run.doc,
        "attempted": len(jobs),
        "failed": failed,
        "fail_ratio": failed / len(jobs),
        "unsteady_counts": unsteady,
        "summaries": summaries,
        "metrics": metrics,
        "passes": [{k: v for k, v in p.items() if k != "traces"} for p in passes],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    if traced:
        last = [p for p in passes if p["traced"]][-1]["traces"]
        (results / f"{stem}-spans.json").write_text(json.dumps(last))
        work = statistics.median(p["work_s"] for p in passes if p["traced"])
        shares = {layer: values.get(f"{layer}.self_s", 0.0) / work for layer in LAYERS}
        print("share of traced work_s by layer self time: "
              + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))

    for name, s in summaries.items():
        unit = "MB" if name == "peak_rss_mb" else "s"
        tail = f", p{s['tail']['percentile']:g} {s['tail']['value']:.6g}" if s["tail"] else ""
        print(f"{name:>14} {s['median']:.6g} {unit} (median of {s['n']}{tail})")
    print(f"{'fail_ratio':>14} {failed / len(jobs):.6g} ({failed} of {len(jobs)} jobs failed)")
    for j in jobs:
        for problem in j["problems"]:
            print(f"FAILED {j['scenario']}: {problem}")
    if unsteady:
        print(f"counts differ between traced passes or runs: {unsteady}")
    print(json.dumps({
        "correct": failed == 0 and not unsteady,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
