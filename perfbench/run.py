"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics (no spans installed); ``--trace 1`` is the separate traced run
that reports the per-layer metrics.  Every response passes the
correctness gate (:mod:`perfbench.gate`).  The second-to-last line of
standard output is the run's record (commit, seed, host, tail
percentile, problems); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Records are also
appended to ``.perfbench-run/results.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench-run"


@dataclass
class Outcome:
    """What one workload run measured, before it becomes metrics."""

    samples: list
    start: float
    end: float
    setup_times: list[float]
    peak_rss_mb: float
    cpu_seconds: float
    cache_before: dict
    cache_after: dict
    spans: list = field(default_factory=list)
    span_cost: float = 0.0


def run_inprocess(workload, seed: int, seconds: float, traced: bool) -> Outcome:
    """The closed-loop workloads: ``PermutationService`` in this process."""
    from repro.serve import PermutationService, request_from_dict, warm_service

    from perfbench import spans, workloads
    from perfbench.loops import closed_loop
    from perfbench.server import proc_peak_rss_mb

    if workload.kind == "warm":
        warm = workloads.warm_keys()
        key_of, round_len = (lambda i: warm[i % len(warm)]), 1
    else:
        warm = []
        # Far more fresh keys than a run can use: every request misses.
        key_of = workloads.cold_keys(seed, int(seconds * 10) + 60).__getitem__
        round_len = 3
    g = workload.geometry()
    recorder, undo, span_cost = None, None, 0.0
    if traced:
        span_cost = spans.span_cost_seconds()
        recorder = spans.SpanRecorder()
        undo = spans.install(recorder)
    service = None
    try:
        setup_times = []
        for _ in range(1 if traced else workload.setup_reps):
            if service is not None:
                service.close()
                service = None
                gc.collect()
            t0 = time.perf_counter()
            service = PermutationService(
                g, workers=workload.workers, cache_maxsize=workload.cache_maxsize
            )
            if warm:
                report = warm_service(
                    service, [request_from_dict(k.request_dict()) for k in warm]
                )
                if report.failed:
                    raise RuntimeError(f"warm-up failed: {report.errors}")
            setup_times.append(time.perf_counter() - t0)
        cache_before = asdict(service.cache_info())
        cpu0 = time.process_time()
        samples, start, end = closed_loop(
            service, key_of, workload.clients, seconds, round_len
        )
        cpu_seconds = time.process_time() - cpu0
        peak = proc_peak_rss_mb()
        cache_after = asdict(service.cache_info())
    finally:
        if service is not None:
            service.close()
        if undo is not None:
            undo()
    return Outcome(samples, start, end, setup_times, peak, cpu_seconds,
                   cache_before, cache_after,
                   recorder.spans if recorder is not None else [], span_cost)


def run_http(workload, seed: int, seconds: float, traced: bool) -> Outcome:
    """The open-loop workload: a ``repro serve --http`` subprocess."""
    from perfbench import workloads
    from perfbench.loops import open_loop
    from perfbench.server import Server, proc_cpu_seconds, proc_peak_rss_mb

    keys = workloads.http_keys()
    schedule = workloads.http_schedule(seed, seconds)
    warmup = RUN_DIR / f"warmup-{workload.name}.json"
    warmup.write_text(json.dumps([k.request_dict() for k in keys]))
    spans_out = RUN_DIR / f"spans-{workload.name}.json" if traced else None
    if spans_out is not None:
        spans_out.unlink(missing_ok=True)
    argv = [
        "serve", "--http", "127.0.0.1:0", "--workers", str(workload.workers),
        "--N", str(workload.N), "--B", str(workload.B), "--D", str(workload.D),
        "--M", str(workload.M), "--cache-size", str(workload.cache_maxsize),
        "--warmup", str(warmup),
    ]
    log = RUN_DIR / "server.log"
    setup_times = []
    server = None
    try:
        for _ in range(1 if traced else workload.setup_reps):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            server = Server(ROOT, argv, log, spans_out=spans_out)
            url = server.wait_ready()
            setup_times.append(time.perf_counter() - t0)
        pid = server.proc.pid
        cache_before = server.get_json("/cache")["cache"]
        cpu0 = proc_cpu_seconds(pid)
        samples, start, end = open_loop(url, schedule, keys, connections=workload.clients)
        cpu_seconds = proc_cpu_seconds(pid) - cpu0
        peak = proc_peak_rss_mb(pid)
        cache_after = server.get_json("/cache")["cache"]
    finally:
        if server is not None:
            code = server.stop()
            if code != 0:
                print(f"server exited with {code}; see {log}", file=sys.stderr)
    spans, span_cost = [], 0.0
    if traced:
        payload = json.loads(spans_out.read_text())
        spans_out.unlink()
        spans, span_cost = [tuple(s) for s in payload["spans"]], payload["span_cost_s"]
    return Outcome(samples, start, end, setup_times, peak, cpu_seconds,
                   cache_before, cache_after, spans, span_cost)


def floor_seconds(targets) -> float:
    """Raw numpy floor for one key: the fastest of five runs of one
    indexed gather of every source record followed by one scatter of
    them to their target addresses."""
    import numpy as np

    N = targets.size
    source = np.arange(N, dtype=np.int64)
    gather = np.arange(N, dtype=np.int64)
    final = np.empty(N, dtype=np.int64)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        final[targets] = source[gather]
        best = min(best, time.perf_counter() - t0)
    return best


def check_outputs(workload, seed: int, samples, traced: bool):
    """Check every response; returns ``(problems, floors)``.

    ``floors`` (traced runs only) maps each key to its raw numpy
    gather+scatter seconds.
    """
    from repro.serve import make_permutation

    from perfbench import gate as checks

    g = workload.geometry()
    keys = sorted({s.key for s in samples}, key=lambda k: (k.perm, k.method, k.seed))
    references, floors = {}, {}
    for key in keys:
        perm = make_permutation(key.perm, g, seed=key.seed)
        references[key] = checks.reference_digest(perm, g.N)
        if traced:
            floors[key] = floor_seconds(checks.target_addresses(perm, g.N))
    problems = []
    for s in samples:
        for problem in checks.check_response(s.body, references[s.key]):
            problems.append(f"{s.body.get('request_id')} {s.key}: {problem}")
    if keys:
        key = keys[seed % len(keys)]
        if checks.strict_digest(g, key) != references[key]:
            problems.append(f"strict engine digest differs from the reference for {key}")
    return problems, floors


def source_digest() -> str:
    """SHA-256 over ``src/`` (paths and bytes): the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the repository being measured, if it is a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def result_line(correct: bool, attempted: int, failed: int, values: dict,
                units: dict) -> dict:
    """The final output object, metrics in ``units`` order."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # Import the benchmark as the ``perfbench`` package, not its files
    # as top-level modules from the script's own directory.
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p and Path(p).resolve() != Path(here)]
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    import numpy as np

    from perfbench import metrics, spans, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    RUN_DIR.mkdir(exist_ok=True)
    tail_q = workloads.tail_percentile(workload.nominal_rps * args.seconds)
    runner = run_http if workload.kind == "http" else run_inprocess
    out = runner(workload, args.seed, args.seconds, traced)
    problems, floors = check_outputs(workload, args.seed, out.samples, traced)

    ok = [s for s in out.samples if s.ok]
    failed = len(out.samples) - len(ok)
    basis = {}
    if traced:
        ledger, counts = spans.ledgers(out.spans)
        values, basis = metrics.per_layer(
            out.samples, out.start, out.end, workload.workers, ledger, counts,
            out.span_cost, out.cache_before, out.cache_after, floors, tail_q,
        )
        units = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(
            out.samples, out.start, out.end, out.setup_times, out.peak_rss_mb,
            out.cpu_seconds, tail_q,
        )
        units = metrics.END_TO_END
    latencies = [s.latency for s in ok]
    tail_value = metrics.percentile(latencies, tail_q)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tail": {
            "percentile": tail_q,
            "samples": len(latencies),
            "beyond": sum(1 for x in latencies if x > tail_value),
        },
        "setup_times_s": out.setup_times,
        "layer_basis": basis,
        "problems": problems[:20],
        "metrics": values,
    }
    with open(RUN_DIR / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    for problem in problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    correct = not problems and bool(ok)
    print(json.dumps(result_line(correct, len(out.samples), failed, values, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
