"""Workload process: runs one workload's queries as a single closed-loop client.

Started by ``run.py`` as ``python3 bench/worker.py MODE`` with the generated
input document on stdin; prints one JSON object on stdout.

MODE is one of
  setup   import leadsel, read the inputs, warm up, report the ready time;
  timed   then run whole rounds until --seconds of query time have passed;
  traced  the same, alternating untraced rounds and rounds with the
          tracer installed, and report per-layer metrics.

Outputs are checked after the timed loop (see queries.py).
"""

import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate
from spans import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_SAMPLES = 11  # the tail latency needs ten samples beyond it
MAX_ERRORS = 5

# (metric, span name, field), each a mean per traced query
LAYER_METRICS = (
    ("graphs.parse.calls", "graphs.parse", "calls"),
    ("graphs.parse.busy_s", "graphs.parse", "busy_s"),
    ("graphs.parse.edges", "graphs.parse", "edges"),
    ("kernels.compute.calls", "kernels.compute", "calls"),
    ("kernels.compute.busy_s", "kernels.compute", "busy_s"),
    ("kernels.oracle.calls", "kernels.oracle", "calls"),
    ("kernels.oracle.busy_s", "kernels.oracle", "busy_s"),
    ("kernels.oracle.dim_sum", "kernels.oracle", "dim"),
    ("centrality.report.calls", "centrality.report", "calls"),
    ("centrality.report.busy_s", "centrality.report", "busy_s"),
    ("joint.eval.calls", "joint.eval", "calls"),
    ("joint.eval.busy_s", "joint.eval", "busy_s"),
    ("selection.exhaustive.busy_s", "selection.exhaustive", "busy_s"),
    ("selection.exhaustive.self_s", "selection.exhaustive", "self_s"),
    ("selection.exhaustive.sets", "selection.exhaustive", "sets"),
    ("selection.greedy.busy_s", "selection.greedy", "busy_s"),
    ("selection.greedy.self_s", "selection.greedy", "self_s"),
    ("selection.greedy.evaluated", "selection.greedy", "evaluated"),
    ("selection.sweep.busy_s", "selection.sweep", "busy_s"),
    ("selection.sweep.pairs", "selection.sweep", "pairs"),
    ("simulate.busy_s", "simulate", "busy_s"),
    ("simulate.self_s", "simulate", "self_s"),
    ("simulate.steps", "simulate", "steps"),
    ("verify.busy_s", "verify", "busy_s"),
    ("verify.checks", "verify", "checks"),
    ("cli.main.busy_s", "cli.main", "busy_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
)


class Client:
    """Runs queries, keeps their outputs for checking and counts failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.kept = []

    def _fail(self, q, what):
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"{what} (query {json.dumps(q)[:160]})")

    def query(self, q):
        """Run one query and keep its output; return its latency in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.workload.run(q)
        except Exception:  # a query that raises is a failed query, not a crash
            latency = time.perf_counter() - start
            self._fail(q, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return latency
        latency = time.perf_counter() - start
        try:
            self.kept.append((q, self.workload.keep(q, out)))
        except Exception as exc:  # a malformed output fails the query
            self._fail(q, f"check failed: {type(exc).__name__}: {exc}")
        time.sleep(q.get("settle_s", 0.0))
        return latency

    def check(self):
        """Check every kept output; run after the timed loop."""
        for q, kept in self.kept:
            try:
                self.workload.check(q, kept)
            except Exception as exc:  # a wrong or unreadable output fails the query
                self._fail(q, f"check failed: {type(exc).__name__}: {exc}")
        self.kept = []


def timed(client, rounds, seconds, kernel):
    """Whole rounds until the query time at reference speed reaches ``seconds``.

    The reference kernel runs before the first query and after each one, so
    speeds[i] and speeds[i + 1] bracket query i. Stopping on reference time
    rather than wall time keeps the number of rounds, and so the query that
    the tail latency falls on, the same when the machine's speed drifts.
    """
    latencies, speeds = [], [calibrate.measure(kernel)]
    ref, elapsed = calibrate.REF_S[kernel], 0.0
    r = 0
    while elapsed < seconds or len(latencies) < MIN_SAMPLES:
        for q in rounds[r % len(rounds)]:
            latencies.append(client.query(q))
            speeds.append(calibrate.measure(kernel))
            elapsed += latencies[-1] * ref / calibrate.typical(speeds[-8:])
        r += 1
    return latencies, speeds, r


def traced(client, rounds, seconds):
    """Alternate untraced and traced rounds; per-layer metrics from the traced ones."""
    tracer = Tracer()
    plain, spans_time = [], []
    r = 0
    while sum(plain) + sum(spans_time) < seconds or not spans_time:
        round_ = rounds[r % len(rounds)]
        if r % 2 == 0:
            plain += [client.query(q) for q in round_]
        else:
            tracer.install()
            try:
                for q in round_:
                    tracer.query_id = len(spans_time)
                    spans_time.append(client.query(q))
            finally:
                tracer.uninstall()
        r += 1

    summary = summarize(tracer.spans)
    nq = len(spans_time)
    metrics = {}
    for metric, span, field in LAYER_METRICS:
        row = summary.get(span, {})
        metrics[metric] = row.get(field, row.get("counts", {}).get(field, 0)) / nq
    ex, sim = summary.get("selection.exhaustive", {}), summary.get("simulate", {})
    sets, steps = ex.get("counts", {}).get("sets", 0), sim.get("counts", {}).get("steps", 0)
    metrics["selection.exhaustive.us_per_set"] = ex["busy_s"] / sets * 1e6 if sets else 0.0
    metrics["simulate.ns_per_step"] = sim["self_s"] / steps * 1e9 if steps else 0.0
    metrics["trace.overhead_frac"] = 1.0 - (nq / sum(spans_time)) / (len(plain) / sum(plain))
    coverage = sum(row["self_s"] for row in summary.values()) / sum(spans_time)
    return metrics, coverage, tracer.spans


def main():
    mode = sys.argv[1]
    sys.path.insert(0, str(SRC))
    import leadsel

    if not Path(leadsel.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"leadsel was imported from {leadsel.__file__}, not from {SRC}")
    doc = json.load(sys.stdin)
    import queries

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{doc['workload']}-", dir=WORK)
    try:
        client = Client(queries.make(doc, workdir, in_process=mode == "traced"))
        for q in doc["warmup"]:
            client.query(q)
        client.check()
        result = {"ready": time.monotonic()}
        if mode == "timed":
            latencies, speeds, rounds = timed(client, doc["rounds"], doc["seconds"], doc["workload"])
            peak = getattr(client.workload, "peak_rss_kb", None)  # the CLI's children
            if peak is None:
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result.update(latencies=latencies, speeds=speeds, rounds=rounds, peak_rss_kb=peak)
        elif mode == "traced":
            metrics, coverage, spans = traced(client, doc["rounds"], doc["seconds"])
            result.update(metrics=metrics, coverage=coverage)
            spans_path = WORK / f"spans-{doc['workload']}-seed{doc['seed']}.jsonl"
            with open(spans_path, "w", encoding="utf-8") as fh:
                for s in spans:
                    fh.write(json.dumps(dict(zip(
                        ("id", "name", "start", "end", "parent", "query", "thread", "counts"), s))) + "\n")
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        client.check()
        result.update(attempted=client.attempted, failed=client.failed, errors=client.errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
