"""leadsel benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from any directory; the checkout is the parent of this file's
directory. The driver generates the workload's inputs from the seed
(``inputs.py``), hands them on stdin to workload processes
(``worker.py``) that import leadsel from this checkout's ``src/``, and
prints the metrics. Its last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The same figures,
with the machine, the code's identity and the run's details, are written
to ``.bench_work/results/``. ``--workload all`` runs every workload
untraced and prints a table of the end-to-end metrics.

See README.md in this directory for the workloads and metrics.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 3  # set-ups per run; setup_s is their median
IMPORT_PROBES = 3
DEADLINE_S = 170.0  # per workload run; the contract allows 180


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
    return left


def start_worker(mode, doc, deadline):
    """Run one workload process; return (spawn time, its JSON result)."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), mode], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(json.dumps(doc), timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} workload process did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} workload process exited with code {proc.returncode}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def import_times(deadline):
    """Median `import leadsel` and `scipy.linalg` import times of fresh processes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    totals, scipys = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import leadsel"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"import leadsel failed: {proc.stderr.strip()[-300:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) * 1e-6
        totals.append(cumulative.get("leadsel", 0.0))
        scipys.append(cumulative.get("scipy.linalg", 0.0))
    return statistics.median(totals), statistics.median(scipys)


def blas_threads():
    import numpy

    libdirs = [Path(numpy.__file__).parent / ".libs", Path(numpy.__file__).parent.parent / "numpy.libs"]
    for lib in (p for d in libdirs if d.is_dir() for p in d.iterdir() if "openblas" in p.name):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_env = ("LEADSEL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in thread_env},
        "LEADSEL_THREADS_set": "LEADSEL_THREADS" in os.environ,
    }


def code_identity():
    """Commit hash when the checkout is a git repository, and a hash of src/."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def tail_latency(latencies):
    """(value, percentile): the highest rank with ten samples beyond it."""
    xs = sorted(latencies)
    rank = len(xs) - 10
    return xs[rank - 1], 100.0 * rank / len(xs)


def at_reference_speed(latencies, speeds, ref):
    """Scale each latency by the reference kernel's speed around it.

    speeds[i] and speeds[i + 1] bracket query i; the eight kernel runs
    nearest to it, four before and four after, give its speed.
    """
    return [lat * ref / calibrate.typical(speeds[max(0, i - 3):i + 5])
            for i, lat in enumerate(latencies)]


def run_timed(doc, deadline):
    setups, raw_setups = [], []
    for i in range(SETUPS):
        speed = calibrate.measure("setup")
        spawned, res = start_worker("timed" if i == SETUPS - 1 else "setup", doc, deadline)
        raw_setups.append(res["ready"] - spawned)
        setups.append(raw_setups[-1] * calibrate.REF_S["setup"] / speed)
    raw = res["latencies"]
    lat = at_reference_speed(raw, res["speeds"], calibrate.REF_S[doc["workload"]])
    tail, pct = tail_latency(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "queries_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail,
        "failed_frac": res["failed"] / res["attempted"],
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    raw_tail, _ = tail_latency(raw)
    details = {
        "setups_s": setups, "timed_queries": len(lat), "rounds": res["rounds"],
        "tail_percentile": pct, "tail_samples_beyond": 10,
        "latencies_s": lat,
        "wall_clock": {"setups_s": raw_setups, "queries_per_s": len(raw) / sum(raw),
                       "latency_p50_ms": 1e3 * statistics.median(raw),
                       "latency_tail_ms": 1e3 * raw_tail, "query_time_s": sum(raw),
                       "latencies_s": raw, "kernel_s": res["speeds"]},
    }
    return metrics, res, details


def run_traced(doc, deadline):
    _, res = start_worker("traced", doc, deadline)
    metrics = dict(res["metrics"])
    metrics["cli.import_s"], metrics["cli.import_scipy_s"] = import_times(deadline)
    metrics["failed_frac"] = res["failed"] / res["attempted"]
    details = {"self_time_coverage": res["coverage"], "spans_file": res["spans_file"]}
    return metrics, res, details


def spec_units(section):
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run_one(workload, seed, seconds, trace):
    """Run one workload; return its record and the names its last line reports."""
    doc = inputs.generate(workload, seed)
    doc["seconds"] = seconds
    deadline = time.monotonic() + DEADLINE_S
    metrics, res, details = (run_traced if trace else run_timed)(doc, deadline)
    names = spec_units("per_layer" if trace else "end_to_end")
    units = names if trace else {**names, "failed_frac": "ratio"}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "attempted": res["attempted"], "failed": res["failed"], "errors": res["errors"],
        "details": details, "code": code_identity(), "machine": machine(),
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    path = WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return record, list(names), path


def describe(record, path):
    m, d = record["metrics"], record["details"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"commit {record['code']['commit']}  src {record['code']['src_sha256'][:12]}")
    if not record["trace"]:
        notes = {
            "setup_s": f"median of {len(d['setups_s'])} set-ups; wall clock "
                       f"{statistics.median(d['wall_clock']['setups_s']):.4g}",
            "queries_per_s": f"{d['timed_queries']} queries, one client; wall clock "
                             f"{d['wall_clock']['queries_per_s']:.4g} in {d['wall_clock']['query_time_s']:.1f} s",
            "latency_p50_ms": f"wall clock {d['wall_clock']['latency_p50_ms']:.4g}",
            "latency_tail_ms": f"p{d['tail_percentile']:.1f}, 10 of {d['timed_queries']} samples beyond; "
                               f"wall clock {d['wall_clock']['latency_tail_ms']:.4g}",
            "failed_frac": f"{record['failed']} of {record['attempted']} queries",
        }
    else:
        notes = {"trace.overhead_frac": f"layer self times cover {d['self_time_coverage']:.1%} "
                                        "of traced query time"}
    for name, metric in m.items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']:6s} {notes.get(name, '')}")
    for err in record["errors"]:
        print(f"  FAILED: {err}")
    print(f"  full record: {path.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "leadsel" / "__init__.py").is_file():
        sys.exit(f"error: no leadsel package under {SRC}; run from a leadsel checkout")
    try:
        if args.workload == "all":
            summary = {}
            for workload in inputs.WORKLOADS:
                record, names, path = run_one(workload, args.seed, args.seconds, 0)
                describe(record, path)
                summary[workload] = record["metrics"]
            print(json.dumps(summary))
            return
        record, names, path = run_one(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        sys.exit(f"error: {exc}")
    describe(record, path)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: record["metrics"][k] for k in names},
    }))


if __name__ == "__main__":
    main()
