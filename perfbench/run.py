"""corpuskit benchmark: generate a seeded corpus, set up, run one workload's
job for a fixed time, check its outputs and print the metrics.

    python3 perfbench/run.py --workload web --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root; corpuskit is imported from ``src/`` beside
this directory and nowhere else. With ``--trace 0`` the job is timed
untraced and the end-to-end metrics of BENCHMARK.json are reported; with
``--trace 1`` a separate run with span wrappers reports the per-layer
metrics. Times are in reference seconds (see ``calibrate.py``). The last
line of standard output is one JSON object. Working
files live under ``.perfbench/`` in the repository root and are removed at
exit, except the traced run's spans, kept in ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import corpus  # noqa: E402
import workloads  # noqa: E402


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import corpuskit from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "corpuskit" / "__init__.py").is_file():
        fail(f"no corpuskit sources under {src}")
    sys.path.insert(0, str(src))
    import corpuskit

    if not Path(corpuskit.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"corpuskit was imported from {corpuskit.__file__}, not from {src}")
    return corpuskit


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing")
    return json.loads(path.read_text())


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped workers."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    return max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


class Runner:
    """One workload in this process: corpus, set-up, rounds of the job."""

    def __init__(self, workload: str, seed: int, scale: float, work: Path) -> None:
        self.work = work
        planted = corpus.generate(workload, seed, work / "corpus", scale)
        workers = min(2, os.cpu_count() or 1)
        self.wl = workloads.WORKLOADS[workload](work, planted, workers, seed)
        self.wl.prepare()
        self.docs = 0
        self.text_bytes = 0
        self.input_ids = set()
        for doc in self.wl.input_docs():
            self.docs += 1
            self.text_bytes += len(doc["text"].encode("utf-8"))
            self.input_ids.add(doc["id"])
        self.mb = self.text_bytes / 1e6
        self.rounds: list[dict] = []
        self.kept: dict[str, Path] = {}  # output digest -> kept output directory

    def measure(self, fn) -> dict:
        """Run ``fn`` timed, with kernel runs just before and after it;
        ``scale`` turns its seconds into reference seconds."""
        before = calibrate.kernel_seconds()
        gc.collect()
        cpu0 = cpu_seconds()
        started = time.perf_counter()
        fn()
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu0
        after = calibrate.kernel_seconds()
        return {"wall": wall, "cpu": cpu, "scale": calibrate.REFERENCE_S / ((before + after) / 2)}

    def setup(self) -> float:
        """One set-up; its time in reference seconds."""
        m = self.measure(self.wl.setup)
        return m["wall"] * m["scale"]

    def round(self, with_setup: bool = False) -> dict:
        """One job (optionally preceded by one set-up); the outputs are kept
        for checking when they differ from every earlier round's."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        self.wl.failed_calls = set()
        setup_s = self.setup() if with_setup else 0.0
        result = self.measure(lambda: self.wl.job(out))
        digest = workloads.digest_tree(out)
        if digest in self.kept:
            shutil.rmtree(out)
        else:
            self.kept[digest] = out.rename(self.work / f"kept-{len(self.kept)}")
        result.update(setup=setup_s, digest=digest, failed_calls=set(self.wl.failed_calls))
        self.rounds.append(result)
        return result

    def outcome(self) -> tuple[int, int]:
        """(attempted, failed) operations over all rounds, after checking
        each distinct output once."""
        failures = {digest: self.wl.check(path) for digest, path in self.kept.items()}
        failed = sum(len((failures[r["digest"]] | r["failed_calls"]) & self.input_ids) for r in self.rounds)
        return self.docs * len(self.rounds), failed


def timed_run(runner: Runner, seconds: float) -> dict:
    setups = [runner.setup() for _ in range(SETUP_REPEATS)]
    started = time.perf_counter()
    while not runner.rounds or time.perf_counter() - started < seconds:
        runner.round()
    peak = peak_rss_mb()
    rounds = runner.rounds
    return {
        "mb_per_s": statistics.median(runner.mb / (r["wall"] * r["scale"]) for r in rounds),
        "docs_per_s": statistics.median(runner.docs / (r["wall"] * r["scale"]) for r in rounds),
        "cpu_s_per_mb": statistics.median(r["cpu"] * r["scale"] / runner.mb for r in rounds),
        "peak_rss_mb": peak,
        "setup_s": statistics.median(setups),
    }


def traced_run(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Untraced rounds (set-up + job) for half the time, as the reference,
    then traced rounds for the other half."""
    import numpy as np

    import spans

    untraced = []
    started = time.perf_counter()
    while not untraced or time.perf_counter() - started < seconds / 2:
        untraced.append(runner.round(with_setup=True))
    tracer = spans.Tracer(runner.work / "worker-spans")
    spans.install(tracer)
    names = tracer.names
    totals = {key: np.zeros(len(names)) for key in ("self", "calls", "bytes")}
    tables, traced = [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds / 2:
        result = runner.round(with_setup=True)
        traced.append(result)
        table = tracer.collect()
        # set-up spans are scaled by the job's factor; both are seconds apart
        own = spans.self_seconds(table) * result["scale"]
        np.add.at(totals["self"], table["name_id"], own)
        np.add.at(totals["calls"], table["name_id"], 1)
        np.add.at(totals["bytes"], table["name_id"], table["nbytes"])
        table["round"] = np.full(len(own), len(tables), dtype=np.int64)
        table["scale"] = np.full(len(own), result["scale"])
        tables.append(table)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    merged = {key: np.concatenate([t[key] for t in tables]) for key in tables[0]}
    np.savez_compressed(spans_path, names=np.array(names), **merged)

    n = len(traced)
    metrics = {}
    for i, layer in enumerate(names):
        if layer in spans.WORKER_TASKS:
            continue
        metrics[f"{layer}.s"] = totals["self"][i] / n
        metrics[f"{layer}.calls"] = totals["calls"][i] / n
        metrics[f"{layer}.mb_per_s"] = totals["bytes"][i] / 1e6 / totals["self"][i] if totals["self"][i] else 0.0

    def round_s(r: dict) -> float:
        return r["setup"] + r["wall"] * r["scale"]

    metrics["pipeline.parallel_efficiency"] = statistics.median(r["cpu"] / (r["wall"] * runner.wl.workers) for r in untraced)
    metrics["trace.round_s"] = statistics.median(round_s(r) for r in traced)
    metrics["trace.untraced_round_s"] = statistics.median(round_s(r) for r in untraced)
    metrics["trace.overhead_ratio"] = metrics["trace.round_s"] / metrics["trace.untraced_round_s"]
    return metrics


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_one(args, spec: dict) -> dict:
    import_program()
    base = ROOT / ".perfbench"
    work = base / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, args.scale, work)
        if args.trace:
            values = traced_run(runner, args.seconds, base / "spans" / f"{args.workload}.npz")
            wanted = spec["per_layer"]
        else:
            values = timed_run(runner, args.seconds)
            wanted = spec["end_to_end"]
        attempted, failed = runner.outcome()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = machine_info() | {
        "workload": args.workload,
        "seed": args.seed,
        "documents": runner.docs,
        "text_bytes": runner.text_bytes,
        "rounds": len(runner.rounds),
        "workers": runner.wl.workers,
    }
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    print("# round_wall_s=" + ",".join(f"{r['wall']:.4f}" for r in runner.rounds))
    print("# round_cpu_s=" + ",".join(f"{r['cpu']:.4f}" for r in runner.rounds))
    print("# round_scale=" + ",".join(f"{r['scale']:.4f}" for r in runner.rounds))
    metrics = {}
    for metric in wanted:
        value = float(values[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:52s} {value:14.6g} {metric['unit']}")
    print(f"operations attempted={attempted} failed={failed}")
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload, one after another, each in a process of its own so
    that peak memory is per workload."""
    results = {}
    for name in [w["name"] for w in load_spec()["workloads"]]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", str(args.scale)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="corpuskit benchmark")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus size factor (the smoke run uses a small one)")
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        result = run_all(args)
    elif args.workload in names:
        result = run_one(args, spec)
    else:
        fail(f"unknown workload {args.workload!r}; choose one of {names} or 'all'")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
