"""Run sigma2lab's benchmark workloads and print their metrics.

Usage, from the repository root:

    python3 perfbench/run.py                       # every workload, summary table
    python3 perfbench/run.py --workload classify --seed 7 --seconds 40 --trace 0

One run builds its workload's task list from --seed, then repeats whole
passes over it, one task at a time, for about --seconds. With --trace 0
it reports the end-to-end metrics:

  setup_s      median over fresh interpreters of the time from spawn to
               the first timed task (imports, input generation, expected
               answers)
  tasks_per_s  tasks in the list over the sum of their latencies
  task_p50_s   median and 90th percentile of the per-task latencies; a
  task_p90_s   task's latency is the lower median of its runs in this
               measurement. On a shared machine whole stretches of a run
               go faster or slower than usual, so a task's fastest run
               depends on whether the run caught a fast stretch, while
               its median run repeats from run to run; the lower median
               of two runs is the faster one, so one slow spike does not
               count. Tasks over twice the first pass's p90 run in every
               fifth pass only, so the rest get more runs each
  peak_rss_mb  peak resident memory of the process doing the work (for
               cli-cold, the largest CLI process)

With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead. Every output is checked; a task that raises, exits with an
unexpected code or disagrees with its expected answer counts as failed.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A full record of the run goes to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.paths import PACKAGE, ROOT, use_checkout_source  # noqa: E402

SETUP_PROBES = 5  # fresh interpreters timed for setup_s; the median is reported
IMPORT_PROBES = 5  # fresh interpreters timed for cli.import_s
MIN_PASSES = 2  # traced runs compare at least two untraced and two traced passes
TAIL_FACTOR = 2.0  # a task slower than this times the first pass's p90 is in the tail
TAIL_EVERY = 5  # tail tasks run in every fifth pass only; odd, so full passes take turns on two CPUs
HARD_LIMIT_S = 140.0  # stop starting passes after this, whatever else holds
OUT_DIR = ROOT / ".perfbench"


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    latencies: dict[int, float] = field(default_factory=dict)  # task index -> seconds, checked tasks only
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0  # time inside task calls, checks excluded
    failures: list[str] = field(default_factory=list)


def run_pass(tasks, skip=frozenset()) -> PassResult:
    """One closed-loop pass: each task starts when the previous one returned."""
    res = PassResult()
    for idx, task in enumerate(tasks):
        if idx in skip:
            continue
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # a task that raises is a failed task, not a crash
            res.busy_s += time.perf_counter() - t0
            res.failed += 1
            res.failures.append(f"{task.label}: {type(exc).__name__}: {exc}")
            continue
        dt = time.perf_counter() - t0
        res.busy_s += dt
        try:
            task.check(out)
        except Exception as exc:
            res.failed += 1
            res.failures.append(f"{task.label}: check: {type(exc).__name__}: {exc}")
            continue
        res.latencies[idx] = dt
    return res


def p90(samples: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and how many samples lie above it."""
    ordered = sorted(samples)
    idx = max(0, -(-9 * len(ordered) // 10) - 1)
    value = ordered[idx]
    return value, sum(1 for s in ordered if s > value)


def keep_going(done: int, elapsed: float, seconds: float, next_s: float, min_passes: int = MIN_PASSES) -> bool:
    """Another pass, of about next_s, while it ends nearer to --seconds than stopping now would."""
    if elapsed >= HARD_LIMIT_S:
        return False
    if done < min_passes:
        return True
    return elapsed + next_s / 2 < seconds


def median_latencies(passes: list[PassResult]) -> list[float]:
    """Each task's lower median checked run across the passes."""
    runs: dict[int, list[float]] = {}
    for p in passes:
        for idx, t in p.latencies.items():
            runs.setdefault(idx, []).append(t)
    return [statistics.median_low(ts) for ts in runs.values()]


# ---------------------------------------------------------------------------
# fresh-interpreter probes


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first timed task."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe for {workload} failed with exit code {proc.returncode}")
    return elapsed


def import_probe() -> float:
    """Import time of sigma2lab.cli in a fresh interpreter."""
    from perfbench.workloads import cli_env

    code = "import time; t = time.perf_counter(); import sigma2lab.cli; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], stdin=subprocess.DEVNULL, capture_output=True, check=True, cwd=ROOT, env=cli_env()
    )
    return float(out.stdout)


# ---------------------------------------------------------------------------
# stamps


def _loadavg() -> list[float]:
    try:
        return list(os.getloadavg())
    except OSError:
        return []


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamps() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# one workload


def measure_end_to_end(wl, seed: int, seconds: float) -> tuple[dict, list[PassResult], dict]:
    setups = [setup_probe(wl.name, seed) for _ in range(SETUP_PROBES)]
    passes: list[PassResult] = []
    tail: set[int] = set()
    wall = {True: [], False: []}  # pass durations, full passes and tail-less ones
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    while True:
        # tail tasks sit out four passes in five: they cannot decide p50 or
        # p90, and the tasks that do then get more runs each
        full = len(passes) % TAIL_EVERY == 0
        # a shared host slows one CPU at a time, so the passes take turns
        # on each CPU this process may use and every task runs on each
        os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        t0 = time.perf_counter()
        try:
            passes.append(run_pass(wl.tasks, skip=frozenset() if full else tail))
        finally:
            os.sched_setaffinity(0, cpus)
        wall[full].append(time.perf_counter() - t0)
        if len(passes) == 1 and passes[0].latencies:
            cut = TAIL_FACTOR * p90(list(passes[0].latencies.values()))[0]
            tail = {i for i, t in passes[0].latencies.items() if t > cut}
        full = len(passes) % TAIL_EVERY == 0
        # the next pass's length: the last one of its kind, else the first
        # pass less its tail tasks
        next_s = wall[full][-1] if wall[full] else wall[True][0] - sum(passes[0].latencies[i] for i in tail)
        if not keep_going(len(passes), time.perf_counter() - start, seconds, next_s, 1):
            break
    latencies = median_latencies(passes)
    if wl.peak_rss_mb is not None:
        rss = wl.peak_rss_mb()
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail_s, above = p90(latencies) if latencies else (0.0, 0)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (len(latencies) / sum(latencies) if latencies else 0.0, "1/s"),
        "task_p50_s": (statistics.median(latencies) if latencies else 0.0, "s"),
        "task_p90_s": (tail_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {
        "setup_samples_s": setups,
        "pass_s": [p.busy_s for p in passes],
        "p90_samples": len(latencies),
        "p90_samples_above": above,
    }
    return metrics, passes, extra


def measure_traced(wl, seconds: float) -> tuple[dict, list[PassResult], dict]:
    from perfbench import tracing

    tasks = wl.traced_tasks or wl.tasks
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    per_pass: list[dict] = []
    last = None
    start = time.perf_counter()
    while True:
        plain.append(run_pass(tasks))
        rec = tracing.Recorder(clock=time.perf_counter)
        patches = tracing.install(rec)
        try:
            traced.append(run_pass(tasks))
        finally:
            tracing.uninstall(patches)
        per_pass.append(tracing.layer_metrics(rec))
        last = rec
        elapsed = time.perf_counter() - start
        if not keep_going(len(traced), elapsed, seconds, elapsed / len(traced)):
            break
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        raise RuntimeError(f"timers left installed: {leftovers}")
    # counts repeat exactly from pass to pass; times take the median pass
    metrics = {
        name: ((statistics.median_low if unit == "count" else statistics.median)(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    imports = [import_probe() for _ in range(IMPORT_PROBES)]
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    plain_s = statistics.median(p.busy_s for p in plain)
    traced_s = statistics.median(p.busy_s for p in traced)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_ratio"] = ((traced_s - plain_s) / plain_s, "ratio")
    extra = {"untraced_pass_s": [p.busy_s for p in plain], "traced_pass_s": [p.busy_s for p in traced]}
    _write_spans(wl.name, last)
    return metrics, plain + traced, extra


def _write_spans(workload: str, rec) -> None:
    """The last traced pass's spans: name, start, end, parent index (-1 for none)."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}.tsv"
    with path.open("w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\n")
        for name, start, end, parent in rec.spans():
            fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench.workloads import BUILDERS

    load_start = _loadavg()
    wl = BUILDERS[name](seed)
    if trace:
        metrics, passes, extra = measure_traced(wl, seconds)
    else:
        metrics, passes, extra = measure_end_to_end(wl, seed, seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tasks": len(wl.tasks),
        "task_list_sha256": wl.digest,
        "passes": len(passes),
        "failed_ratio": failed / attempted if attempted else 0.0,
        "failures": failures[:20],
        **extra,
        **stamps(),
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")

    for f in failures[:20]:
        print(f"FAILED {f}")
    for k, (v, u) in metrics.items():
        note = ""
        if k == "task_p90_s":
            note = f"  ({extra['p90_samples']} samples, {extra['p90_samples_above']} above)"
        elif k == "blockwords.position_sets":
            note = "  (computed from the arguments)"
        if v or not trace:
            print(f"{name:12s} {k:52s} {v:.6g} {u}{note}")
    print(f"{name:12s} {'failed_ratio':52s} {record['failed_ratio']:.6g} ({failed}/{attempted})")
    meta = {k: record[k] for k in ("seed", "tasks", "task_list_sha256", "passes", "nproc", "python", "commit", "loadavg_start", "loadavg_end")}
    print(f"{name:12s} meta {json.dumps(meta)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": record["metrics"]}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, then one combined line."""
    from perfbench.workloads import BUILDERS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in BUILDERS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        out = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, text=True, cwd=ROOT)
        lines = out.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(out.stderr)
        if out.returncode != 0 or not lines:
            print(f"{name}: exit code {out.returncode}")
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the workloads; all of them when left out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout_source()
    from perfbench.workloads import BUILDERS

    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(BUILDERS)}")
    if args.setup_only:
        BUILDERS[args.workload](args.seed)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
