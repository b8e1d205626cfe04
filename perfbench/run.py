#!/usr/bin/env python3
"""toricalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 40 --trace 0

Runs from the root of a checkout and imports the package from its
``src/``. The inputs are generated from the seed with the clock stopped.
One caller runs the jobs in a closed loop (the next job starts when the
previous one returns) for ``--seconds`` and at least MIN_JOBS jobs. Outputs
are checked afterwards, outside the timed region.

Times are scaled to a fixed machine speed. A calibration loop that does not
touch toricalc runs between jobs about every CAL_EVERY seconds, and each
job's wall and CPU time is multiplied by REF_CAL_S over the calibration
time measured around it. On a shared host whose speed drifts by a third
over tens of seconds, this keeps the figures of the same code steady while
any change in the package's own cost shows in full.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` each of a fixed number of jobs runs twice, untraced and
with every public function of the package wrapped; the last line carries
the per-layer metrics, and the spans go to ``perfbench/out/``.
The lines before the last are a human-readable account: sample counts,
failures by exception class, and the layer shares.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ring", "semistability", "cli")
MIN_JOBS = 100
SETUP_PROBES = 11
# Job seconds between two calibration samples; the number of samples on
# each side of a stretch of jobs whose median sets its speed (about 2 s, far
# shorter than the host's slow spells); and the calibration time (wall and
# CPU) of one sample at the reference speed the figures are scaled to: the
# median on a 2-vCPU x86-64 VM with Python 3.11.
CAL_EVERY = 0.2
CAL_SPAN = 10
REF_CAL_S = 0.006
RECENT = 32
REFERENCE = HERE / "reference.json"
# Jobs per committed seed whose output digests are recorded: all of a ring
# run and the first third or so of the others. Every job also gets its
# invariant checks.
REFERENCE_JOBS = {"ring": 800, "semistability": 3000, "cli": 3000}


def load_package() -> None:
    """Import toricalc from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import toricalc
    except ImportError as e:
        raise SystemExit(f"cannot import toricalc from {src}: {e}") from None
    if not Path(toricalc.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"toricalc was imported from {toricalc.__file__}, not from {src}")


def run_one(job):
    try:
        return "ok", job.run()
    except job.expected as e:
        return "error", type(e).__name__
    except Exception as e:  # a failed job, reported by class
        return "fail", type(e).__name__


def _calibration_unit():
    """A fixed piece of pure-Python work of the kind toricalc does (small
    integer tuples, gcds, Fractions, a dict), independent of the package."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 61):
        v = tuple((i * j) % 17 - 8 for j in range(1, 7))
        g = 0
        for x in v:
            g = math.gcd(g, x)
        seen[v] = g
        acc += Fraction(sum(v), i + 1)
    return acc, len(seen)


def calibrate() -> tuple[float, float]:
    """(wall, CPU) seconds of one calibration sample, about REF_CAL_S. The
    garbage collector is off meanwhile, so the size of the package's heap
    cannot slow the sample down."""
    gc.disable()
    t0, c0 = time.perf_counter(), time.process_time()
    for _ in range(16):
        _calibration_unit()
    t1, c1 = time.perf_counter(), time.process_time()
    gc.enable()
    return t1 - t0, c1 - c0


def speed_factors(samples: list[tuple[float, float]], k: int) -> tuple[float, float]:
    """(wall, CPU) scale factors for the jobs between samples k and k + 1:
    REF_CAL_S over the median of the CAL_SPAN samples on either side. A
    median, because a single sample (6 ms) is often stretched by the host
    taking the core away for a few ms, while the jobs' own wall time
    already carries such stalls."""
    near = samples[max(0, k + 1 - CAL_SPAN):k + 1 + CAL_SPAN]
    return (REF_CAL_S / statistics.median(w for w, _ in near),
            REF_CAL_S / statistics.median(c for _, c in near))


def timed_phase(stream, seconds: float, verdict):
    """Run jobs 0, 1, 2, ... back to back until ``seconds`` have passed and
    at least MIN_JOBS jobs have finished, with a calibration sample before
    the first job, after the last, and after every CAL_EVERY seconds of
    jobs in between.

    Only the jobs themselves are timed. Between two jobs, with the clocks
    stopped, the outcome is judged and the job is dropped, and a new chunk
    of inputs is generated when needed; so memory does not grow with the
    number of jobs run. Returns (scaled latencies, scaled CPU times, raw wall
    seconds, raw CPU seconds, calibration samples).
    """
    clock, cpu = time.perf_counter, time.process_time
    samples = [calibrate()]
    raw, raw_cpu, window = [], [], []
    since = 0.0
    i = 0
    deadline = clock() + seconds
    while clock() < deadline or i < MIN_JOBS:
        if i == len(stream.jobs):
            stream.grow()
        job = stream.jobs[i]
        t0, c0 = clock(), cpu()
        outcome = run_one(job)
        t1, c1 = clock(), cpu()
        raw.append(t1 - t0)
        raw_cpu.append(c1 - c0)
        window.append(len(samples) - 1)
        since += t1 - t0
        verdict.judge(i, job, outcome)
        stream.jobs[i] = None
        i += 1
        if since >= CAL_EVERY:
            samples.append(calibrate())
            since = 0.0
    samples.append(calibrate())
    factors = [speed_factors(samples, k) for k in range(len(samples) - 1)]
    latencies = [t * factors[k][0] for t, k in zip(raw, window)]
    cpu_times = [t * factors[k][1] for t, k in zip(raw_cpu, window)]
    return latencies, cpu_times, sum(raw), sum(raw_cpu), samples


def digest(job, outcome) -> str | None:
    status, value = outcome
    if status == "fail":
        return None
    canon = job.canon(value) if status == "ok" else {"error": value}
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


class Verdict:
    """Outcome checks for one run: failures by class and wrong outputs.

    A job fails when it raises something other than its documented errors,
    or when its output disagrees with the reference digest or with its
    independent-route invariant.
    """

    def __init__(self, reference: list[str | None]):
        self.reference = reference
        self.failed_by_class: Counter = Counter()
        self.wrong: list[str] = []
        self.attempted = 0
        self.reference_checked = 0
        # Outcomes of the last few jobs, for checks against a sibling job.
        self.recent: dict[int, tuple] = {}

    @property
    def failed(self) -> int:
        return sum(self.failed_by_class.values())

    def judge(self, i: int, job, outcome) -> None:
        self.attempted += 1
        self.recent[i] = outcome
        self.recent.pop(i - RECENT, None)
        if outcome[0] == "fail":
            self.failed_by_class[outcome[1]] += 1
            return
        problem = self._problem(i, job, outcome)
        if problem is not None:
            self.failed_by_class["WrongOutput"] += 1
            self.wrong.append(f"job {i} ({job.kind}): {problem}")

    def _problem(self, i, job, outcome) -> str | None:
        ref = self.reference[i] if i < len(self.reference) else None
        if ref is not None:
            self.reference_checked += 1
            d = digest(job, outcome)
            if d != ref:
                return f"output digest {d} != reference {ref}"
        if outcome[0] == "ok" and job.check is not None:
            return job.check(outcome[1], self.recent)
        return None


def load_reference(workload: str, seed: int) -> list[str | None]:
    """Recorded digests of the seed's first jobs; empty for other seeds."""
    if not REFERENCE.exists():
        return []
    text = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed), "")
    return [None if d == "-" else d for d in text.split()]


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import toricalc and build the
    workload's first chunk of inputs, each scaled by REF_CAL_S over the
    mean of the calibration samples just before and after it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    before = calibrate()[0]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        after = calibrate()[0]
        times.append(elapsed * 2 * REF_CAL_S / (before + after))
        before = after
    return times


def known_defect() -> str:
    """Outcome of the known-defect probe (workloads.KNOWN_DEFECT)."""
    import workloads

    name, call = workloads.KNOWN_DEFECT
    try:
        call()
    except Exception as e:
        return f"known defect still present: {name} raises {type(e).__name__} (kept out of the workloads)"
    return f"known defect fixed: {name} no longer raises on its probe input"


def report(verdict: Verdict, metrics: dict, lines: list[str]) -> None:
    for line in lines:
        print(line)
    if verdict.failed_by_class:
        print("failed jobs by class: " + ", ".join(f"{k} {v}" for k, v in sorted(verdict.failed_by_class.items())))
    for problem in verdict.wrong[:20]:
        print("wrong output: " + problem)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not verdict.wrong,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def end_to_end(args, stream) -> None:
    setup = setup_seconds(args.workload, args.seed)
    verdict = Verdict(load_reference(args.workload, args.seed))
    kinds = Counter(job.kind for job in stream.jobs)
    latencies, cpu_times, wall, cpu, samples = timed_phase(stream, args.seconds, verdict)
    n = len(latencies)
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (n / sum(latencies), "1/s"),
        "job_p50_ms": (deciles[4] * 1000, "ms"),
        "job_p90_ms": (deciles[8] * 1000, "ms"),
        "cpu_ms_per_job": (sum(cpu_times) / n * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beyond = sum(1 for x in latencies if x > deciles[8])
    cal = sorted(w for w, _ in samples)
    report(verdict, metrics, [
        f"workload {args.workload} seed {args.seed}: {n} jobs in {wall:.3f} s ({cpu:.3f} s CPU) unscaled, "
        f"{n / wall:.2f} jobs/s unscaled; closed loop, one caller",
        f"calibration samples {len(cal)}: min {cal[0] * 1000:.3f} median {statistics.median(cal) * 1000:.3f} "
        f"max {cal[-1] * 1000:.3f} ms (reference {REF_CAL_S * 1000:.3f} ms)",
        "first chunk by kind: " + ", ".join(f"{k} {v}" for k, v in sorted(kinds.items())),
        f"latency samples {n}, {beyond} beyond p90; setup samples {SETUP_PROBES}: " + " ".join(f"{t:.3f}" for t in setup),
        f"failed_frac {verdict.failed / n:.4f} ({verdict.failed}/{n}); "
        f"{verdict.reference_checked} outputs matched against reference digests",
        known_defect(),
    ])


def traced(args, stream) -> None:
    import workloads
    from tracer import Tracer, dominance, layer_metrics

    count = workloads.TRACE_JOBS[args.workload]
    while len(stream.jobs) < count:
        stream.grow()
    tracer = Tracer()
    verdict = Verdict(load_reference(args.workload, args.seed))
    wall = {False: 0.0, True: 0.0}
    for i, job in enumerate(stream.jobs[:count]):
        # Each job runs untraced and traced back to back, in alternating
        # order, so that both runs see the same machine speed.
        outcome = {}
        for on in (False, True) if i % 2 == 0 else (True, False):
            if on:
                tracer.begin_job(i)
                tracer.install()
            t0 = time.perf_counter()
            outcome[on] = run_one(job)
            wall[on] += time.perf_counter() - t0
            if on:
                tracer.uninstall()
        verdict.judge(i, job, outcome[False])
        if outcome[True][0] != outcome[False][0] or digest(job, outcome[True]) != digest(job, outcome[False]):
            verdict.wrong.append(f"job {i} ({job.kind}) changed under tracing")
    metrics = layer_metrics(tracer, wall[True], count)
    metrics["trace.overhead_frac"] = (wall[True] / wall[False] - 1, "ratio")
    spans = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(spans)
    report(verdict, metrics, [
        f"workload {args.workload} seed {args.seed}: {count} jobs, untraced {wall[False]:.3f} s, traced {wall[True]:.3f} s",
        f"{len(tracer.start)} spans written to {spans.relative_to(ROOT)}",
        *dominance(args.workload, metrics),
        known_defect(),
    ])


def record_reference(args, workloads) -> None:
    """Store the output digests of the first REFERENCE_JOBS jobs of each
    listed seed ("-" where the job failed)."""
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for seed in args.record:
        stream = workloads.JobStream(args.workload, seed)
        while len(stream.jobs) < REFERENCE_JOBS[args.workload]:
            stream.grow()
        digests = [digest(job, run_one(job)) or "-" for job in stream.jobs[:REFERENCE_JOBS[args.workload]]]
        data.setdefault(args.workload, {})[str(seed)] = " ".join(digests)
        print(f"{args.workload} seed {seed}: {len(digests)} digests", file=sys.stderr)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record", type=int, nargs="+", metavar="SEED",
                    help="record reference digests for these seeds at the current commit, then exit")
    args = ap.parse_args()
    load_package()
    import workloads

    if args.record:
        record_reference(args, workloads)
        return 0
    stream = workloads.JobStream(args.workload, args.seed)
    if not args.setup_probe:
        (traced if args.trace else end_to_end)(args, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
