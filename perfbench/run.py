"""Benchmark of the ``shufflealg`` CLI: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload action-verify --seed 1 --seconds 35 --trace 0

Jobs run one after another, each in a fresh interpreter that imports
``shufflealg`` from this checkout's ``src/`` (closed loop, one client).  The
untraced run (``--trace 0``) reports the end-to-end metrics; the traced run
(``--trace 1``) alternates untraced and traced passes and reports the
per-layer metrics of a traced pass.  End-to-end times are scaled by the
speed probe ``probe.py`` to seconds of a reference machine.  Every job's output is checked; a
wrong answer, a wrong exit code, a crash or a timeout counts as a failed job
and the pass goes on.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record (per-job digests, environment) is written under
``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs as J  # noqa: E402
import probe as P  # noqa: E402
import tracer as T  # noqa: E402

HASH_SEED = "0"
SETUP_LAUNCHES = 30
# Launches of ``import shufflealg.cli`` between two probes.
SETUP_LAUNCHES_PER_PROBE = 3
# Job wall time after which the next probe runs.
PROBE_EVERY_S = 1.0
# The probe's wall and CPU time on the reference machine: a 2-vCPU KVM guest
# (Intel Xeon, Python 3.11.7) at a quiet moment.  Reported times are in
# seconds of that machine.
PROBE_WALL_S = 0.19
PROBE_CPU_S = 0.19
LAUNCH = "import sys; from shufflealg.cli import main; sys.exit(main())"
INFO = """\
import json, platform, shufflealg, shufflealg.cli
try:
    import numpy
    numpy_version = numpy.__version__
except ImportError:
    numpy_version = None
print(json.dumps({"shufflealg": shufflealg.__file__, "python": platform.python_version(), "numpy": numpy_version}))
"""


class SetupError(Exception):
    """The checkout cannot be measured; no result is printed."""


@dataclass
class Outcome:
    job_id: str
    code: int | None
    wall_s: float
    cpu_s: float
    rss_mb: float
    sha256: str
    error: str | None


class Bench:
    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        if not (self.src / "shufflealg" / "cli.py").is_file():
            raise SetupError(f"no shufflealg sources under {self.src}")
        self.work = root / ".perfbench_work"
        (self.work / "out").mkdir(parents=True, exist_ok=True)
        (self.work / "trace").mkdir(exist_ok=True)
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env.update(PYTHONPATH=str(self.src), PYTHONHASHSEED=HASH_SEED)
        self.env = env

    def python(self, *args: str) -> list[str]:
        return [sys.executable, "-s", *args]

    def spawn(self, job_id: str, cmd: list[str], timeout_s: float) -> tuple[Outcome, str]:
        """Run one process to completion with its own rusage; kill it at the timeout."""
        out_path = self.work / "out" / f"{job_id}.stdout"
        err_path = self.work / "out" / f"{job_id}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            timed_out = threading.Event()
            lock = threading.Lock()
            reaped = False

            def kill():
                with lock:
                    if not reaped:
                        timed_out.set()
                        os.kill(proc.pid, 9)

            timer = threading.Timer(timeout_s, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                with lock:
                    reaped = True
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        error = None
        if timed_out.is_set():
            error = f"timed out after {timeout_s:g} s"
        elif proc.returncode < 0:
            error = f"killed by signal {-proc.returncode}"
        outcome = Outcome(
            job_id=job_id,
            code=None if error else proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            sha256=hashlib.sha256(stdout).hexdigest(),
            error=error,
        )
        return outcome, stdout.decode("utf-8", errors="replace")

    def run_job(self, job: J.Job, trace_path: Path | None = None) -> Outcome:
        if job.command is not None:
            cmd = job.command
        elif trace_path is None:
            cmd = self.python("-c", LAUNCH, *job.argv)
        else:
            cmd = self.python(str(HERE / "tracer.py"), "--job-id", job.job_id,
                              "--out", str(trace_path), "--", *job.argv)
        timeout = job.timeout_s * (3 if trace_path is not None else 1)
        outcome, stdout = self.spawn(job.job_id, cmd, timeout)
        if outcome.error is None:
            try:
                outcome.error = job.check(outcome.code, stdout)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                outcome.error = f"unreadable output: {type(exc).__name__}: {exc}"
        return outcome

    def run_pass(self, jobs: list[J.Job], traced: bool = False) -> tuple[float, list[Outcome]]:
        """All jobs once, in order; returns the pass wall time and the outcomes."""
        outcomes = []
        t0 = time.perf_counter()
        for job in jobs:
            trace_path = self.work / "trace" / f"{job.job_id}.json" if traced else None
            if trace_path is not None and trace_path.exists():
                trace_path.unlink()
            outcomes.append(self.run_job(job, trace_path))
        return time.perf_counter() - t0, outcomes

    def environment(self) -> dict:
        """Untimed warm-up launch; writes the bytecode caches and reports versions."""
        proc = subprocess.run(self.python("-c", INFO), env=self.env, cwd=self.work,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"cannot import shufflealg.cli from {self.src}: {proc.stderr.strip()}")
        info = json.loads(proc.stdout)
        if not Path(info["shufflealg"]).resolve().is_relative_to(self.src.resolve()):
            raise SetupError(f"shufflealg resolves to {info['shufflealg']}, not to {self.src}")
        info.update(commit=self.commit(), src_sha256=self.src_digest(),
                    nproc=len(os.sched_getaffinity(0)), pythonhashseed=HASH_SEED)
        return info

    def commit(self) -> str | None:
        if not (self.root / ".git").exists():
            return None
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root,
                                  capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    def src_digest(self) -> str:
        digest = hashlib.sha256()
        for path in sorted((self.src / "shufflealg").rglob("*.py")):
            digest.update(str(path.relative_to(self.src)).encode() + b"\0" + path.read_bytes())
        return digest.hexdigest()

    def probe(self) -> tuple[float, float]:
        """Wall and CPU time of one run of ``probe.py``."""
        outcome, stdout = self.spawn("probe", self.python(str(HERE / "probe.py")), 60)
        if outcome.error or outcome.code != 0 or json.loads(stdout) != P.CHECKSUM:
            raise SetupError(f"the speed probe failed: {outcome.error or stdout.strip()}")
        return outcome.wall_s, outcome.cpu_s

    def setup_seconds(self) -> tuple[float, float]:
        """Median time of fresh interpreters that import shufflealg.cli, in
        reference seconds, and the same median as measured."""
        scaled, raw = [], []
        before = self.probe()
        for i in range(0, SETUP_LAUNCHES, SETUP_LAUNCHES_PER_PROBE):
            walls = []
            for j in range(i, min(i + SETUP_LAUNCHES_PER_PROBE, SETUP_LAUNCHES)):
                outcome, _ = self.spawn(f"setup-{j}", self.python("-c", "import shufflealg.cli"), 60)
                if outcome.error or outcome.code != 0:
                    raise SetupError("import shufflealg.cli failed")
                walls.append(outcome.wall_s)
            after = self.probe()
            wall_scale, _ = speed_scales(before, after)
            scaled += [w * wall_scale for w in walls]
            raw += walls
            before = after
        return statistics.median(scaled), statistics.median(raw)

    def write_inputs(self, workload: str) -> None:
        for name, payload in J.presentation_files(workload).items():
            with open(self.work / name, "w") as fh:
                json.dump(payload, fh, indent=1)


def speed_scales(before: tuple[float, float], after: tuple[float, float]) -> tuple[float, float]:
    """Factors that turn wall and CPU time measured between two probes into
    reference seconds."""
    return (2 * PROBE_WALL_S / (before[0] + after[0]),
            2 * PROBE_CPU_S / (before[1] + after[1]))


def probed_pass(bench: Bench, jobs: list[J.Job]) -> tuple[list[Outcome], list[tuple[float, float]]]:
    """All jobs once, in order, with a probe before the first job, after the
    last, and after every ``PROBE_EVERY_S`` of jobs.  Returns the outcomes and
    each job's wall and CPU time in reference seconds."""
    outcomes, scaled, pending = [], [], []
    before = bench.probe()
    for i, job in enumerate(jobs):
        outcome = bench.run_job(job)
        outcomes.append(outcome)
        pending.append(outcome)
        if sum(o.wall_s for o in pending) >= PROBE_EVERY_S or i == len(jobs) - 1:
            after = bench.probe()
            wall_scale, cpu_scale = speed_scales(before, after)
            scaled += [(o.wall_s * wall_scale, o.cpu_s * cpu_scale) for o in pending]
            pending, before = [], after
    return outcomes, scaled


def measure(bench: Bench, jobs: list[J.Job], seconds: float) -> tuple[dict, dict, list[Outcome]]:
    """Untraced passes until the next one would overrun ``seconds`` (at least one).

    On a shared machine the cores run at up to a third below their speed for
    seconds to minutes at a time while neighbours are busy, and every job
    slows alike, the startup-bound ones too.  So each job's time is taken
    relative to ``probe.py``, a fixed pure-Python program run just before
    and just after it, and scaled to reference seconds (``PROBE_WALL_S``);
    the metrics are medians over the passes.  Successive passes run on
    successive cores, each with its own probes, still one job at a time.
    Returns the metrics, the same figures as measured (unscaled), and every
    outcome.
    """
    passes = []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        while True:
            # children inherit the affinity
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            t0 = time.perf_counter()
            passes.append(probed_pass(bench, jobs))
            wall = time.perf_counter() - t0
            if time.perf_counter() - start + wall > seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    metrics = {
        "wall_s": statistics.median(sum(w for w, _ in scaled) for _, scaled in passes),
        "cpu_s": statistics.median(sum(c for _, c in scaled) for _, scaled in passes),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in outs) for outs, _ in passes),
    }
    raw = {
        "wall_s": statistics.median(sum(o.wall_s for o in outs) for outs, _ in passes),
        "cpu_s": statistics.median(sum(o.cpu_s for o in outs) for outs, _ in passes),
    }
    return metrics, raw, [o for outs, _ in passes for o in outs]


def traced_metrics(bench: Bench, jobs: list[J.Job], seconds: float) -> tuple[dict, list[Outcome]]:
    """Pairs of an untraced and a traced pass until the next pair would overrun
    ``seconds`` (at least one); per-layer metrics are per traced pass."""
    records, outcomes = [], []
    base_wall = traced_wall = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        wall, base = bench.run_pass(jobs)
        twall, traced = bench.run_pass(jobs, traced=True)
        for job in jobs:
            path = bench.work / "trace" / f"{job.job_id}.json"
            if path.exists():
                with open(path) as fh:
                    records.append(json.load(fh))
        outcomes += base + traced
        base_wall += wall
        traced_wall += twall
        passes += 1
        if time.perf_counter() - start + wall + twall > seconds:
            break
    layers = T.per_layer_metrics(T.merge(records, passes), traced_wall / base_wall)
    return layers, outcomes


UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the shufflealg CLI benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(J.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench = Bench(Path.cwd())
        env_info = bench.environment()
        bench.write_inputs(args.workload)
        jobs = J.build_jobs(args.workload, args.seed, str(bench.work))
        raw: dict = {}
        if args.trace:
            layers, outcomes = traced_metrics(bench, jobs, args.seconds)
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        else:
            setup_s, raw_setup_s = bench.setup_seconds()
            e2e, raw, outcomes = measure(bench, jobs, args.seconds)
            e2e["setup_s"] = setup_s
            raw["setup_s"] = raw_setup_s
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in UNITS.items()}
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failed = [o for o in outcomes if o.error is not None]
    print("environment: " + json.dumps(env_info))
    by_job: dict[str, list[Outcome]] = {}
    for o in outcomes:
        by_job.setdefault(o.job_id, []).append(o)
    for job_id, runs in by_job.items():
        errors = [o.error for o in runs if o.error is not None]
        status = "ok" if not errors else f"{len(errors)} FAILED: {errors[0]}"
        digests = ",".join(sorted({o.sha256[:16] for o in runs}))
        print(f"{job_id:24s} runs={len(runs):<3d} median wall={statistics.median(o.wall_s for o in runs):.3f}s "
              f"rss={max(o.rss_mb for o in runs):.1f}MB sha256={digests} {status}")
    fail_frac = len(failed) / len(outcomes)
    for name, metric in metrics.items():
        as_measured = f"  (as measured: {raw[name]:.6g})" if name in raw else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{as_measured}")
    print(f"fail_frac = {fail_frac:.6g} fraction ({len(failed)}/{len(outcomes)} jobs)")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env_info,
        "jobs": [{**vars(o), "argv": job.argv, "size": job.size}
                 for o, job in zip(outcomes, jobs * (len(outcomes) // len(jobs)))],
        "metrics": metrics,
        "as_measured": raw,
        "fail_frac": fail_frac,
    }
    result_path = bench.work / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"record: {result_path.relative_to(bench.root)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
