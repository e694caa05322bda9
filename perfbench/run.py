#!/usr/bin/env python3
"""Benchmark of the dftr command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or `all` to run each in turn. Run it from
anywhere inside a checkout of the repository; it needs src/dftr and writes
only inside the checkout (outputs go to .perfbench/). Outside the checkout
it reads only /proc/cpuinfo and the cache sizes under /sys, for the
environment record.

Each sample is one fresh `python -m dftr.cli` process, as a user runs it, in
a closed loop with one client: the next sample starts when the previous one
has exited. Samples repeat for about S seconds (at least one), and every
sample's outputs are checked. Before the first sample and after each one,
the fixed calibration job (calib.py) is timed the same way, for about
CAL_SHARE of the sample's time. The reported times are CPU seconds (user
+ system) scaled by the workload's cal_ref_s over the calibrations' median
CPU seconds, which cancels the shared host's drift in speed. This process
and every process it starts run on one CPU, the last it may use. Before the
loop, set-up (a fresh interpreter importing dftr.cli and loading the
workload's INI) is timed SETUP_SAMPLES times.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the same untraced loop, then one traced run (tracing.py) and the kernel
microbenchmarks (kernels.py), and reports the per-layer metrics. Only
verify-fine takes the seed (its randomized dissipativity vectors);
simulate-ref and sweep-ref are deterministic and ignore it.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 5
# After each sample, calibrations run until they took this share of its wall
# time (at least one), so a long sample is paired with as long a reading of
# the machine's speed.
CAL_SHARE = 0.5
CHILD_TIMEOUT_S = 150.0
# the cells checks.SWEEP_N x checks.SWEEP_ALPHA, spelled out as the CLI defaults
SWEEP_ARGS = ("--n-list", "0.5,1,2,10", "--alpha-list", "0,0.25,0.5")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    seeded: bool
    threads: int  # busy threads of a run; calib.py runs its solves in as many
    # CPU seconds of `calib.py threads` on the baseline machine (2 vCPUs, see
    # baseline/), so that the scaled times read as seconds at its speed
    cal_ref_s: float


# Why each workload was chosen is in BENCHMARK.json and NOTES.md. The sweep
# runs its cells on a pool of os.cpu_count() threads (dftr.analysis.max_workers).
WORKLOADS = {w.name: w for w in (
    Workload("simulate-ref", "simulate", False, 1, 1.0),
    Workload("sweep-ref", "sweep", False, min(os.cpu_count() or 1, 12), 1.2),
    Workload("verify-fine", "verify", True, 1, 1.0),
)}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    problems: list
    info: dict


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, log_path: Path):
    """Run argv to exit; return (wall seconds from spawn to exit, the
    child's user + system CPU seconds, its peak RSS in MiB, exit code). A
    child past CHILD_TIMEOUT_S is killed."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
            if proc.returncode is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


class Runner:
    """Runs one workload's samples and checks their outputs.

    The checks run in a separate process (checks.py) that answers one output
    directory at a time, so this process, which spawns the timed runs, never
    loads numpy: a spawned child's peak RSS counts the memory its parent had
    at the fork. Use as a context manager; leaving it stops the checker.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.ini = HERE / "configs" / f"{workload.name}.ini"
        self.work = WORK / workload.name
        self.out = self.work / "out"
        self.work.mkdir(parents=True, exist_ok=True)
        self.passed = {}  # outputs that passed the checks, by content

    def __enter__(self):
        self.checker = subprocess.Popen(
            [sys.executable, str(HERE / "checks.py"), str(self.ini), self.workload.command],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self.checker.stdout.readline()  # ready: the checker's imports stay out of the timings
        return self

    def __exit__(self, *exc):
        self.checker.stdin.close()
        try:
            self.checker.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if self.checker.poll() is None:
                self.checker.kill()
                self.checker.wait()
            self.checker.stdout.close()

    def check(self) -> dict:
        """The checker's verdict on self.out. Outputs identical to ones
        that already passed (same CSV bytes and manifest hash) pass without
        being parsed again, so the checks take little of the run."""
        try:
            key = (json.loads((self.out / "manifest.json").read_text()).get("hash"),
                   tuple((p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                         for p in sorted(self.out.glob("*.csv"))))
        except (OSError, ValueError):
            key = None
        if key in self.passed:
            return self.passed[key]
        outcome = self._check()
        if key is not None and not outcome["problems"]:
            self.passed[key] = outcome
        return outcome

    def _check(self) -> dict:
        self.checker.stdin.write(f"{self.out}\n")
        self.checker.stdin.flush()
        line = self.checker.stdout.readline()
        if not line:
            raise RuntimeError(f"checks.py exited with code {self.checker.wait()}")
        return json.loads(line)

    def cli_args(self) -> list:
        args = [self.workload.command, "--config", str(self.ini), "--out", str(self.out)]
        if self.workload.command == "sweep":
            args += SWEEP_ARGS
        if self.workload.seeded:
            args += ["--seed", str(self.seed)]
        return args

    def setup_times(self) -> tuple:
        """(wall, CPU) seconds of SETUP_SAMPLES set-ups and the number that
        failed. The first spawn only warms the byte-code and file caches, as
        any earlier run would."""
        argv = [sys.executable, "-c",
                "import sys, dftr.cli; dftr.cli.load_config(sys.argv[1])", str(self.ini)]
        times, failed = [], 0
        for i in range(SETUP_SAMPLES + 1):
            wall, cpu, _, code = spawn(argv, self.work / "setup.log")
            failed += code != 0
            if i:
                times.append((wall, cpu))
        return times, failed

    def calibrate(self) -> tuple:
        """Wall and CPU seconds of one calib.py process, spawn to exit."""
        wall, cpu, _, code = spawn([sys.executable, str(HERE / "calib.py"),
                                    str(self.workload.threads)], self.work / "calib.log")
        if code != 0:
            raise RuntimeError(f"calib.py exited {code}; see {self.work / 'calib.log'}")
        return wall, cpu

    def sample(self, prefix) -> Sample:
        shutil.rmtree(self.out, ignore_errors=True)
        wall, cpu, rss, code = spawn(prefix + self.cli_args(), self.work / "cli.log")
        outcome = self.check()
        problems = ([] if code == 0 else [f"exit code {code}"]) + outcome["problems"]
        return Sample(wall, cpu, rss, code, problems, outcome["info"])

    def loop(self, seconds: float) -> tuple:
        """Samples and calibrations for about `seconds`: one calibration,
        then each sample followed by calibrations for CAL_SHARE of its time.
        Another sample starts only while it is expected to end less than
        half a cycle past the window."""
        cli = [sys.executable, "-m", "dftr.cli"]
        samples, cals = [], [self.calibrate()]
        start = time.perf_counter()
        while True:
            samples.append(self.sample(cli))
            block = 0.0
            while block < CAL_SHARE * samples[-1].wall_s:
                cals.append(self.calibrate())
                block += cals[-1][0]
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(samples) > seconds:
                return samples, cals

    def traced(self, spans_path: Path):
        import tracing

        sample = self.sample([sys.executable, str(HERE / "tracing.py"), str(spans_path)])
        spans = json.loads(spans_path.read_text())
        figures = tracing.layer_metrics(spans)
        csv_bytes = sum(p.stat().st_size for p in self.out.glob("*.csv"))
        figures["cli.csv_bytes"] = csv_bytes
        figures["cli.write_csv_mb_s"] = (csv_bytes / 1e6 / figures["cli.write_csv_s"]
                                         if figures["cli.write_csv_s"] else 0.0)
        return sample, figures

    def kernels(self) -> dict:
        log = self.work / "kernels.log"
        _, _, _, code = spawn([sys.executable, str(HERE / "kernels.py"), str(self.ini)], log)
        if code != 0:
            raise RuntimeError(f"kernels.py exited {code}; see {log}")
        return json.loads(log.read_text().strip().splitlines()[-1])


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def environment() -> dict:
    """Where and on what the figures were taken."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        kind = _read(index / "type")
        if level and size and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout; src_sha256 still names the code
    digest = hashlib.sha256()
    for path in sorted((SRC / "dftr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache_l2": caches.get("L2"),
        "cache_l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "note": "one 2001-node vector is 16 KB and fits in L2, so no bandwidth "
                "roofline is claimed; bytes per step are computed from array sizes",
    }


def _spread(values) -> str:
    return f"median of {len(values)}, range {min(values):.6g}..{max(values):.6g}"


def measure(runner: Runner, seconds: float, trace: bool, spec: dict, env: dict) -> dict:
    workload, seed = runner.workload, runner.seed
    print(f"== {workload.name}: dftr {' '.join(runner.cli_args())}")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"   why: {why}")
    print(f"   seed: {seed if workload.seeded else 'not used (deterministic workload)'}")
    setup, setup_failed = ([], 0) if trace else runner.setup_times()
    samples, cals = runner.loop(seconds)
    walls = [s.wall_s for s in samples]
    untraced_wall = statistics.median(walls)
    # CPU seconds at the baseline machine's speed: CPU time leaves out the
    # host's steal and the disk writeback; the calibration beside the
    # samples cancels the host's drift in speed
    scale = workload.cal_ref_s / statistics.median(cpu for _, cpu in cals)

    figures = {}
    if trace:
        spans_path = WORK / "results" / f"{workload.name}-seed{seed}-spans.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        traced, figures = runner.traced(spans_path)
        samples.append(traced)
        figures["trace.overhead_s"] = traced.wall_s - untraced_wall
        figures.update(runner.kernels())
        print(f"   traced run: {traced.wall_s:.6g} s wall, {figures['spans']} spans "
              f"in {spans_path.relative_to(ROOT)}")
        if figures["analysis.cells_attempted"]:
            print(f"   analysis.cells_failed {figures['analysis.cells_failed']} of "
                  f"{figures['analysis.cells_attempted']} cells attempted")
        wanted = spec["per_layer"]
    else:
        cpus = [s.cpu_s for s in samples]
        setup_cpus = [cpu for _, cpu in setup]
        figures = {"cpu_norm_s": statistics.median(cpus) * scale,
                   "setup_s": statistics.median(setup_cpus) * scale,
                   "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples)}
        print(f"   wall seconds (not scaled): {_spread(walls)}")
        print(f"   CPU seconds (not scaled): {_spread(cpus)}")
        print(f"   calibration CPU seconds: {_spread([cpu for _, cpu in cals])}; "
              f"reference {workload.cal_ref_s}, scale {scale:.6g}")
        print(f"   set-up CPU seconds (not scaled): {_spread(setup_cpus)}")
        wanted = spec["end_to_end"]

    attempted = len(samples) + len(setup)
    failed = sum(bool(s.problems) for s in samples) + setup_failed
    for i, s in enumerate(samples):
        for problem in s.problems:
            print(f"   FAILED sample {i}: {problem}")
    print(f"   failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    info = {}
    for s in samples:
        for key, value in s.info.items():
            info.setdefault(key, [])
            if value not in info[key]:
                info[key].append(value)
    for key, values in sorted(info.items()):
        print(f"   {key}: {', '.join(map(str, values))}")

    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"   {name} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "seeded": workload.seeded, "environment": env,
              "setup_wall_cpu_s": setup, "calibration_wall_cpu_s": cals,
              "cal_ref_s": workload.cal_ref_s, "scale": scale,
              "samples": [vars(s) for s in samples],
              "figures": figures, "result": result}
    path = WORK / "results" / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so every child is stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "dftr" / "cli.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no dftr sources at {SRC} or no {SPEC.name}; "
              "run inside a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    env = environment()
    # One CPU for this process and all it spawns: the workload and the
    # calibration beside it then run on the same vCPU, and the sweep's pool
    # no longer gains a host-dependent share of a second one (see NOTES.md).
    env["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    print("environment: " + json.dumps(env))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        with Runner(WORKLOADS[name], args.seed) as runner:
            results[name] = measure(runner, args.seconds, bool(args.trace), spec, env)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": value
                             for name, r in results.items()
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
