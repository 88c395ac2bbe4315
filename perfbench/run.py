"""tweetlink benchmark: run one workload for a fixed time and check every output.

    python3 perfbench/run.py --workload tfidf-dense --seed 1 --seconds 25 --trace 0

Inputs are generated from --seed before anything is timed. Every call goes
through `tweetlink.cli.main([...])` in this (warm) process, one call at a
time, with BLAS/OpenMP pinned to one thread. One untimed warm-up call comes
first; its artifacts are the reference every later call must reproduce byte
for byte.

--trace 0 reports the end-to-end metrics: pipeline_s and setup_s, both
scaled to the reference host speed (see speed.py), peak_mem_mb and ap.
--trace 1 makes one counting call, then alternates untraced and timed traced
calls, and reports the per-layer metrics from the traced ones (see
spans.py). Both print a summary, then one JSON line as the last line of
stdout. Full results (environment, input shape, samples, failures) and the
traced run's spans go to perfbench/out/<workload>-seed<seed>-trace<0|1>/.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Must be set before numpy is first imported, here and in child processes.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(SRC))

# Seed calls take 2.5-5.5 s; a call over this limit counts as failed and is
# interrupted so a hang (e.g. average_precision on NaN scores) cannot stall a run.
CALL_LIMIT_S = 30.0
SETUP_SAMPLES = 8

END_TO_END_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_mem_mb": "MB", "ap": "ratio"}

SETUP_CHILD = "import time, tweetlink.cli; print(repr(time.perf_counter()))"

MEM_CHILD = """
import json, resource, sys
from tweetlink.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


class CallTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so no `except Exception` in the package swallows it."""


def _on_alarm(signum, frame):
    raise CallTimeout


def call_with_limit(fn, argv, limit_s: float) -> tuple[str, float]:
    """Run fn(argv) in this process; returns ("ok" or why it failed, wall seconds)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    start = time.perf_counter()
    try:
        code = fn(argv)
        status = "ok" if code == 0 else f"exit code {code}"
    except CallTimeout:
        status = f"timed out after {limit_s:g} s"
    except SystemExit as exc:  # argparse rejecting the command line
        status = f"exited {exc.code!r}"
    except Exception as exc:  # a crash is a failed call, not a failed benchmark
        status = f"raised {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    return status, wall


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load_generator": "one process, one call at a time (closed loop, 1 client)",
    }


class Bench:
    """Calls the CLI for one workload and checks each call's artifacts."""

    def __init__(self, workload, work_dir: Path):
        from tweetlink import cli

        self.main = cli.main
        self.workload = workload
        self.work_dir = work_dir
        self.labels = checks.read_labels(workload.pairs)
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] | None = None
        self.ap: float | None = None  # reported by the first passing call
        self.expected_sweep: dict[int, float] | None = None

    def prepare(self) -> None:
        """For sweep workloads, derive the expected per-size AP from a `score` call."""
        if self.workload.kind != "sweep":
            return
        out = self.work_dir / "score"
        sizes = [int(s) for s in self.workload.args[-1].split(",")]
        argv = ["--config", str(self.workload.config), "--out-dir", str(out), "score"]
        status, _ = call_with_limit(self.main, argv, CALL_LIMIT_S)
        self.attempted += 1
        if status != "ok":
            self.failures.append(f"score call for the sweep check: {status}")
            return
        try:
            self.expected_sweep = checks.expected_sweep(
                out / "similarity.csv", self.workload.documents, self.labels, sizes
            )
        except checks.CheckFailed as exc:
            self.failures.append(f"score call for the sweep check: {exc}")

    def check(self, out_dir: Path, status: str) -> None:
        """Count one attempted call and record why it failed, if it did."""
        self.attempted += 1
        try:
            if status != "ok":
                raise checks.CheckFailed(status)
            hashes = checks.digest(out_dir, self.workload.artifacts)
            if self.reference is not None and hashes != self.reference:
                raise checks.CheckFailed("artifacts differ from the run's first call")
            if self.workload.kind == "eval":
                ap = checks.check_eval(out_dir, self.labels)
            elif self.expected_sweep is None:
                raise checks.CheckFailed("no expected sweep to check against")
            else:
                ap = checks.check_sweep(out_dir, self.expected_sweep)
        except checks.CheckFailed as exc:
            self.failures.append(str(exc))
            return
        if self.reference is None:
            self.reference, self.ap = hashes, ap

    def call(self, tracer=None, counting=False) -> float:
        out = self.work_dir / "call"
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.begin_call(counting)
        try:
            status, wall = call_with_limit(self.main, self.workload.argv(out), CALL_LIMIT_S)
        finally:
            if tracer is not None:
                tracer.end_call(wall)
        self.check(out, status)
        return wall

    def setup_once(self) -> float:
        """Wall time from spawning a fresh interpreter until it has imported tweetlink.cli.

        The child reads the same monotonic clock once the import is done, so
        neither interpreter teardown nor the parent's timeout polling (50 ms
        steps in subprocess) enters the sample.
        """
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            cwd=ROOT, env=child_env(), check=True, timeout=60, capture_output=True, text=True,
        )
        return float(proc.stdout) - start

    def peak_mem_mb(self) -> float:
        """Peak RSS of a fresh process running one command call (checked like any call)."""
        out = self.work_dir / "mem"
        shutil.rmtree(out, ignore_errors=True)
        argv = json.dumps(self.workload.argv(out))
        try:
            proc = subprocess.run(
                [sys.executable, "-c", MEM_CHILD, argv],
                cwd=ROOT, env=child_env(), capture_output=True, text=True,
                timeout=CALL_LIMIT_S + 10,
            )
        except subprocess.TimeoutExpired:
            self.check(out, "memory child timed out")
            return 0.0
        if proc.returncode != 0 or not proc.stdout.strip():
            self.check(out, f"memory child exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return 0.0
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.check(out, "ok" if result["code"] == 0 else f"exit code {result['code']}")
        return result["maxrss_kb"] / 1024.0


def timed_loop(seconds: float, step) -> None:
    """Call step() until the next call would end past `seconds` (at least once)."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return


def run(args) -> dict:
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    workload = inputs.generate(args.workload, args.seed, work / "inputs")
    bench = Bench(workload, work)
    bench.prepare()
    warm_wall = bench.call()
    speed.reference_s()  # warm-up, like the call before it
    result = {
        "workload": args.workload,
        "why": args.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": workload.properties,
        "warmup_s": warm_wall,
    }

    if args.trace == 0:
        # Every time sample is (raw seconds, seconds scaled to the reference
        # host speed); see speed.py. Half the import samples come before the
        # timed calls and half after, so a stretch of host slowdown cannot
        # skew all of them.
        setup = [speed.scaled(bench.setup_once) for _ in range(SETUP_SAMPLES // 2)]
        peak = bench.peak_mem_mb()
        calls = []

        def step():
            calls.append(speed.scaled(bench.call))

        timed_loop(args.seconds, step)
        setup += [speed.scaled(bench.setup_once) for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        metrics = {
            "pipeline_s": median(s for _, s in calls),
            "setup_s": median(s for _, s in setup),
            "peak_mem_mb": peak,
            "ap": bench.ap if bench.ap is not None else 0.0,
        }
        result["samples"] = {
            "pipeline_s": [s for _, s in calls],
            "setup_s": [s for _, s in setup],
            "pipeline_raw_s": [r for r, _ in calls],
            "setup_raw_s": [r for r, _ in setup],
        }
        units = END_TO_END_UNITS
    else:
        tracer = spans.Tracer()
        bench.call(tracer, counting=True)
        plain, traced = [], []

        def step():
            plain.append(bench.call())
            traced.append(bench.call(tracer))

        timed_loop(args.seconds, step)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = median(traced) - median(plain)
        result["samples"] = {"untraced_s": plain, "traced_s": traced}
        result["span_problems"] = [p for call in sorted(tracer.walls) for p in tracer.problems(call)]
        tracer.dump(work / "spans.jsonl")
        units = {key: spans.unit(key) for key in metrics}

    result["attempted"] = bench.attempted
    result["failed"] = len(bench.failures)
    result["failures"] = bench.failures
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def summary_lines(result: dict) -> list[str]:
    env = result["environment"]
    lines = [
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: {result['why']}",
        f"environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, blas {env['blas']}, BLAS/OpenMP threads 1",
        "inputs: " + ", ".join(f"{k} {v:.4g}" for k, v in result["inputs"].items()),
    ]
    for key, sample in result["samples"].items():
        lines.append(f"{key}: {len(sample)} samples, median {median(sample):.4f} s")
    for name, m in result["metrics"].items():
        lines.append(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    fail_ratio = result["failed"] / result["attempted"]
    lines.append(f"{'fail_ratio':<40} {fail_ratio:>14.6g} ratio ({result['failed']} of {result['attempted']} calls)")
    lines.extend(f"failure: {f}" for f in result["failures"][:10])
    lines.extend(f"span problem: {p}" for p in result.get("span_problems", [])[:10])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tweetlink" / "cli.py").is_file():
        print(f"error: no tweetlink package under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in why:
        print(f"error: unknown workload {args.workload!r}; choose from {tuple(why)}", file=sys.stderr)
        return 2
    args.why = why[args.workload]

    result = run(args)
    for line in summary_lines(result):
        print(line)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
