"""Benchmark of the nvgslac package, driven from outside as a user would.

    python3 bench/run.py --workload {sweep,fit,mc13,bath} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src/``
of that checkout and fails without printing a result when there is none.
The workloads and their checks are in ``workloads.py``.

``--trace 0`` runs whole rounds of calls, as many as bring the calls'
time closest to S seconds, then starts a few fresh interpreters to time
set-up, and reports the end-to-end metrics.  ``--trace 1`` makes every
call twice, once untraced and once with every layer function wrapped
(``tracer.py``), as many rounds as bring the untraced calls' time
closest to S/2 seconds, and reports the per-layer metrics and the
tracing overhead.  Both check every call's outputs.

Reported call times are scaled to the baseline machine's speed with a
reference loop timed between calls; see ``SpeedProbe``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it are a readable report.  Per-call records, the machine facts
and (traced) the spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5
TAIL_BEYOND = 10  # calls that must lie above the reported tail percentile
REF_EVERY_S = 0.25  # seconds of calls between two runs of the reference loop
REF_WINDOW = 2  # reference samples on each side of a call that set its scale
REF_MS = 10.0  # median time of the reference loop on the baseline machine

# What a user pays before the first call: a fresh interpreter imports the
# package and the CLI, loads the constants and the lattice families and
# builds the argument parser.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import nvgslac.cli
from nvgslac import carbon13, hamiltonian
hamiltonian.DEFAULT_CONSTANTS
carbon13.load_families()
nvgslac.cli.build_parser()
print("ready", flush=True)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description="nvgslac benchmark")
    parser.add_argument("--workload", required=True, choices=("sweep", "fit", "mc13", "bath"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Machine facts


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    best = None
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = int(_read(f"{index}/level"))
            size = _read(f"{index}/size")
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return f"L{best[0]} {best[1]}" if best else "unknown"


def _blas_threads():
    """Thread count of the OpenBLAS library numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(nvgslac_threads) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "NVGSLAC_THREADS": nvgslac_threads if nvgslac_threads is not None else "unset",
    }


# ---------------------------------------------------------------------------
# Machine speed
#
# The host's speed drifts by up to 30 % over minutes (a fixed loop's time
# moves with it, in wall and CPU time alike), which is wider than any
# bound a regression check can use.  Each run therefore times a fixed
# reference loop that does not touch nvgslac, between calls, and scales
# each call's time by REF_MS over the median of the reference times taken
# around that call: times read as on the baseline machine at the
# baseline's speed.  The raw times and the factors are kept in the run's
# record.


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter, LAPACK and formatting work.

    The LAPACK calls are on 9x9 matrices, below the size at which
    OpenBLAS starts its threads: a threaded call slows far more than the
    workloads when another tenant loads the host, and scaling by it
    widened the spread of bath's times instead of narrowing it.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i
    a = np.random.default_rng(1).standard_normal((9, 9))
    for _ in range(150):
        a = np.linalg.eigh(a + a.T)[1]
    "".join("%.9g,%.9g\n" % (x, x) for x in range(3000))
    return time.perf_counter() - start


class SpeedProbe:
    """Times the reference loop every REF_EVERY_S seconds of calls."""

    def __init__(self):
        self.at = []  # seconds of calls made when each sample was taken
        self.samples = []  # reference loop times, s

    def tick(self, busy: float) -> None:
        if not self.at or busy - self.at[-1] >= REF_EVERY_S:
            self.at.append(busy)
            self.samples.append(reference_loop())

    def scale(self, busy=None) -> float:
        """Factor to the baseline's speed near ``busy`` seconds of calls, or over the run."""
        near = self.samples
        if busy is not None:
            j = bisect.bisect_right(self.at, busy)
            near = self.samples[max(0, j - 1 - REF_WINDOW): j + REF_WINDOW]
        return REF_MS / 1e3 / statistics.median(near)


# ---------------------------------------------------------------------------
# Calls


def timed_call(workload, spec, work: Path, tracer=None) -> dict:
    """One user-level call, timed, then its output check, untimed."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    span = tracer.call() if tracer is not None else contextlib.nullcontext()
    error = None
    start = time.perf_counter()
    try:
        with span:
            result = workload.call(spec, work)
    except Exception:
        error = traceback.format_exc()
    latency = time.perf_counter() - start
    n = workload.units_per_call
    if error is None:
        try:
            units, failed, broken, note = workload.check(spec, result, work)
        except Exception:
            units, failed, broken, note = n, n, True, "check raised: " + traceback.format_exc()
    else:
        units, failed, broken, note = n, n, True, "call raised: " + error
    shutil.rmtree(work, ignore_errors=True)
    return {
        "inputs": spec,
        "latency_s": latency,
        "units": units,
        "failed": failed,
        "broken": broken,
        "note": note,
    }


def more_rounds(busy: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, of the mean length so far, ends nearer ``seconds``.

    A fit round takes 5-9 s, so running on until ``seconds`` have passed
    would overshoot by up to a whole round.
    """
    return rounds == 0 or busy + 0.5 * busy / rounds < seconds


def run_rounds(workload, work: Path, seconds: float, probe: SpeedProbe) -> tuple:
    """Whole rounds, as many as bring the calls' time closest to ``seconds``.

    Returns the call records, each with its time scale, and the rounds run.
    """
    records = []
    busy = 0.0
    rounds = 0
    while more_rounds(busy, rounds, seconds):
        for spec in workload.round(rounds):
            probe.tick(busy)
            records.append(timed_call(workload, spec, work))
            records[-1]["busy_at_s"] = busy
            busy += records[-1]["latency_s"]
        rounds += 1
    for record in records:
        record["scale"] = probe.scale(record["busy_at_s"])
    return records, rounds


def run_rounds_traced(workload, work: Path, seconds: float, tracer, probe: SpeedProbe) -> tuple:
    """Whole rounds, each call once untraced and once traced.

    The two runs of a call follow each other, in alternating order, so a
    drift in machine speed falls on both alike.  Runs as many rounds as
    bring the untraced calls' time closest to ``seconds``.  Returns the
    records, the rounds run and the summed untraced and traced call times.
    """
    records = []
    wall = {False: 0.0, True: 0.0}
    rounds = 0
    while more_rounds(wall[False], rounds, seconds):
        for spec in workload.round(rounds):
            order = (False, True) if len(records) % 4 == 0 else (True, False)
            for traced in order:
                probe.tick(wall[False] + wall[True])
                if traced:
                    tracer.install()
                try:
                    record = timed_call(workload, spec, work, tracer if traced else None)
                finally:
                    tracer.uninstall()
                wall[traced] += record["latency_s"]
                records.append(record)
        rounds += 1
    return records, rounds, wall[False], wall[True]


def measure_setup(runs: int) -> list:
    """Seconds from starting a fresh interpreter until it can make the first call."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed (exit code {proc.returncode})")
        times.append(elapsed)
    return times


def end_to_end(records, setup: list) -> tuple:
    """End-to-end metrics as {name: (value, unit)} plus their sample counts.

    Call times are scaled per call (see SpeedProbe); set-up times are
    not.  Set-up is mostly imports, which do not follow the reference
    loop: on the baseline host the loop ran 1.5 times faster in some
    minutes than in others while set-up changed by a tenth, so scaling
    set-up widened its spread by half or more.
    """
    import numpy as np

    latencies = [r["latency_s"] * r["scale"] * 1e3 for r in records]
    busy = sum(latencies) / 1e3
    n = len(latencies)
    # With too few calls the tail is the slowest call.
    tail_pct = math.floor(100.0 * (n - TAIL_BEYOND) / n) if n > TAIL_BEYOND else 100
    units = sum(r["units"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": ((units - failed) / busy, "1/s"),
        "call_p50_ms": (statistics.median(latencies), "ms"),
        "call_tail_ms": (float(np.percentile(latencies, tail_pct)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "setup_s": f"median of {len(setup)} interpreters",
        "work_per_s": f"{units - failed} passed units",
        "call_p50_ms": f"{n} calls",
        "call_tail_ms": f"{n} calls, p{tail_pct}",
        "peak_rss_mb": "1 process",
    }
    return metrics, samples


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nvgslac" / "__init__.py").is_file():
        print(f"error: no nvgslac package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    nvgslac_threads = os.environ.pop("NVGSLAC_THREADS", None)  # one worker
    import nvgslac

    if Path(nvgslac.__file__).resolve().parent != (SRC / "nvgslac").resolve():
        print(f"error: imported nvgslac from {nvgslac.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    facts = machine_facts(nvgslac_threads)
    work = OUT / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        known_defects = getattr(workload, "known_defects", [])
        timed_call(workload, workload.round(0)[0], work / "call")  # warm-up, not counted
        reference_loop()  # warm-up, not counted
        probe = SpeedProbe()
        if args.trace:
            tracer = Tracer()
            records, rounds, untraced_wall, traced_wall = run_rounds_traced(
                workload, work / "call", args.seconds / 2, tracer, probe
            )
            scale = probe.scale()
            metrics = {
                name: (value * scale if unit == "s" else value, unit)
                for name, (value, unit) in tracer.metrics(traced_wall, untraced_wall).items()
            }
            calls = f"{len(records) // 2} calls"
            samples = {"trace.wall_s": calls, "trace.untraced_wall_s": calls}
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"{tag}-spans.csv.gz")
        else:
            records, rounds = run_rounds(workload, work / "call", args.seconds, probe)
            setup = measure_setup(SETUP_RUNS)
            metrics, samples = end_to_end(records, setup)
            samples["setup_s_each"] = setup
        samples["reference_loop_s"] = probe.samples
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["units"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = not any(r["broken"] for r in records)
    samples["fail_share"] = f"{failed} of {attempted} units"
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"args": vars(args), "machine": facts, "rounds": rounds, "samples": samples,
             "known_defects": known_defects, "result": result, "calls": records},
            fh, indent=1, default=repr,
        )
    print(f"nvgslac benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"times scaled to a reference loop of {REF_MS} ms; "
          f"it took a median {statistics.median(probe.samples) * 1e3:.3f} ms "
          f"over {len(probe.samples)} runs")
    print(f"calls: {len(records)} in {rounds} rounds; {attempted} units ({workload.unit}), "
          f"{failed} failed, correct={correct}")
    misses = [r["note"].splitlines()[-1] for r in records if r["failed"]]
    for note in misses[:10]:
        print(f"  miss: {note}")
    for note in known_defects:
        print(f"  known defect, not timed or counted: {note}")
    rows = dict(metrics, fail_share=(failed / attempted, "ratio"))
    for name, (value, unit) in rows.items():
        print(f"  {name:30s} {value:14.6g} {unit:6s} {samples.get(name, '')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
