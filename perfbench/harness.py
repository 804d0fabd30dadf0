"""Benchmark harness: drives ``sre_purity.cli.main`` in-process.

The package is imported from the checkout's ``src/``, never from an
installed copy.  One op is one ``cli.main(argv)`` call whose report goes to a
file under ``perfbench/.out/``; the gate (``gate.py``) checks every
report against references computed during set-up.  A run repeats passes of
the workload's fixed op list (fresh states each pass) for about ``--seconds``
seconds, with one closed-loop caller in one process.

Times are reported at a reference CPU speed.  The speed the 2-vCPU Xeon VM
the benchmark was defined on gives a process drifts by up to a third within
minutes, as other guests load the host, and process CPU time drifts with it:
over ten runs of the same code the median pass spread by 8-30% (quartile
distance over median).  So every pass interleaves two fixed kernels that do
not touch the package with its ops (see ``Speedometer``) and each measured
time is multiplied by the pass's speed factor, which brought that spread to
2-5%.  Raw pass times and factors are printed before the result.

``--trace 0`` prints the end-to-end metrics: the median pass, the p50 and p90
of every op latency measured in the run, peak RSS, the median of
SETUP_REPEATS set-ups, and the share of ops passing the gate.  ``--trace 1``
splits the time between untraced passes and passes under ``tracer.Tracer``
and prints the per-layer metrics (median over traced passes) and the tracing
overhead.  Metric names and units are read from BENCHMARK.json.  The last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gate
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / ".out" / "report.out"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# name -> unit, in report order
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_REPEATS = 5
# Lower bounds on one pass's duration, used to size the references computed
# during set-up; a run stops early if it exhausts them.
MIN_PASS_S = {"oracle-scan": 2.0, "estimate-stream": 1.0, "batch-verify": 1.0}


class SetupError(RuntimeError):
    pass


class Speedometer:
    """Fixed kernels timed between ops: ``factor`` maps a time to reference speed.

    One kernel is a pure-Python integer loop (no allocation the garbage
    collector tracks), the other streams numpy over 400k doubles the way the
    swap-test sampler does.  ``factor`` is the geometric mean of the two
    ratios reference time / measured time; a kernel takes its reference time
    (about its median on the VM above) when ``factor`` is 1.
    """

    EVERY_S = 0.1  # op time between two samples
    REF_S = (0.008, 0.008)  # (Python kernel, numpy kernel)
    N_PY = 40_000
    N_NP = 400_000

    def __init__(self):
        self.samples = 0
        self.seconds = [0.0, 0.0]
        self._rng = np.random.default_rng(0)
        self._x = self._rng.random(self.N_NP)

    def sample(self) -> None:
        start = perf_counter()
        total = 0
        for i in range(self.N_PY):
            total += ((i * 2654435761) & 0xFFFF) ^ (i >> 3)
        middle = perf_counter()
        outcomes = np.where(self._rng.random(self.N_NP) < 0.5 * (1.0 + self._x), 1.0, -1.0)
        float(outcomes.mean())
        end = perf_counter()
        self.seconds[0] += middle - start
        self.seconds[1] += end - middle
        self.samples += 1

    @property
    def factor(self) -> float:
        ratios = [ref * self.samples / s for ref, s in zip(self.REF_S, self.seconds)]
        return math.sqrt(ratios[0] * ratios[1])


@dataclass
class PassStats:
    """One pass; times are raw, ``factor`` maps them to reference speed."""

    factor: float = 1.0
    wall: float = 0.0
    latencies: list = field(default_factory=list)
    statuses: list = field(default_factory=list)
    reasons: list = field(default_factory=list)
    output_bytes: int = 0
    layer: dict = field(default_factory=dict)


def run_op(cli, op):
    """Call the CLI once; return (seconds, gate.Result).

    ``cli.main`` is looked up per call so that a traced run calls the wrapper.
    """
    with contextlib.suppress(FileNotFoundError):
        OUT.unlink()
    argv = op.argv(str(OUT))
    out, err = io.StringIO(), io.StringIO()
    code, tb = None, None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is an op outcome the gate judges
        tb = traceback.format_exc()
    seconds = perf_counter() - start
    output = OUT.read_text() if OUT.exists() else None
    return seconds, gate.Result(code, out.getvalue(), err.getvalue(), output, tb)


def run_pass(cli, ops, refs, tracer=None) -> PassStats:
    stats, speed = PassStats(), Speedometer()
    if tracer is not None:
        tracer.reset()
    since_sample = Speedometer.EVERY_S
    for index, (op, ref) in enumerate(zip(ops, refs)):
        if since_sample >= Speedometer.EVERY_S:
            speed.sample()
            since_sample = 0.0
        if tracer is not None:
            tracer.op = index
        seconds, result = run_op(cli, op)
        since_sample += seconds
        status, reason = gate.check(op, ref, result)
        stats.wall += seconds
        stats.latencies.append(seconds)
        stats.statuses.append(status)
        if reason:
            stats.reasons.append(f"{op.command} --state {op.params.get('state')}: {reason}")
        stats.output_bytes += result.output_bytes
    speed.sample()
    stats.factor = speed.factor
    if tracer is not None:
        stats.layer = tracer.metrics(stats.factor)
        stats.layer["cli.output_bytes"] = float(stats.output_bytes)
        stats.layer["workload.requery_frac_computed"] = workloads.requery_fraction(ops)
    return stats


def run_passes(cli, passes, refs, first, seconds, tracer=None) -> list[PassStats]:
    """Passes from index ``first`` until the next one would end after ``seconds``."""
    done, start = [], perf_counter()
    for k in range(first, len(passes)):
        done.append(run_pass(cli, passes[k], refs[k], tracer))
        if perf_counter() - start + done[-1].wall > seconds:
            break
    return done


def set_up(workload, seed, n_passes):
    """Import the package afresh, build the op lists and references, warm up."""
    for name in [m for m in sys.modules if m == "sre_purity" or m.startswith("sre_purity.")]:
        del sys.modules[name]
    cli = importlib.import_module("sre_purity.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"sre_purity imported from {cli.__file__}, not from {SRC}")
    passes = [workloads.pass_ops(workload, seed, k) for k in range(n_passes)]
    refs = [[gate.reference(op) for op in ops] for ops in passes]
    for op in workloads.warmup_ops(workload):
        run_op(cli, op)
    return cli, passes, refs


def timed_set_up(workload, seed, n_passes):
    """set_up SETUP_REPEATS times; return its last result and each repeat's
    time at reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        speed = Speedometer()
        speed.sample()
        start = perf_counter()
        result = set_up(workload, seed, n_passes)
        seconds = perf_counter() - start
        speed.sample()
        times.append(seconds * speed.factor)
    return result, times


def l3_bytes() -> int:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError, ValueError):
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
    return 0


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read through its own API."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def stamp(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = l3_bytes()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        # computed: one dim-4096 density matrix (the largest the guards allow)
        # against the last-level cache
        "dim4096_bytes_over_l3": 16 * 4096**2 / l3 if l3 else None,
        "callers": 1,
        "loop": "closed",
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _pass_seconds(p: PassStats) -> float:
    return p.wall * p.factor


def end_to_end(setup_times, done) -> dict[str, float]:
    latencies_ms = [1e3 * seconds * p.factor for p in done for seconds in p.latencies]
    deciles = statistics.quantiles(latencies_ms, n=10, method="inclusive")
    statuses = [s for p in done for s in p.statuses]
    return {
        "setup_s": _median(setup_times),
        "wall_s": _median([_pass_seconds(p) for p in done]),
        "op_p50_ms": _median(latencies_ms),
        "op_p90_ms": float(deciles[8]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": statuses.count(gate.OK) / len(statuses),
    }


def per_layer(untraced, traced) -> dict[str, float]:
    values = {name: _median([p.layer[name] for p in traced])
              for name in PER_LAYER if name != "trace.overhead_frac"}
    values["trace.overhead_frac"] = (_median([_pass_seconds(p) for p in traced])
                                     / _median([_pass_seconds(p) for p in untraced]) - 1.0)
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark of the sre-purity command line.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    OUT.parent.mkdir(exist_ok=True)
    n_passes = max(2, int(args.seconds / MIN_PASS_S[args.workload]) + 2)
    try:
        (cli, passes, refs), setup_times = timed_set_up(args.workload, args.seed, n_passes)
    except (ImportError, SetupError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        untraced = run_passes(cli, passes, refs, 0, args.seconds / 2)
        with Tracer(l3_bytes()) as tracer:
            traced = run_passes(cli, passes, refs, len(untraced), args.seconds / 2, tracer)
        done = untraced + traced
        metrics = per_layer(untraced, traced)
        units = PER_LAYER
    else:
        done = run_passes(cli, passes, refs, 0, args.seconds)
        values = end_to_end(setup_times, done)
        metrics = {name: values[name] for name in END_TO_END}
        units = END_TO_END

    statuses = [s for p in done for s in p.statuses]
    failed = len(statuses) - statuses.count(gate.OK)
    print("stamp " + json.dumps(stamp(args), sort_keys=True))
    print(f"{args.workload}: {len(done)} passes x {len(passes[0])} ops = {len(statuses)} ops, "
          f"{failed} failed the gate")
    print("  raw pass seconds " + " ".join(f"{p.wall:.4f}" for p in done))
    print("  speed factors    " + " ".join(f"{p.factor:.4f}" for p in done))
    for reason, count in Counter(r for p in done for r in p.reasons).items():
        print(f"  gate: {count} x {reason}")
    for name, value in metrics.items():
        print(f"  {name:58s} {value:16.6g} {units[name]}")
    result = {
        "correct": gate.run_correct(statuses),
        "attempted": len(statuses),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0
