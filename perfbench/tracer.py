"""Per-layer tracer, installed from outside the package.

The package binds names with ``from .x import y``, so a function lives in
the dict of every module that imported it.  ``Tracer.install`` wraps each
public function of each layer module and puts the wrapper into *every*
``sre_purity`` module dict that holds the same object, so calls through any
binding are seen.  It also wraps ``DensityMatrix.__post_init__`` on the
class and the check functions held in ``verification.SUITES``.

Each wrapped call records a span (name, start, end, parent span, op id); spans
stay in memory until ``metrics`` reads them.  The per-string hot leaves
(up to 65k calls per op at n=8) only bump a call counter.  Counters marked
"computed" are derived from call arguments, not measured.  ``metrics`` gives
``<module>.<function>.{calls,s,self_s}`` for every wrapped function and the
counters; the runner picks the ones BENCHMARK.json names.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "sre_purity"
LAYERS = ("paulis", "oracle", "states", "channels", "estimation", "pipeline",
          "bench", "verification", "clifford", "cli")

# Called once per Pauli string: counted, never timed.
HOT_LEAVES = frozenset({"paulis.pauli_from_index", "paulis.expval", "states.pauli_expval"})
UNWRAPPED = frozenset({
    # per-string internals of paulis.expval; wrapping them doubles the
    # tracing cost of the oracle and adds no metric
    "paulis.expectation", "paulis.apply_pauli_amps",
    # the command bodies stay inside cli.main's self time (argparse, payload
    # assembly, JSON/CSV emission)
    "cli.build_parser", "cli.cmd_oracle", "cli.cmd_estimate", "cli.cmd_sweep",
    "cli.cmd_verify", "cli.cmd_complexity",
})

COMPLEX_BYTES = 16
FLOAT_BYTES = 8


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _state_key(psi) -> bytes:
    return psi.amps.tobytes()


class Tracer:
    def __init__(self, l3_bytes: int = 0):
        self.l3_bytes = l3_bytes
        self.op = -1
        self._installed = []  # (namespace, key, original) to restore
        self.timed: set[str] = set()
        self.counted: set[str] = set()
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.outermost: list[bool] = []
        self.op_ids: list[int] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.max_dim = 0
        self.max_dense_bytes = 0
        self._expectation_states: set = set()
        self._prepared: set = set()
        self._estimated: set = set()
        self._analytic_depth = 0

    def _timed(self, name: str, fn, before=None):
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = before(self, args, kwargs) if before else None
            index = len(self.names)
            self.names.append(name)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.outermost.append(self._depth[name] == 0)
            self.op_ids.append(self.op)
            self._stack.append(index)
            self._depth[name] += 1
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self.ends[index] = clock()
                self.starts[index] = start
                self._depth[name] -= 1
                self._stack.pop()
                if after:
                    after(ok)

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or name in UNWRAPPED):
                    continue
                if name in HOT_LEAVES:
                    wrapped = self._counted(name, fn)
                    self.counted.add(name)
                else:
                    wrapped = self._timed(name, fn, _BEFORE.get(name))
                    self.timed.add(name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(vars(mod), key, wrapped)
        states = sys.modules[f"{PACKAGE}.states"]
        dm = states.DensityMatrix
        self._set(dm, "__post_init__",
                  self._timed("states.DensityMatrix", dm.__post_init__, _density_matrix))
        self.timed.add("states.DensityMatrix")
        verification = sys.modules[f"{PACKAGE}.verification"]
        suites = {key: tuple(vars(verification)[fn.__name__] for fn in checks)
                  for key, checks in verification.SUITES.items()}
        self._set(vars(verification), "SUITES", suites)
        return self

    def _set(self, namespace, key, value) -> None:
        if isinstance(namespace, dict):
            self._installed.append((namespace, key, namespace[key]))
            namespace[key] = value
        else:
            self._installed.append((namespace, key, namespace.__dict__[key]))
            setattr(namespace, key, value)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._installed):
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)
        self._installed.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """name -> {calls, s (inclusive, outermost spans), self_s}."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = self.ends[i] - self.starts[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if self.outermost[i]:
                row["s"] += dur
        for name, calls in self.calls.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})["calls"] += calls
        return out

    def metrics(self, time_factor: float = 1.0) -> dict[str, float]:
        """Calls and times of every wrapped function, and the counters, with
        times multiplied by ``time_factor``."""
        totals = self.totals()
        values = {}
        for name in self.timed | self.counted:
            row = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            values[f"{name}.calls"] = row["calls"]
            if name in self.timed:
                values[f"{name}.s"] = row["s"] * time_factor
                values[f"{name}.self_s"] = row["self_s"] * time_factor
        c = self.counters
        shots = c["estimation.shots"]
        values.update({
            "paulis.strings_built": c["paulis.strings_built"],
            "oracle.expectations_per_state": _ratio(
                values["oracle.pauli_expectations.calls"], len(self._expectation_states)),
            "states.DensityMatrix.max_dim": self.max_dim,
            "states.density_bytes_computed": c["states.density_bytes"],
            "channels.exact_channel_output.bytes_computed": c["channels.dense_bytes"],
            "channels.exact_channel_output.max_bytes_over_l3_computed": _ratio(
                self.max_dense_bytes, self.l3_bytes),
            "channels.preparations_per_gamma": _ratio(
                c["channels.preparations"], len(self._prepared)),
            "estimation.shots": shots,
            "estimation.bytes_per_shot_computed": _ratio(c["estimation.sample_bytes"], shots),
            "pipeline.run_estimation.repeat_frac_computed": _ratio(
                c["pipeline.repeats"], values["pipeline.run_estimation.calls"]),
            "pipeline.analytic_dense_builds": c["pipeline.analytic_dense_builds"],
        })
        return {k: float(v) for k, v in values.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# argument hooks: run before the call and may return ``after(ok)``, which runs
# when the call has returned (ok) or raised (not ok).  Work is counted only
# for calls that return, so a refused request computes nothing.


def _enumerate_paulis(t: Tracer, args, kwargs):
    n = _arg(args, kwargs, 0, "n")

    def after(ok):
        if ok:
            t.counters["paulis.strings_built"] += 4**n
    return after


def _pauli_expectations(t: Tracer, args, kwargs):
    t._expectation_states.add(_state_key(_arg(args, kwargs, 0, "psi")))


def _preparation(route: str, dense: bool = False):
    def hook(t: Tracer, args, kwargs):
        psi, alpha = _arg(args, kwargs, 0, "psi"), int(_arg(args, kwargs, 1, "alpha"))
        analytic = t._analytic_depth > 0

        def after(ok):
            if not ok:
                return
            t.counters["channels.preparations"] += 1
            t._prepared.add((route, alpha, _state_key(psi)))
            if dense:
                nbytes = COMPLEX_BYTES * 4 ** (alpha * psi.n)
                t.counters["channels.dense_bytes"] += nbytes
                t.max_dense_bytes = max(t.max_dense_bytes, nbytes)
                t.counters["pipeline.analytic_dense_builds"] += analytic
        return after
    return hook


def _run_estimation(t: Tracer, args, kwargs):
    req = _arg(args, kwargs, 0, "req")
    key = (int(req.alpha), _state_key(req.state))
    t.counters["pipeline.repeats"] += key in t._estimated
    t._estimated.add(key)
    analytic = req.shots == 0
    t._analytic_depth += analytic

    def after(ok):
        t._analytic_depth -= analytic
    return after


def _estimate_purity(t: Tracer, args, kwargs):
    source, shots = _arg(args, kwargs, 0, "source"), _arg(args, kwargs, 1, "shots")
    # computed: 8 bytes for each shots-long array the sampler names: the
    # per-shot overlaps, the uniforms and the outcomes, plus the two
    # Pauli-index draws of an incoherent source; the per-shot loop of a
    # source without batches names only the outcomes
    if hasattr(source, "pair_overlap_batch"):
        arrays = 3 + 2 * (type(source).__name__ == "IncoherentPairSource")
    else:
        arrays = 1

    def after(ok):
        if ok:
            t.counters["estimation.shots"] += shots
            t.counters["estimation.sample_bytes"] += FLOAT_BYTES * arrays * shots
    return after


def _density_matrix(t: Tracer, args, kwargs):
    dim = 1 << args[0].n

    def after(ok):
        if ok:
            t.max_dim = max(t.max_dim, dim)
            t.counters["states.density_bytes"] += COMPLEX_BYTES * dim * dim
    return after


_BEFORE = {
    "paulis.enumerate_paulis": _enumerate_paulis,
    "oracle.pauli_expectations": _pauli_expectations,
    "channels.exact_channel_output": _preparation("exact", dense=True),
    "channels.coherent_prepare": _preparation("coherent"),
    "channels.ancilla_marginal": _preparation("ancilla_formula"),
    "pipeline.run_estimation": _run_estimation,
    "estimation.estimate_purity": _estimate_purity,
}
