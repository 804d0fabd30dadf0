"""Seeded op lists for the three benchmark workloads.

An op is one ``sre_purity.cli.main`` call.  A workload is a fixed op
*structure* (commands, qubit counts, alphas, epsilons, methods); the seed and
the pass index only pick the Haar-state seeds, the sampling seeds and the op
order.  Every pass therefore does the same amount of work on fresh states, so
pass times from different seeds are comparable and no state repeats across
passes unless the workload itself repeats it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SIZE_GUARD_EXIT = 3
# stab:70 is refused with exit 2 (a bad-spec error: the basis state is
# allocated before the size guard runs)
STAB70_EXIT = 2


@dataclass(frozen=True)
class Op:
    """One CLI call: ``command`` plus ``--flag value`` pairs (``True`` = bare flag).

    ``known_exit`` is the exit code of a known defect: an op that ends with it
    instead of ``expect_exit`` fails the gate without making the run incorrect.
    """

    command: str
    args: tuple[tuple[str, object], ...]
    expect_exit: int = 0
    known_exit: int | None = None

    @property
    def params(self) -> dict:
        return {flag.replace("-", "_"): value for flag, value in self.args}

    @property
    def writes_file(self) -> bool:
        return self.command != "verify"

    def argv(self, out: str | None = None) -> list[str]:
        argv = [self.command]
        for flag, value in self.args:
            argv.append(f"--{flag}")
            if value is not True:
                argv.append(str(value))
        if out is not None and self.writes_file:
            argv += ["--out", out]
        return argv


def _op(command: str, expect_exit: int = 0, known_exit: int | None = None, **kwargs) -> Op:
    return Op(command, tuple((k.replace("_", "-"), v) for k, v in kwargs.items()), expect_exit,
              known_exit)


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    # str seeds hash with sha512, so this is stable across processes and platforms
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _state_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


# (n, alpha given --dist) for each Haar state of an oracle-scan pass.  Every
# state, stab:8 too, is queried at alpha 2 and 3, so 6 of the 12 ops re-query
# a state and 5 carry --dist.  n=8 is the stabilizer state stab:8 only: one
# n=8 op takes as long as eight n=6 ops.  The two stab:8 ops are the top
# sixth of the op latencies, so op_p90_ms falls inside their cluster rather
# than on the edge between two clusters.
_ORACLE_STATES = ((6, 2), (6, 3), (6, 2), (6, 3), (7, 2))


def _oracle_scan(rng: random.Random) -> list[Op]:
    ops = [_op("oracle", state="stab:8", alpha=alpha) for alpha in (2, 3)]
    for n, dist_alpha in _ORACLE_STATES:
        spec = f"haar:{n}:{_state_seed(rng)}"
        for alpha in (2, 3):
            kw = {"dist": True} if alpha == dist_alpha else {}
            ops.append(_op("oracle", state=spec, alpha=alpha, **kw))
    rng.shuffle(ops)
    return ops


def _estimate(spec: str, alpha: int, method: str, rng: random.Random, eps=0.05,
              marginal: str = "copies", expect_exit: int = 0, known_exit: int | None = None,
              **extra) -> Op:
    return _op("estimate", expect_exit, known_exit, state=spec, alpha=alpha, eps=eps, delta=0.1,
               method=method, seed=rng.randrange(1 << 31), marginal=marginal, **extra)


# (method, marginal): the exact mixture and both coherent marginals
ROUTES = (("exact", "copies"), ("coherent", "copies"), ("coherent", "ancilla"))


# (n, alphas for the dense routes, extra ancilla-only alphas, epsilons):
# epsilons keep every op within 1e4..1e6 swap shots, alphas keep every
# dense object at dim <= 512 and every coherent register within the guard.
_STREAM_GRID = (
    (1, range(2, 8), (), (0.05, 0.02, 0.01)),
    (2, range(2, 5), (5, 6, 7), (0.05, 0.02, 0.01)),
    (3, range(2, 4), (4,), (0.05, 0.02)),
)


def _estimate_stream(rng: random.Random) -> list[Op]:
    ops = []
    for n, alphas, ancilla_only, epsilons in _STREAM_GRID:
        for eps in epsilons:
            for alpha in alphas:
                for method, marginal in ROUTES:
                    ops.append(_estimate(f"haar:{n}:{_state_seed(rng)}", alpha, method,
                                         rng, eps, marginal))
            for alpha in ancilla_only:
                ops.append(_estimate(f"haar:{n}:{_state_seed(rng)}", alpha, "coherent",
                                     rng, eps, "ancilla"))
            for alpha in range(2, 8):
                ops.append(_estimate(f"haar:{n}:{_state_seed(rng)}", alpha, "incoherent",
                                     rng, eps))
        # analytic runs (--shots 0) build the dense channel output, dim 8..512
        ops.append(_estimate(f"haar:{n}:{_state_seed(rng)}", 3, "coherent", rng, shots=0))
    # Inputs the size guards must refuse.  stab:70 is refused with exit 2, a
    # known failure; stab:30 and huge budgets are left out because they
    # allocate gigabytes before refusing.
    ops += [
        _estimate("stab:13", 2, "coherent", rng, expect_exit=SIZE_GUARD_EXIT),
        _estimate(f"haar:2:{_state_seed(rng)}", 11, "exact", rng, expect_exit=SIZE_GUARD_EXIT),
        _estimate("stab:70", 2, "coherent", rng, expect_exit=SIZE_GUARD_EXIT,
                  known_exit=STAB70_EXIT),
    ]
    rng.shuffle(ops)
    return ops


def _batch_verify(rng: random.Random) -> list[Op]:
    """Five ops: two short complexity tables, the coherent and incoherent
    sweeps and verify, so op_p50_ms is the coherent sweep's latency.

    Both complexity ops use haar:2:7.  On some Haar states (7 of 40 at n=2-3)
    the identity's expectation rounds above 1 and ``complexity`` exits 2, so
    a seeded state would fail at random and leave ok_frac unsteady.
    """
    grid = f"0:{math.pi / 2!r}:9"
    sweep = dict(alphas="2,3,5,7", theta_grid=grid, delta=0.1, seeds=10)
    complexity = dict(state="haar:2:7", methods="swap_purity,direct_gamma,direct_single_copy",
                      eps=0.1, delta=0.1, seeds=20)
    return [
        _op("sweep", **sweep, eps=0.05, method="coherent", seed=rng.randrange(1 << 31)),
        _op("sweep", **sweep, eps=0.02, method="incoherent", seed=rng.randrange(1 << 31)),
        _op("complexity", **complexity, alphas="2", seed=rng.randrange(1 << 31)),
        _op("complexity", **complexity, alphas="3", seed=rng.randrange(1 << 31)),
        _op("verify", suite="all"),
    ]


_GENERATORS = {
    "oracle-scan": _oracle_scan,
    "estimate-stream": _estimate_stream,
    "batch-verify": _batch_verify,
}


WORKLOADS = tuple(_GENERATORS)


def pass_ops(workload: str, seed: int, pass_index: int) -> list[Op]:
    """The op list of one pass; the same arguments always give the same list."""
    return _GENERATORS[workload](_rng(workload, seed, pass_index))


def warmup_ops(workload: str) -> list[Op]:
    """Small ops on the workload's code paths, run before timing starts."""
    rng = random.Random(f"warmup:{workload}")
    if workload == "oracle-scan":
        return [_op("oracle", state="haar:3:1", alpha=2, dist=True)]
    if workload == "batch-verify":
        return [
            _op("sweep", alphas="2", theta_grid="0:1:2", eps=0.5, delta=0.5, seeds=1,
                method="incoherent", seed=1),
            _op("complexity", state="haar:1:1", alphas="2", eps=0.5, delta=0.5, seeds=1, seed=1),
            _op("verify", suite="replica"),
        ]
    return [_estimate("haar:1:1", 2, method, rng, 0.5, marginal)
            for method, marginal in ROUTES + (("incoherent", "copies"),)] + [
        _estimate("haar:1:1", 2, "coherent", rng, shots=0)]


def requery_fraction(ops: list[Op]) -> float:
    """Share of ops naming a state spec that an earlier op of the list named."""
    seen, repeats = set(), 0
    for op in ops:
        spec = op.params.get("state")
        if spec is not None and spec in seen:
            repeats += 1
        seen.add(spec)
    return repeats / len(ops)
