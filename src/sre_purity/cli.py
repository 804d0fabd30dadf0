"""Command-line front end.

Subcommands: ``oracle`` (exact values), ``estimate`` (one seeded run),
``sweep`` (accuracy sweep table), ``verify`` (identity suites),
``complexity`` (sample-complexity table).

Exit codes: 0 success, 1 I/O error, 2 parse/config error, 3 size-guard
violation, 4 verification failure.

Single results are emitted as JSON, tables as CSV (or JSON with --format
json); both carry a metadata block (tool version, config echo, config hash)
so runs can be audited and reproduced byte-for-byte.  The config echo is the
parsed flags minus --out, --format and --dist.  Angles are radians; numbers use
dot decimals regardless of locale.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .bench import complexity_table, sweep_theta
from .channels import PreparationMethod
from .clifford import haar_random_state
from .errors import SizeGuardError
from .estimation import copies_required
from .oracle import a_alpha_exact, a_alpha_of, m_from_a, pauli_expectations
from .paulis import pauli_labels
from .pipeline import EstimationRequest, run_estimation
from .states import StateVector, phase_state, zero_state
from .verification import run_suite

_METHODS = {
    "exact": PreparationMethod.EXACT_MIXTURE,
    "coherent": PreparationMethod.COHERENT,
    "incoherent": PreparationMethod.INCOHERENT,
}


def parse_state_spec(spec: str) -> StateVector:
    """theta:<radians> | haar:<n>:<seed> | stab:<n> | file:<path>."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "theta":
            return phase_state(float(rest))
        if kind == "haar":
            n_str, _, seed_str = rest.partition(":")
            return haar_random_state(int(n_str), np.random.default_rng(int(seed_str)))
        if kind == "stab":
            return zero_state(int(rest))
        if kind == "file":
            with open(rest) as fh:
                pairs = json.load(fh)
            amps = np.array([complex(re, im) for re, im in pairs])
            if not np.all(np.isfinite(amps)):
                raise ValueError("amplitudes must be finite")
            n = int(math.log2(len(amps)))
            if len(amps) != 1 << n:
                raise ValueError(f"amplitude count {len(amps)} is not a power of two")
            norm_sq = float(np.vdot(amps, amps).real)
            if abs(norm_sq - 1.0) > 1e-6:
                raise ValueError(f"amplitudes have norm^2 {norm_sq!r}, not within 1e-6 of 1")
            return StateVector(n, amps / math.sqrt(norm_sq))
    except SizeGuardError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad state spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad state spec {spec!r}: unknown kind {kind!r}")


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        ends = float(start), float(stop)
        if not all(map(math.isfinite, ends)):
            raise ValueError("non-finite end")  # linspace would warn before phase_state refused it
        return np.linspace(*ends, int(count))
    except ValueError as exc:
        raise ValueError(f"bad grid {text!r}, expected start:stop:count with finite ends") from exc


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _config(args) -> dict:
    """Every parsed flag except the ones that choose how and where a report is written."""
    return {k: v for k, v in vars(args).items() if k not in ("func", "out", "format", "dist")}


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _meta(config: dict) -> dict:
    return {
        "tool": "sre-purity",
        "version": __version__,
        "config_hash": _config_hash(config),
        "config": config,
    }


def _sanitize(obj):
    """NaN is not valid JSON; map it to null (shots=1 runs have no stderr)."""
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _write(json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n", out)


def _emit_table(args, config: dict, header: tuple[str, ...], rows: list[tuple]) -> None:
    """Rows of values in ``header`` order, as CSV or, with --format json, as JSON."""
    if args.format == "json":
        table = [dict(zip(header, row)) for row in rows]
        _emit_json({"meta": _meta(config), "rows": table}, args.out)
        return
    lines = [f"# tool=sre-purity version={__version__}", f"# config_hash={_config_hash(config)}"]
    lines += [f"# {key}={config[key]}" for key in sorted(config)]
    lines.append(",".join(header))
    lines += [",".join(_csv_cell(value) for value in row) for row in rows]
    _write("\n".join(lines) + "\n", args.out)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# subcommands


def cmd_oracle(args) -> int:
    psi = parse_state_spec(args.state)
    if args.dist:
        # one evaluation of the 4^n expectations gives both A_alpha and the
        # distribution; a bad alpha is refused before it, as a_alpha_exact does
        if args.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {args.alpha}")
        expectations = pauli_expectations(psi)
        a_alpha = a_alpha_of(expectations, args.alpha)
    else:
        a_alpha = a_alpha_exact(psi, args.alpha)
    payload = {
        "meta": _meta(_config(args)),
        "state": args.state,
        "n": psi.n,
        "alpha": args.alpha,
        "a_alpha": a_alpha,
        "m_alpha": m_from_a(a_alpha, args.alpha) if args.alpha >= 2 else None,
    }
    if args.dist:
        payload["characteristic_distribution"] = list(expectations**2 / psi.dim)
        payload["pauli_order"] = pauli_labels(psi.n)
    _emit_json(payload, args.out)
    return 0


def cmd_estimate(args) -> int:
    psi = parse_state_spec(args.state)
    req = EstimationRequest(
        state=psi,
        alpha=args.alpha,
        epsilon=args.eps,
        delta=args.delta,
        method=_METHODS[args.method],
        seed=args.seed,
        state_spec=args.state,
        marginal=args.marginal,
        shots=args.shots,
    )
    report = run_estimation(req)
    budget = copies_required(args.alpha, psi.dim, args.eps, args.delta)
    payload = {"meta": _meta(_config(args))}
    payload.update(dataclasses.asdict(report))
    payload["m_defined"] = report.m_hat is not None
    payload["budget"] = dataclasses.asdict(budget)
    _emit_json(payload, args.out)
    return 0


def cmd_sweep(args) -> int:
    rows = sweep_theta(
        _parse_int_list(args.alphas), _parse_grid(args.theta_grid), args.eps, args.delta,
        args.seeds, method=_METHODS[args.method], master_seed=args.seed,
    )
    header = ("theta", "alpha", "estimate", "exact", "abs_error", "copies", "seed", "within_eps")
    table = [
        (r.theta, r.alpha, r.a_hat, r.a_exact, r.abs_error, r.copies_used, r.seed, r.within_eps)
        for r in rows
    ]
    _emit_table(args, _config(args), header, table)
    within = sum(r.within_eps for r in rows)
    print(f"sweep: {within}/{len(rows)} points within eps", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    for res in results:
        print(res.line())
    passed = sum(r.passed for r in results)
    print(f"verify[{args.suite}]: {passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 4


def cmd_complexity(args) -> int:
    psi = parse_state_spec(args.state)
    rows = complexity_table(
        [m for m in args.methods.split(",") if m], _parse_int_list(args.alphas), [args.eps],
        args.seeds, psi, delta=args.delta, master_seed=args.seed,
    )
    config = _config(args)
    # tomography is never simulated; its known copy bound rides along as a note
    config["footnote"] = (
        "tomography-based estimation of the same observable needs "
        "Theta(d ||O||_inf^2 eps^-2) copies (d^3 eps^-2 for even alpha, "
        "d eps^-2 for odd); not simulated"
    )
    header = ("method", "alpha", "epsilon", "copies", "empirical_rmse")
    table = [(r.method, r.alpha, r.epsilon_target, r.copies, r.empirical_rmse) for r in rows]
    _emit_table(args, config, header, table)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sre-purity",
        description="Stabilizer Renyi entropy estimation via purity encoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="exact A_alpha / M_alpha, no sampling")
    p.add_argument("--state", required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--dist", action="store_true", help="include the characteristic distribution")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("estimate", help="one seeded estimation run")
    p.add_argument("--state", required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--method", choices=sorted(_METHODS), default="coherent")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--marginal", choices=["copies", "ancilla"], default="copies",
                   help="coherent method: the register the swap test acts on "
                        "(both give the same purity)")
    p.add_argument("--shots", type=int, default=None,
                   help="override the budget (0 = analytic, no sampling)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="accuracy sweep over theta and alpha")
    p.add_argument("--alphas", default="2,3,5,7")
    p.add_argument("--theta-grid", default=f"0:{math.pi / 2}:9")
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--method", choices=sorted(_METHODS), default="coherent")
    p.add_argument("--seed", type=int, default=0, help="master seed for stream derivation")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the identity-verification suites")
    p.add_argument("--suite", default="all",
                   choices=["all", "theorem1", "replica", "monotone", "twirl", "normalization"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("complexity", help="sample-complexity comparison table")
    p.add_argument("--state", default="haar:2:7")
    p.add_argument("--methods", default="swap_purity,direct_gamma,direct_single_copy")
    p.add_argument("--alphas", default="2")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_complexity)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"size guard: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
