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
from .errors import PURE_QUBITS, TABLE_DRAWS, SizeGuardError, check_alpha, check_size
from .oracle import a_alpha_of, m_from_a, pauli_expectations
from .paulis import pauli_labels
from .pipeline import EstimationRequest, run_estimation
from .states import StateVector, phase_state, zero_state
from .verification import SUITES, run_suite

_METHODS = {
    "exact": PreparationMethod.EXACT_MIXTURE,
    "coherent": PreparationMethod.COHERENT,
    "incoherent": PreparationMethod.INCOHERENT,
}


def parse_state_spec(spec: str) -> StateVector:
    """theta:<radians> | haar:<n>:<seed> | stab:<n> | file:<path>.

    The one place a state enters the program, and so the one place it is
    checked: finite amplitudes, 2^n of them for 1 <= n <= PURE_QUBITS, of norm
    one (a file's within 1e-6, then renormalized).  A file is refused before
    it is decoded when its brackets count 2^(PURE_QUBITS + 1) pairs or more.
    ``StateVector`` checks nothing.
    """
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
            with open(rest, "rb") as fh:
                raw = fh.read()
            # refused before decoding: the list opens one bracket more than it
            # holds pairs, and 2^(PURE_QUBITS + 1) pairs are past the qubit guard
            # whether or not their count is a power of two
            count = raw.count(b"[") - 1
            if count >= 2 << PURE_QUBITS:
                check_size("pure-state qubits", count.bit_length() - 1, PURE_QUBITS)
            pairs = json.loads(raw)
            amps = np.array([complex(re, im) for re, im in pairs])
            if len(amps) == 0:
                raise ValueError("no amplitudes")
            if not np.all(np.isfinite(amps)):
                raise ValueError("amplitudes must be finite")
            n = int(math.log2(len(amps)))
            if len(amps) != 1 << n:
                raise ValueError(f"amplitude count {len(amps)} is not a power of two")
            norm_sq = float(np.vdot(amps, amps).real)
            if abs(norm_sq - 1.0) > 1e-6:
                raise ValueError(f"amplitudes have norm^2 {norm_sq!r}, not within 1e-6 of 1")
            check_size("pure-state qubits", n, PURE_QUBITS)
            return StateVector(n, amps / math.sqrt(norm_sq))
    except SizeGuardError:
        raise
    except (TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"bad state spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad state spec {spec!r}: unknown kind {kind!r}")


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        ends, points = (float(start), float(stop)), int(count)
        if not all(map(math.isfinite, ends)):
            raise ValueError("non-finite end")  # linspace would warn before phase_state refused it
        if points < 0:
            raise ValueError("negative count")
    except ValueError as exc:
        raise ValueError(f"bad grid {text!r}, expected start:stop:count with finite ends") from exc
    if points > 0:  # an empty grid is refused with the table's other config errors
        check_size("theta-grid points", points, TABLE_DRAWS)
    return np.linspace(*ends, points)


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


def _write(text: str | list[str], out: str | None) -> None:
    """Write ``text``, or its chunks in order, to the file ``out`` or to stdout."""
    chunks = [text] if isinstance(text, str) else text
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_json(payload: dict, out: str | None) -> None:
    # a NaN or infinite number is a fault, refused rather than written as invalid JSON
    _write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n", out)


_BLOCK = 4096  # rows per column pass of _emit_table


def _emit_table(args, config: dict, header: tuple[str, ...], rows: list[tuple]) -> None:
    """Rows of values in ``header`` order, as CSV or, with --format json, as the
    bytes of ``json.dumps({"meta": ..., "rows": [dict(zip(header, row)), ...]},
    sort_keys=True, indent=2)``.

    Each column of a block of rows is formatted in one pass (see
    ``_column_texts``) and every row fills one template, whose JSON keys are
    sorted and indented as ``json.dumps`` would.  A NaN or infinite cell is
    refused in either format.
    """
    as_json = args.format == "json"
    if as_json:
        meta = json.dumps(_meta(config), sort_keys=True, indent=2, allow_nan=False)
        head = '{\n  "meta": ' + meta.replace("\n", "\n  ") + ',\n  "rows": ['
        columns = sorted(range(len(header)), key=header.__getitem__)
        fields = ",\n".join(f"      {json.dumps(header[c])}: %s" for c in columns)
        template = "\n    {\n" + fields + "\n    },"
    else:
        lines = [f"# tool=sre-purity version={__version__}",
                 f"# config_hash={_config_hash(config)}"]
        lines += [f"# {key}={config[key]}" for key in sorted(config)]
        head = "\n".join(lines) + "\n" + ",".join(header) + "\n"
        columns = range(len(header))
        template = ",".join(["%s"] * len(header)) + "\n"
    chunks = [head]
    for start in range(0, len(rows), _BLOCK):
        block = list(zip(*rows[start:start + _BLOCK]))
        cells = [_column_texts(header[c], block[c], as_json) for c in columns]
        chunks.append("".join(map(template.__mod__, zip(*cells))))
    if as_json and rows:
        chunks[-1] = chunks[-1][:-1] + "\n  ]\n}\n"  # no comma after the last row
    elif as_json:
        chunks.append("]\n}\n")
    _write(chunks, args.out)


def _column_texts(name: str, values: tuple, as_json: bool) -> list[str] | tuple[str, ...]:
    """The cell texts of one column's values, all of one type.

    Strings are bare in CSV and quoted in JSON.  Numbers and bools take one
    ``json.dumps`` of the whole column, whose C encoder writes ``repr`` for an
    int or float and true/false for a bool, the same text in both formats.
    """
    if isinstance(values[0], str):
        return list(map(json.dumps, values)) if as_json else values
    try:
        return json.dumps(values, allow_nan=False)[1:-1].split(", ")
    except ValueError as exc:  # a NaN or infinite number is a fault, not a cell
        raise ValueError(f"column {name!r}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_oracle(args) -> int:
    psi = parse_state_spec(args.state)
    check_alpha(args.alpha)  # before the 4^n expectations that give A_alpha and the distribution
    expectations = pauli_expectations(psi)
    a_alpha = a_alpha_of(expectations, args.alpha)
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
    payload = {"meta": _meta(_config(args))}
    payload.update(dataclasses.asdict(report))
    payload["m_defined"] = report.m_hat is not None
    _emit_json(payload, args.out)
    return 0


def cmd_sweep(args) -> int:
    rows = sweep_theta(
        _parse_int_list(args.alphas), _parse_grid(args.theta_grid), args.eps, args.delta,
        args.seeds, method=_METHODS[args.method], master_seed=args.seed,
    )
    header = ("theta", "alpha", "estimate", "exact", "abs_error", "copies", "seed", "within_eps")
    _emit_table(args, _config(args), header, rows)
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
    _emit_table(args, config, header, rows)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``error:`` line and exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
                   help="the register the swap test acts on; ancilla needs "
                        "--method coherent (both give the same purity)")
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
    p.add_argument("--suite", default="all", choices=["all", *SUITES])
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
