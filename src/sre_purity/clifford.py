"""Random state and circuit sampling: Haar states, Clifford circuits,
stabilizer states.

Clifford circuits are uniform words over {H, S, CNOT} (CNOT dropped at n=1)
of depth 3*n^2, which mixes well enough for the invariance and faithfulness
tests; no attempt is made to sample the Clifford group uniformly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PURE_QUBITS, check_size
from .states import HADAMARD, StateVector, apply_cnot, apply_single_qubit_gate, zero_state

_S = np.array([[1.0, 0.0], [0.0, 1.0j]])


def haar_random_state(n: int, rng: np.random.Generator) -> StateVector:
    """Normalized vector of iid standard complex Gaussian amplitudes."""
    check_size("pure-state qubits", n, PURE_QUBITS)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def random_clifford_circuit(n: int, rng: np.random.Generator):
    """List of 3 n^2 (gate_name, qubits) drawn uniformly from {H, S, CNOT}."""
    names = ["H", "S", "CNOT"] if n >= 2 else ["H", "S"]
    circuit = []
    for _ in range(3 * n * n):
        name = names[rng.integers(len(names))]
        if name == "CNOT":
            c, t = rng.choice(n, size=2, replace=False)
            circuit.append((name, (int(c), int(t))))
        else:
            circuit.append((name, (int(rng.integers(n)),)))
    return circuit


def apply_circuit(psi: StateVector, circuit) -> StateVector:
    out = psi
    for name, qubits in circuit:
        if name == "H":
            out = apply_single_qubit_gate(out, HADAMARD, qubits[0])
        elif name == "S":
            out = apply_single_qubit_gate(out, _S, qubits[0])
        elif name == "CNOT":
            out = apply_cnot(out, qubits[0], qubits[1])
        else:
            raise ValueError(f"unknown gate {name!r}")
    return out


def random_clifford_state(n: int, rng: np.random.Generator) -> StateVector:
    return apply_circuit(zero_state(n), random_clifford_circuit(n, rng))


def single_qubit_stabilizer_states() -> dict[str, StateVector]:
    """The six single-qubit stabilizer states."""
    s = 1 / math.sqrt(2)
    return {
        "0": StateVector(1, np.array([1.0, 0.0], dtype=complex)),
        "1": StateVector(1, np.array([0.0, 1.0], dtype=complex)),
        "+": StateVector(1, np.array([s, s], dtype=complex)),
        "-": StateVector(1, np.array([s, -s], dtype=complex)),
        "+i": StateVector(1, np.array([s, 1j * s])),
        "-i": StateVector(1, np.array([s, -1j * s])),
    }
