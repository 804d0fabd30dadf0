"""Shared exception types, kept separate so the CLI can map them to exit codes,
the size-guard table and the argument rules.

Every site that allocates an object whose size grows with the input checks
the size it is about to allocate against one of the limits below with
``check_size`` first, so an oversized request is refused before anything is
allocated for it.  Each argument rule runs where a command takes the argument
in; downstream, only the copy budget and the sampler call the rule they own.
"""


class DimensionError(ValueError):
    """Operands live on different qubit counts or incompatible dimensions."""


class SizeGuardError(ValueError):
    """A requested object exceeds the configured desk-scale size limits."""


# The size-guard table.
PAULI_QUBITS = 12  # qubits of one Pauli string
PURE_QUBITS = 20  # qubits of a pure state
DENSE_DIM = 4096  # dimension of a density matrix
OPERATOR_DIM = 1024  # dimension of an explicit operator matrix
EXACT_WORK = 2**36  # multiply-adds of the exact mixture, d^2 dim^2
SHOTS = 2**63 - 1  # shots of one binomial draw (numpy draws int64 counts)
TABLE_DRAWS = 2**19  # seeded binomial draws of a sweep or complexity table (d^2 per direct seed)


def check_size(what: str, value: int, limit: int) -> None:
    """Refuse ``value`` unless 1 <= value <= limit."""
    if not 1 <= value <= limit:
        raise SizeGuardError(f"{what} {value} is outside the size guard [1, {limit}]")


def check_alpha(alpha: int) -> None:
    """Refuse a Rényi order below 1 (A_alpha is defined for alpha >= 1)."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")


def check_targets(epsilon: float, delta: float) -> None:
    """Refuse an additive error or failure probability outside (0, 1]."""
    if not 0 < epsilon <= 1 or not 0 < delta <= 1:
        raise ValueError(f"epsilon and delta must lie in (0, 1], got {epsilon}, {delta}")


def check_shots(shots: int) -> None:
    """Refuse a swap-test shot count below 1 or past one binomial draw."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    check_size("shots", shots, SHOTS)


def check_seed(seed: int) -> None:
    """Refuse a negative seed, with the message numpy's SeedSequence gives."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
