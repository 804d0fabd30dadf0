"""Shared exception types, kept separate so the CLI can map them to exit codes,
and the size-guard table.

Every site that allocates an object whose size grows with the input checks
the size it is about to allocate against one of the limits below with
``check_size`` first, so an oversized request is refused before anything is
allocated for it.
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
