"""Stabilizer Rényi entropy estimation via purity encoding.

The package simulates an estimation scheme in which the order-alpha
stabilizer Rényi entropy of a pure state is read off the purity of the state
obtained by applying every Pauli string, uniformly at random, to alpha copies
of the input.  It ships an exact oracle, three channel preparations, a
swap-test sampler that draws each run from its route's exact purity, the
replica-trick observable, and verification suites for every identity the
construction rests on.
"""

__version__ = "0.1.0"
