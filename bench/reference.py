"""Fixed work that stands for the host's speed in `run.py`.

An untraced run starts this script after every CLI invocation and expresses
the invocations' wall and CPU time in units of this script's own.  On a
shared virtual machine the speed of execution moves by a quarter over
minutes; the CLI and this script slow down together, so the ratio holds
still where the raw times do not.

The script does what an invocation does, in fixed amounts: a fresh
interpreter imports numpy and scipy.special, runs scalar float code (as the
rate evaluations inside bisection do), small numpy linear algebra one matrix
at a time (as the one-way path does) and batched eigendecompositions of 4x4
matrices (as the physicality mask does).  It prints a checksum.

Changing the work changes the unit: `wall_s` and `cpu_s` measured before
and after such a change cannot be compared.
"""

import math

import numpy as np
from scipy.special import xlogy

SCALAR_POINTS = 80_000
SMALL_MATRICES = 3_000
BATCH = 30_000


def _h(nu):
    """Entropic function of a symplectic eigenvalue nu > 1, in bits."""
    a, b = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    return (a * math.log(a) - b * math.log(b)) / math.log(2.0)


def scalar_part():
    total = 0.0
    for i in range(SCALAR_POINTS):
        nu = 1.0 + 1e-3 + i * 1e-5
        total += _h(nu) - _h(math.sqrt(nu * (nu + 0.5)))
    return total


def small_matrix_part():
    base = np.array([[2.0, 0.0, 0.7, 0.0],
                     [0.0, 2.0, 0.0, -0.7],
                     [0.7, 0.0, 2.0, 0.0],
                     [0.0, -0.7, 0.0, 2.0]])
    total = 0.0
    for i in range(SMALL_MATRICES):
        w = np.linalg.eigvalsh(base + i * 1e-6)
        total += float(np.sum(xlogy(w, w)))
    return total


def batched_part():
    g = np.linspace(-1.9, 1.9, BATCH)
    V = np.zeros((BATCH, 4, 4))
    idx = np.arange(4)
    V[:, idx, idx] = 2.0
    V[:, 0, 2] = V[:, 2, 0] = g
    V[:, 1, 3] = V[:, 3, 1] = -g[::-1]
    w, U = np.linalg.eigh(V)
    root = (U * np.sqrt(np.abs(w))[:, None, :]) @ np.transpose(U, (0, 2, 1))
    return float(np.sum(np.linalg.eigvalsh(root @ root)))


def main():
    print(f"{scalar_part() + small_matrix_part() + batched_part():.9e}")


if __name__ == "__main__":
    main()
