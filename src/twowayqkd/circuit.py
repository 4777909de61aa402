"""Two-way coherent-state protocol in the entanglement-based picture.

One protocol use: Bob heterodynes one arm of an EPR pair (variance mu_B) and
sends the other arm to Alice; Alice implements her Gaussian displacement by
mixing the incoming mode with one arm of her own EPR pair (variance mu_A) on
a beam splitter of transmissivity eta, keeping the reflected port; the
travelling mode returns to Bob, who heterodynes it.  Eve taps both channel
passes (each a beam splitter of transmissivity T) with correlated ancillas.

Total output modes are ordered (B1, A, A'', B2): Bob's kept arm, Alice's kept
arm, Alice's reflected port, and the returned mode.  The ideal displacement
is recovered in the limit eta -> 1 with mu_A = mu/(1-eta) + 1 diverging,
where mu = mu_B - 1 is the classical modulation variance.

The closed forms of twowayqkd.protocol take that limit analytically; the
covariance matrices here are their oracle and part of the public toolbox.
No command of the CLI imports this module.
"""

import math
from typing import NamedTuple

import numpy as np

from . import gaussian
from .attacks import eve_cm
from .protocol import _check_regime


class _ProtocolFields(NamedTuple):
    T: float
    eta: float
    mu_B: float
    mu_A: float


class ProtocolParams(_ProtocolFields):
    """One two-way protocol instance: (T, eta, mu_B, mu_A).

    Checked on construction, also through _make and _replace: T by _check_regime,
    eta in (0, 1), and mu_B and mu_A (finite, >= 1 SNU) by gaussian._check_variance,
    each with a square that is a finite double, as total_cm needs.
    """

    __slots__ = ()

    def __new__(cls, T, eta, mu_B, mu_A):
        _check_regime(T)
        if not 0.0 < eta < 1.0:
            raise ValueError(f"beam-splitter transmissivity eta must lie in (0, 1), got {eta}")
        for name, value in (("mu_B", mu_B), ("mu_A", mu_A)):
            gaussian._check_variance(name, value)
            if not math.isfinite(float(value) * float(value)):
                raise ValueError(f"{name} variance must have a finite square, got {value}")
        return super().__new__(cls, T, eta, mu_B, mu_A)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def displacement_limit(cls, T, mu, eta=1.0 - 1e-6):
        """Parameters coupled for the ideal-displacement limit.

        Sets mu_B = mu + 1 and mu_A = mu/(1-eta) + 1, so that Alice's source
        variance diverges as eta -> 1 while her effective displacement keeps
        modulation variance mu.  (T, mu) is checked by protocol._check_regime.
        """
        _check_regime(T, mu)
        return cls(T=T, eta=eta, mu_B=mu + 1.0, mu_A=mu / (1.0 - eta) + 1.0)


# ---------------------------------------------------------------------------
# covariance matrices
# ---------------------------------------------------------------------------

def _coefficients(p, a):
    """Scalar coefficients of the total covariance matrix."""
    T, eta, muB, muA = p.T, p.eta, p.mu_B, p.mu_A
    w = a.omega
    phi = -math.sqrt(T * (1.0 - eta) * (muB * muB - 1.0))
    theta = T * math.sqrt(eta * (muB * muB - 1.0))
    k = eta * muA + (1.0 - eta) * (T * muB + (1.0 - T) * w)
    xi = math.sqrt(eta * (muA * muA - 1.0))
    tau = math.sqrt(T * (1.0 - eta) * (muA * muA - 1.0))
    eps = T * T * eta * muB + T * (1.0 - eta) * muA + (T * eta + 1.0) * (1.0 - T) * w
    g_eps = 2.0 * (1.0 - T) * math.sqrt(eta * T)
    delta = math.sqrt(T * eta * (1.0 - eta)) * (muA - T * muB - (1.0 - T) * w)
    g_delta = -(1.0 - T) * math.sqrt(1.0 - eta)
    return phi, theta, k, xi, tau, eps, g_eps, delta, g_delta


def total_cm(p, a):
    """Closed-form 8x8 covariance matrix of the output modes (B1, A, A'', B2).

    The 4x4 block matrix below, of 2x2 blocks built from I, Z = diag(1, -1) and
    G = diag(g, g'); every block is diagonal, so the matrix is symmetric.
    """
    phi, theta, k, xi, tau, eps, g_eps, delta, g_delta = _coefficients(p, a)
    I, O = np.eye(2), np.zeros((2, 2))
    Z = np.diag([1.0, -1.0])
    G = np.diag([a.g, a.g_prime])
    D = delta * I + g_delta * G
    E = eps * I + g_eps * G
    return np.block([
        [p.mu_B * I, O, phi * Z, theta * Z],
        [O, p.mu_A * I, xi * Z, tau * Z],
        [phi * Z, xi * Z, k * I, D],
        [theta * Z, tau * Z, D, E],
    ])


def total_cm_circuit(p, a):
    """Same state built by simulating the entanglement-based circuit.

    Starts from EPR(mu_B) x EPR(mu_A) x Eve's two-mode state, applies the
    forward-pass beam splitter (T), Alice's beam splitter (eta) and the
    backward-pass beam splitter (T), then traces out Eve's modes.  Serves as
    an independent oracle for every coefficient of total_cm.
    """
    # initial mode order: B1, B1', A, A', E1, E2
    V = gaussian.tensor(gaussian.epr_cm(p.mu_B), gaussian.epr_cm(p.mu_A), eve_cm(a))
    V = gaussian.apply_symplectic(gaussian.beam_splitter(p.T, (1, 4), 6), V)    # forward pass
    V = gaussian.apply_symplectic(gaussian.beam_splitter(p.eta, (1, 3), 6), V)  # Alice's displacement
    V = gaussian.apply_symplectic(gaussian.beam_splitter(p.T, (1, 5), 6), V)    # backward pass
    return gaussian.partial_trace(V, keep=(0, 2, 3, 1))  # -> B1, A, A'', B2


def bob_cm(p, a):
    """4x4 covariance matrix of Bob's modes (B1, B2): total_cm with Alice's modes traced out."""
    return gaussian.partial_trace(total_cm(p, a), keep=(0, 3))


def conditional_cm(p, a):
    """Bob's covariance matrix conditioned on Alice's detection.

    Implemented as bob_cm evaluated at mu_A = 1 with all other parameters
    unchanged, which removes Alice's modulation from the returned mode.
    """
    return bob_cm(p._replace(mu_A=1.0), a)
