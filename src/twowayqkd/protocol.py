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

The closed-form rate functions take that limit analytically and depend only
on (T, omega, g, g'), plus mu for the quantities that keep a log(mu) term.
"""

import math
from collections import namedtuple
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import gaussian
from .attacks import AttackParams, eve_cm, require_physical
from .errors import UnphysicalStateError
from .gaussian import entropic_h

_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # T, T*mu or (1-T)*mu below it: a square underflows


@dataclass(frozen=True)
class ProtocolParams:
    """One two-way protocol instance: (T, eta, mu_B, mu_A)."""

    T: float
    eta: float
    mu_B: float
    mu_A: float

    def __post_init__(self):
        if not 0.0 < self.T < 1.0:
            raise ValueError(f"channel transmissivity T must lie in (0, 1), got {self.T}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"beam-splitter transmissivity eta must lie in (0, 1), got {self.eta}")
        if not self.mu_B >= 1.0:
            raise ValueError(f"mu_B must be >= 1 SNU, got {self.mu_B}")
        if not self.mu_A >= 1.0:
            raise ValueError(f"mu_A must be >= 1 SNU, got {self.mu_A}")

    @classmethod
    def displacement_limit(cls, T, mu, eta=1.0 - 1e-6):
        """Parameters coupled for the ideal-displacement limit.

        Sets mu_B = mu + 1 and mu_A = mu/(1-eta) + 1, so that Alice's source
        variance diverges as eta -> 1 while her effective displacement keeps
        modulation variance mu.
        """
        if not 0.0 < mu < math.inf:
            raise ValueError(f"modulation variance mu must be positive and finite, got {mu}")
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
    """Closed-form 8x8 covariance matrix of the output modes (B1, A, A'', B2)."""
    phi, theta, k, xi, tau, eps, g_eps, delta, g_delta = _coefficients(p, a)
    I = np.eye(2)
    Z = np.diag([1.0, -1.0])
    G = np.diag([a.g, a.g_prime])
    V = np.zeros((8, 8))

    def put(i, j, block):
        V[2 * i:2 * i + 2, 2 * j:2 * j + 2] = block
        if i != j:
            V[2 * j:2 * j + 2, 2 * i:2 * i + 2] = block.T

    put(0, 0, p.mu_B * I)
    put(1, 1, p.mu_A * I)
    put(2, 2, k * I)
    put(3, 3, eps * I + g_eps * G)
    put(0, 2, phi * Z)
    put(0, 3, theta * Z)
    put(1, 2, xi * Z)
    put(1, 3, tau * Z)
    put(2, 3, delta * I + g_delta * G)
    return V


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
    """4x4 covariance matrix of Bob's modes (B1, B2), Alice's modes traced out."""
    _, theta, _, _, _, eps, g_eps, _, _ = _coefficients(p, a)
    Z = np.diag([1.0, -1.0])
    G = np.diag([a.g, a.g_prime])
    V = np.zeros((4, 4))
    V[:2, :2] = p.mu_B * np.eye(2)
    V[2:, 2:] = eps * np.eye(2) + g_eps * G
    V[:2, 2:] = theta * Z
    V[2:, :2] = theta * Z
    return V


def conditional_cm(p, a):
    """Bob's covariance matrix conditioned on Alice's detection.

    Implemented as bob_cm evaluated at mu_A = 1 with all other parameters
    unchanged, which removes Alice's modulation from the returned mode.
    """
    return bob_cm(replace(p, mu_A=1.0), a)


def conditioning_deviation(p, a):
    """Gap between the mu_A = 1 substitution and exact heterodyne conditioning.

    Heterodynes mode A of the total state exactly, leaving (B1, A'', B2), and
    compares the two largest symplectic eigenvalues with the spectrum of
    conditional_cm.  Returns (max relative deviation, residual third
    eigenvalue); the residual sits at 1 when mode A'' decouples, which happens
    only in the eta -> 1 displacement limit.
    """
    exact = gaussian.symplectic_spectrum(gaussian.heterodyne_condition(total_cm(p, a), measured=1))
    approx = gaussian.symplectic_spectrum(conditional_cm(p, a))
    dev = float(np.max(np.abs(exact[:2] - approx) / approx))
    return dev, float(exact[2])


# ---------------------------------------------------------------------------
# asymptotic spectra, entropies and rates
# ---------------------------------------------------------------------------

_TwoWay = namedtuple("_TwoWay", "nu1 nu2 nubar1 sigma sigma_prime Delta S S_cond")


def _two_way_arrays(T, omega, g, g_hi, g_prime, gp_hi):
    """The modulation-free two-way closed form over the box [g, g_hi] x [g', gp_hi],
    broadcast over all six arguments; a point is the box with g_hi = g, gp_hi = g'.

    A _TwoWay of the finite spectra nu1, nu2 (total state) and nubar1 (Bob's
    conditional state), sigma, sigma', Delta, and S = h(nu1) + h(nu2) and
    S_cond = h(nubar1), so that Eve's entropy term is S - S_cond.  The three
    spectra go through one entropic_h call, their squares floored at 1.
    Where |g|, |g'| <= omega every term of the rate is monotone in g and in
    g': sigma, sigma', nu2 and nubar1 rise (r > 0), nu1 falls, and entropic_h
    never steps down.  So nu1 and nubar1 come from the lower corner and nu2,
    sigma and sigma' from the upper one, and the rate of a box is at most the
    rate at any of its points.  At g = g' = 0 the spectra are omega and
    sigma = sigma' = Delta exactly, so that term is (h + h) - h = h(omega),
    with no rounding.  Which attacks are physical is decided by the callers
    (attacks.require_physical or attacks._physical_mask), not here.
    """
    omega = np.asarray(omega, dtype=float)  # float radicands even for integer attacks
    st = np.sqrt(T)
    Delta = 1.0 + T * T + (1.0 - T * T) * omega
    r = 2.0 * st / (1.0 + T)
    nu = np.stack(np.broadcast_arrays(
        (omega - g) * (omega - g_prime), (omega + g_hi) * (omega + gp_hi),
        (omega + g * r) * (omega + g_prime * r)))
    nu = np.sqrt(np.maximum(nu, 1.0, out=nu), out=nu)
    h = entropic_h(nu)
    return _TwoWay(nu[0], nu[1], nu[2], Delta + 2.0 * g_hi * (1.0 - T) * st,
                   Delta + 2.0 * gp_hi * (1.0 - T) * st, Delta, h[0] + h[1], h[2])


def _rate(T, c):
    """Key rate R = log2(2T(1+T) / (e (1-T) sqrt(sigma sigma'))) - (S - S_cond) of a _TwoWay."""
    return (np.log2(2.0 * T * (1.0 + T) / (np.e * (1.0 - T) * np.sqrt(c.sigma * c.sigma_prime)))
            - (c.S - c.S_cond))


def _information(T, c, mu):
    """(I_AB, chi_EA) in bits of a _TwoWay at modulation mu.

    I_AB = (1/2) log2(T^2 mu^2 / (sigma sigma')) and
    chi_EA = S - S_cond + log2((e/2) (1-T)/(1+T) mu).
    """
    return (0.5 * np.log2(T * T * mu * mu / (c.sigma * c.sigma_prime)),
            c.S - c.S_cond + np.log2(0.5 * np.e * (1.0 - T) / (1.0 + T) * mu))


def _keyrate_arrays(T, omega, g, g_prime):
    """Asymptotic key rate, broadcast over all four arguments."""
    return _rate(T, _two_way_arrays(T, omega, g, g, g_prime, g_prime))


def _rate_lower_bound(T, omega, g_lo, g_hi, gp_lo, gp_hi):
    """Lower bound of _keyrate_arrays over the boxes [g_lo, g_hi] x [gp_lo, gp_hi] of
    attacks with |g|, |g'| <= omega, broadcast over all six arguments."""
    return _rate(T, _two_way_arrays(T, omega, g_lo, g_hi, gp_lo, gp_hi))


def _information_arrays(T, omega, g, g_prime, mu):
    """(I_AB, chi_EA) in bits, broadcast over all five arguments."""
    return _information(T, _two_way_arrays(T, omega, g, g, g_prime, g_prime), mu)


def _check_regime(T, mu=None):
    """Reject T outside (0, 1) or below the smallest normal double (where the rate's
    log2 term underflows), a modulation variance outside (0, MAX_VARIANCE], and a
    (T, mu) pair whose T^2 mu^2 (in I_AB) or (1-T)^2 mu^2 (in S_E) leaves the
    normal doubles."""
    if not 0.0 < T < 1.0:
        raise ValueError(f"channel transmissivity T must lie in (0, 1), got {T}")
    if T < np.finfo(float).tiny:
        raise ValueError(f"channel transmissivity T must be at least the smallest normal "
                         f"double {np.finfo(float).tiny:.3g}, got {T}")
    if mu is not None and not 0.0 < mu < math.inf:
        raise ValueError(f"modulation variance mu must be positive and finite, got {mu}")
    if mu is not None and mu > gaussian.MAX_VARIANCE:
        raise ValueError(f"modulation variance mu must be <= {gaussian.MAX_VARIANCE:g}, got {mu}")
    if mu is not None and not min(T, T * mu) >= _SQRT_TINY:
        raise ValueError(f"T and T*mu must both be at least {_SQRT_TINY:.3g}, or T^2 mu^2 "
                         f"underflows; got T={T}, mu={mu}")
    if mu is not None and not (1.0 - T) * mu >= _SQRT_TINY:
        raise ValueError(f"(1-T)*mu must be at least {_SQRT_TINY:.3g}, or (1-T)^2 mu^2 "
                         f"underflows; got T={T}, mu={mu}")


def _two_way_at(T, a, mu=None):
    """The closed form at one attack, after checking T, mu, the type of a and, through
    attacks.require_physical, that a is physical (UnphysicalAttackError if not)."""
    _check_regime(T, mu)
    if not isinstance(a, AttackParams):
        raise TypeError(f"expected AttackParams, got {type(a).__name__}")
    require_physical(a)
    return _two_way_arrays(T, a.omega, a.g, a.g, a.g_prime, a.g_prime)


def asymptotic_total_spectrum(T, a, mu):
    """Large-modulation symplectic spectrum of the total output state.

    Returns (nu1, nu2, nu3*nu4): two finite eigenvalues
    nu1 = sqrt((w-g)(w-g')) and nu2 = sqrt((w+g)(w+g')), which coincide with
    the spectrum of Eve's input state, and the product of the two divergent
    ones, (1-T)^2 mu^2.  At the collective point g = g' = 0 both are omega
    exactly: sqrt(fl(w*w)) == w for every w in [1, MAX_VARIANCE].
    """
    c = _two_way_at(T, a, mu)
    return float(c.nu1), float(c.nu2), (1.0 - T) ** 2 * mu * mu


def total_entropy_asymptotic(T, a, mu):
    """Large-modulation entropy of the total output state, in bits."""
    c = _two_way_at(T, a, mu)
    return float(c.S) + math.log2(0.25 * np.e * np.e * ((1.0 - T) ** 2 * mu * mu))


def conditional_spectrum_asymptotic(T, a, mu):
    """Large-modulation spectrum (nubar1, nubar2) of Bob's conditional state.

    nubar1 = sqrt((w + 2g sqrt(T)/(1+T)) (w + 2g' sqrt(T)/(1+T))) stays
    finite; nubar2 = (1 - T^2) mu diverges with the modulation.
    """
    return float(_two_way_at(T, a, mu).nubar1), (1.0 - T * T) * mu


def conditional_entropy_asymptotic(T, a, mu):
    """Large-modulation entropy of Bob's conditional state, in bits."""
    c = _two_way_at(T, a, mu)
    return float(c.S_cond) + math.log2(0.5 * np.e * ((1.0 - T * T) * mu))


def holevo_asymptotic(T, a, mu):
    """Holevo bound on Eve's information about Alice's variable, in bits.

    chi = h(nu1) + h(nu2) - h(nubar1) + log2((e/2) (1-T)/(1+T) mu).
    """
    return float(_information(T, _two_way_at(T, a, mu), mu)[1])


def mutual_information_asymptotic(T, a, mu):
    """Alice-Bob mutual information for heterodyne read-out, in bits.

    Returns (I_AB, sigma, sigma', Delta) with Delta = 1 + T^2 + (1-T^2) w,
    sigma = Delta + 2g(1-T)sqrt(T), sigma' likewise with g', and
    I_AB = (1/2) log2(T^2 mu^2 / (sigma sigma')).
    """
    c = _two_way_at(T, a, mu)
    return (float(_information(T, c, mu)[0]), float(c.sigma), float(c.sigma_prime),
            float(c.Delta))


def keyrate_asymptotic(T, a):
    """Asymptotic secret-key rate in bits per protocol use (direct reconciliation).

    R = log2( 2T(1+T) / (e (1-T) sqrt(sigma sigma')) ) - (h(nu1) + h(nu2) - h(nubar1));
    the log(mu) terms of the mutual information and the Holevo bound cancel,
    so R carries no modulation dependence.
    """
    return float(_rate(T, _two_way_at(T, a)))


@dataclass(frozen=True)
class KeyRateReport:
    """All intermediate quantities behind one key-rate evaluation.

    Spectra and conditional variances are in SNU; entropies and information
    quantities in bits.  Quantities with a log(mu) term are evaluated at the
    modulation used to build the report; R itself is modulation-free.
    """

    nu1: float
    nu2: float
    nu3nu4_product: float
    nubar1: float
    nubar2: float
    S_E: float
    S_E_cond: float
    I_AB: float
    chi_EA: float
    R: float
    sigma: float
    sigma_prime: float
    Delta: float

    def to_dict(self):
        return asdict(self)


def keyrate_report(T, a, mu=1e6):
    """Full report (spectra, entropies, I_AB, chi_EA, R) for one parameter point.

    One check of the arguments and one evaluation of the closed form; every
    field equals the public function that returns it alone.
    """
    c = _two_way_at(T, a, mu)
    iab, chi = map(float, _information(T, c, mu))
    rate = float(_rate(T, c))
    if not (abs(rate - (iab - chi)) <= 1e-10 and chi >= -1e-9):
        raise UnphysicalStateError(
            f"inconsistent report: R={rate}, I_AB={iab}, chi_EA={chi} "
            "(need R = I_AB - chi_EA and chi_EA >= 0)")
    product, nubar2 = (1.0 - T) ** 2 * mu * mu, (1.0 - T * T) * mu
    return KeyRateReport(
        nu1=float(c.nu1), nu2=float(c.nu2), nu3nu4_product=product, nubar1=float(c.nubar1),
        nubar2=nubar2, S_E=float(c.S) + math.log2(0.25 * np.e * np.e * product),
        S_E_cond=float(c.S_cond) + math.log2(0.5 * np.e * nubar2), I_AB=iab, chi_EA=chi, R=rate,
        sigma=float(c.sigma), sigma_prime=float(c.sigma_prime), Delta=float(c.Delta))
