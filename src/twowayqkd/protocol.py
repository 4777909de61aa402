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
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import gaussian
from .attacks import AttackParams, eve_cm, require_physical
from .errors import UnphysicalStateError
from .gaussian import entropic_h

_EPS = np.finfo(float).eps


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

def _clamped_sqrt(radicand, scale):
    """sqrt of a squared symplectic eigenvalue with a rounding-floor clamp.

    Physical attacks keep all radicands >= 1, and attacks that pass
    attacks.is_physical (eigenvalues >= 1 - BONA_FIDE_ATOL) keep them >=
    (1 - BONA_FIDE_ATOL)^2; floating-point cancellation can leave them a few
    ulps of scale^2 below.  Values inside that band clamp to 1, anything
    lower is an unphysical regime.
    """
    radicand = np.asarray(radicand, dtype=float)
    floor = (1.0 - gaussian.BONA_FIDE_ATOL) ** 2 - 64.0 * _EPS * scale * scale
    if np.any(radicand < floor):
        raise UnphysicalStateError(
            f"squared symplectic eigenvalue {radicand.min()} below 1: unphysical attack regime")
    return np.sqrt(np.maximum(radicand, 1.0))


def _total_spectrum_arrays(omega, g, g_prime):
    nu1 = _clamped_sqrt((omega - g) * (omega - g_prime), omega)
    nu2 = _clamped_sqrt((omega + g) * (omega + g_prime), omega)
    return nu1, nu2


def _conditional_nu_arrays(T, omega, g, g_prime):
    r = 2.0 * np.sqrt(T) / (1.0 + T)
    return _clamped_sqrt((omega + g * r) * (omega + g_prime * r), omega)


def _sigma_arrays(T, omega, g, g_prime):
    st = np.sqrt(T)
    Delta = 1.0 + T * T + (1.0 - T * T) * omega
    sigma = Delta + 2.0 * g * (1.0 - T) * st
    sigma_p = Delta + 2.0 * g_prime * (1.0 - T) * st
    return sigma, sigma_p, Delta


def _keyrate_arrays(T, omega, g, g_prime):
    """Asymptotic key rate, broadcast over all four arguments.

    Lanes with g = g' = 0 take the collective reduction nu1 = nu2 = nubar1 =
    omega, so R = log2(...) - h(omega) there, one rounding closer than the
    general form.  (Their sqrt(sigma sigma') = sqrt(Delta^2) is Delta
    exactly: a correctly rounded square root of a correctly rounded square
    returns the operand in binary floating point.)
    """
    nu1, nu2 = _total_spectrum_arrays(omega, g, g_prime)
    nubar1 = _conditional_nu_arrays(T, omega, g, g_prime)
    sigma, sigma_p, _ = _sigma_arrays(T, omega, g, g_prime)
    log_term = np.log2(2.0 * T * (1.0 + T) / (np.e * (1.0 - T) * np.sqrt(sigma * sigma_p)))
    rate = np.asarray(log_term - entropic_h(nu1) - entropic_h(nu2) + entropic_h(nubar1))
    np.subtract(log_term, entropic_h(omega), out=rate, where=(g == 0.0) & (g_prime == 0.0))
    return rate


def _information_arrays(T, omega, g, g_prime, mu):
    """(I_AB, chi_EA) in bits, broadcast over all five arguments.

    I_AB = (1/2) log2(T^2 mu^2 / (sigma sigma')) and
    chi_EA = h(nu1) + h(nu2) - h(nubar1) + log2((e/2) (1-T)/(1+T) mu).
    """
    sigma, sigma_p, _ = _sigma_arrays(T, omega, g, g_prime)
    if np.any(sigma <= 0.0) or np.any(sigma_p <= 0.0):
        raise UnphysicalStateError(f"conditional variances sigma={np.min(sigma)}, "
                                   f"sigma'={np.min(sigma_p)} not positive")
    nu1, nu2 = _total_spectrum_arrays(omega, g, g_prime)
    nubar1 = _conditional_nu_arrays(T, omega, g, g_prime)
    iab = 0.5 * np.log2(T * T * mu * mu / (sigma * sigma_p))
    chi = (entropic_h(nu1) + entropic_h(nu2) - entropic_h(nubar1)
           + np.log2(0.5 * np.e * (1.0 - T) / (1.0 + T) * mu))
    return iab, chi


def _check_regime(T, mu=None):
    """Reject T outside (0, 1) and a modulation variance outside (0, MAX_VARIANCE]."""
    if not 0.0 < T < 1.0:
        raise ValueError(f"channel transmissivity T must lie in (0, 1), got {T}")
    if mu is not None and not 0.0 < mu < math.inf:
        raise ValueError(f"modulation variance mu must be positive and finite, got {mu}")
    if mu is not None and mu > gaussian.MAX_VARIANCE:
        raise ValueError(f"modulation variance mu must be <= {gaussian.MAX_VARIANCE:g}, got {mu}")


def _check_asymptotic_args(T, a, mu=None):
    _check_regime(T, mu)
    if not isinstance(a, AttackParams):
        raise TypeError(f"expected AttackParams, got {type(a).__name__}")


def asymptotic_total_spectrum(T, a, mu):
    """Large-modulation symplectic spectrum of the total output state.

    Returns (nu1, nu2, nu3*nu4): two finite eigenvalues
    nu1 = sqrt((w-g)(w-g')) and nu2 = sqrt((w+g)(w+g')), which coincide with
    the spectrum of Eve's input state, and the product of the two divergent
    ones, (1-T)^2 mu^2.  At the collective point g = g' = 0 both are omega
    exactly: sqrt(fl(w*w)) == w for every w in [1, MAX_VARIANCE].
    """
    _check_asymptotic_args(T, a, mu)
    nu1, nu2 = _total_spectrum_arrays(a.omega, a.g, a.g_prime)
    return float(nu1), float(nu2), (1.0 - T) ** 2 * mu * mu


def total_entropy_asymptotic(T, a, mu):
    """Large-modulation entropy of the total output state, in bits."""
    nu1, nu2, product = asymptotic_total_spectrum(T, a, mu)
    return entropic_h(nu1) + entropic_h(nu2) + math.log2(0.25 * np.e * np.e * product)


def conditional_spectrum_asymptotic(T, a, mu):
    """Large-modulation spectrum (nubar1, nubar2) of Bob's conditional state.

    nubar1 = sqrt((w + 2g sqrt(T)/(1+T)) (w + 2g' sqrt(T)/(1+T))) stays
    finite; nubar2 = (1 - T^2) mu diverges with the modulation.
    """
    _check_asymptotic_args(T, a, mu)
    return float(_conditional_nu_arrays(T, a.omega, a.g, a.g_prime)), (1.0 - T * T) * mu


def conditional_entropy_asymptotic(T, a, mu):
    """Large-modulation entropy of Bob's conditional state, in bits."""
    nubar1, nubar2 = conditional_spectrum_asymptotic(T, a, mu)
    return entropic_h(nubar1) + math.log2(0.5 * np.e * nubar2)


def holevo_asymptotic(T, a, mu):
    """Holevo bound on Eve's information about Alice's variable, in bits.

    chi = h(nu1) + h(nu2) - h(nubar1) + log2((e/2) (1-T)/(1+T) mu).
    """
    _check_asymptotic_args(T, a, mu)
    return float(_information_arrays(T, a.omega, a.g, a.g_prime, mu)[1])


def mutual_information_asymptotic(T, a, mu):
    """Alice-Bob mutual information for heterodyne read-out, in bits.

    Returns (I_AB, sigma, sigma', Delta) with Delta = 1 + T^2 + (1-T^2) w,
    sigma = Delta + 2g(1-T)sqrt(T), sigma' likewise with g', and
    I_AB = (1/2) log2(T^2 mu^2 / (sigma sigma')).
    """
    _check_asymptotic_args(T, a, mu)
    iab, _ = _information_arrays(T, a.omega, a.g, a.g_prime, mu)
    return (float(iab), *map(float, _sigma_arrays(T, a.omega, a.g, a.g_prime)))


def keyrate_asymptotic(T, a):
    """Asymptotic secret-key rate in bits per protocol use (direct reconciliation).

    R = log2( 2T(1+T) / (e (1-T) sqrt(sigma sigma')) ) - h(nu1) - h(nu2) + h(nubar1);
    the log(mu) terms of the mutual information and the Holevo bound cancel,
    so R carries no modulation dependence.
    """
    _check_asymptotic_args(T, a)
    return float(_keyrate_arrays(T, a.omega, a.g, a.g_prime))


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
    """Full report (spectra, entropies, I_AB, chi_EA, R) for one parameter point."""
    require_physical(a)
    nu1, nu2, product = asymptotic_total_spectrum(T, a, mu)
    nubar1, nubar2 = conditional_spectrum_asymptotic(T, a, mu)
    s_e = total_entropy_asymptotic(T, a, mu)
    s_cond = conditional_entropy_asymptotic(T, a, mu)
    iab, sigma, sigma_p, Delta = mutual_information_asymptotic(T, a, mu)
    chi = holevo_asymptotic(T, a, mu)
    rate = keyrate_asymptotic(T, a)
    if not (abs(rate - (iab - chi)) <= 1e-10 and chi >= -1e-9):
        raise UnphysicalStateError(
            f"inconsistent report: R={rate}, I_AB={iab}, chi_EA={chi} "
            "(need R = I_AB - chi_EA and chi_EA >= 0)")
    return KeyRateReport(
        nu1=nu1, nu2=nu2, nu3nu4_product=product, nubar1=nubar1, nubar2=nubar2,
        S_E=s_e, S_E_cond=s_cond, I_AB=iab, chi_EA=chi, R=rate,
        sigma=sigma, sigma_prime=sigma_p, Delta=Delta,
    )
