"""Closed forms of the two-way coherent-state protocol.

The entanglement-based model of one protocol use (twowayqkd.circuit) keeps
Alice's displacement as a beam splitter of transmissivity eta fed by an EPR
pair of variance mu_A = mu/(1-eta) + 1.  The functions here take its ideal-
displacement limit eta -> 1 analytically: the spectra, entropies and the
key rate depend only on (T, omega, g, g'), plus the modulation variance mu
for the quantities that keep a log(mu) term.  They are evaluated as
broadcasting numpy expressions, with no covariance matrix.
"""

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import gaussian
from .attacks import (ATTACK_CLASSES, AttackParams, _check_omega, _class_gaps, _gaps,
                      normalize_class, require_physical)
from .errors import UnphysicalStateError
from .gaussian import entropic_h

#: modulation variance of keyrate_report and of the CLI's keyrate and appendix when none is given
DEFAULT_MU = 1e6

_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # T, T*mu or (1-T)*mu below it: a square underflows


# ---------------------------------------------------------------------------
# asymptotic spectra, entropies and rates
# ---------------------------------------------------------------------------

_TwoWay = namedtuple("_TwoWay", "nu1 nu2 nubar1 sigma sigma_prime Delta S S_cond")


def _two_way_arrays(T, omega, a, a_prime, b, b_prime):
    """The modulation-free two-way closed form in the gaps (a, a', b, b') = (w -+ g, w -+ g'),
    broadcast over all six arguments.

    A _TwoWay of the finite spectra nu1 = sqrt(a a'), nu2 = sqrt(b b') (total state) and
    nubar1 = sqrt(x x') (Bob's conditional state), sigma = 1 + T^2 + (1-T)(1+T) x and sigma',
    Delta, and S = h(nu1) + h(nu2) and S_cond = h(nubar1).  Each x = w + r g is a sum of
    nonnegative terms, with 1 - sqrt T = (1-T)/(1+sqrt T), so at g = g' = 0 the spectra are
    omega and sigma = sigma' = Delta exactly, and S - S_cond is h(omega), with no rounding.
    The squared spectra are floored at 1; which attacks are physical is decided by the
    callers (attacks.require_physical, attacks._physical_mask or a class's gap row).
    """
    omega = np.asarray(omega, dtype=float)  # float lanes even for an integer omega
    st, tp = np.sqrt(T), 1.0 + T
    r, low = 2.0 * st / tp, omega * ((1.0 - T) / (1.0 + st)) ** 2 / tp  # low = w - r w
    # x = w + r g: r b + (w - r w), or where b >= w, w + r (b - w) with b - w exact
    x = [np.where(up, omega, low) + r * (gap - omega * up)
         for gap, up in ((b, b >= omega), (b_prime, b_prime >= omega))]
    nu = np.stack(np.broadcast_arrays(a * a_prime, b * b_prime, x[0] * x[1]))
    nu = np.sqrt(np.maximum(nu, 1.0, out=nu), out=nu)
    h = entropic_h(nu)
    one, m = 1.0 + T * T, (1.0 - T) * tp
    return _TwoWay(nu[0], nu[1], nu[2], one + m * x[0], one + m * x[1], one + m * omega,
                   h[0] + h[1], h[2])


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
    return _rate(T, _two_way_arrays(T, omega, *_gaps(omega, g, g_prime)))


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
    return _two_way_arrays(T, a.omega, *_gaps(a.omega, a.g, a.g_prime))


def keyrate_asymptotic(T, a):
    """Asymptotic secret-key rate in bits per protocol use (direct reconciliation).

    R = log2( 2T(1+T) / (e (1-T) sqrt(sigma sigma')) ) - (h(nu1) + h(nu2) - h(nubar1));
    the log(mu) terms of the mutual information and the Holevo bound cancel,
    so R carries no modulation dependence.
    """
    return float(_rate(T, _two_way_at(T, a)))


class KeyRateReport(NamedTuple):
    """All intermediate quantities behind one key-rate evaluation.

    Spectra and conditional variances are in SNU; entropies and information
    quantities in bits.  Quantities with a log(mu) term are evaluated at the
    modulation used to build the report; R itself is modulation-free.
    In the gaps a, a', b, b' = w -+ g, w -+ g', the total state has the finite eigenvalues
    nu1 = sqrt(a a') and nu2 = sqrt(b b'), Eve's input spectrum, and two divergent ones of
    product (1-T)^2 mu^2.  Bob's conditional state has the finite nubar1 = sqrt(x x'), with
    x = w + r g = r b + w (1-sqrt T)^2/(1+T), r = 2 sqrt(T)/(1+T), and nubar2 = (1-T)(1+T) mu.
    I_AB = (1/2) log2(T^2 mu^2 / (sigma sigma')) is Alice and Bob's heterodyne information,
    with sigma = 1 + T^2 + (1-T)(1-sqrt T)^2 w + 2(1-T)sqrt(T) b = Delta + 2g(1-T)sqrt(T),
    Delta = 1 + T^2 + (1-T)(1+T) w, sigma' likewise; chi_EA = S_E - S_E_cond is Eve's Holevo bound.
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


def _report(T, c, mu):
    """The KeyRateReport of a _TwoWay at modulation mu, after its consistency checks."""
    iab, chi = map(float, _information(T, c, mu))
    rate = float(_rate(T, c))
    if not abs(rate - (iab - chi)) <= 1e-10:
        raise UnphysicalStateError(
            f"inconsistent report: R={rate}, I_AB={iab}, chi_EA={chi} (need R = I_AB - chi_EA)")
    if not chi >= -1e-9:
        raise ValueError(
            f"(1-T)*mu = {(1.0 - T) * mu} is too small for the asymptotic regime: the Holevo "
            f"bound must be >= 0, got chi_EA={chi} at T={T}, mu={mu}")
    product, nubar2 = (1.0 - T) ** 2 * mu * mu, (1.0 - T) * (1.0 + T) * mu
    return KeyRateReport(
        nu1=float(c.nu1), nu2=float(c.nu2), nu3nu4_product=product, nubar1=float(c.nubar1),
        nubar2=nubar2, S_E=float(c.S) + math.log2(0.25 * np.e * np.e * product),
        S_E_cond=float(c.S_cond) + math.log2(0.5 * np.e * nubar2), I_AB=iab, chi_EA=chi, R=rate,
        sigma=float(c.sigma), sigma_prime=float(c.sigma_prime), Delta=float(c.Delta))


def keyrate_report(T, a, mu=DEFAULT_MU):
    """Full report (spectra, entropies, I_AB, chi_EA, R) for one parameter point.

    The scalar entry for the spectra, entropies and information quantities of an attack
    (a named class goes through _class_report): one check of the arguments, one evaluation
    of the closed form.  Its R equals keyrate_asymptotic's bit for bit.
    """
    return _report(T, _two_way_at(T, a, mu), mu)


def _class_report(T, label, omega, mu):
    """keyrate_report of the named class at omega, from its exact gap row.  It is physical by
    construction, so omega, the label, T and mu are checked, but no bona fide condition."""
    _check_omega(omega)
    gaps = _class_gaps(ATTACK_CLASSES.index(normalize_class(label)), omega)
    _check_regime(T, mu)
    return _report(T, _two_way_arrays(T, omega, *gaps), mu)
