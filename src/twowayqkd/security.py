"""Security thresholds, optimal-attack scans and the one-way baseline.

Thresholds are reported as the tolerable excess noise
N = (1 - T)(omega - 1)/T at which the key rate crosses zero, as a function
of the channel transmissivity T.
"""

import math
from typing import NamedTuple

import numpy as np

from .attacks import (ATTACK_CLASSES, COLLECTIVE, SEP_SYM_NEG, _check_omega, _class_gaps,
                      _grid_values, _physical_mask, normalize_class, physical_region_grid)
from .gaussian import _LN2, MAX_VARIANCE, _check_variance, entropic_h
from .protocol import _check_regime, _information, _keyrate_arrays, _rate, _two_way_arrays

#: top rung of the ladder 1, 2, 4, ... that brackets threshold roots
BRACKET_CAP = 2.0 ** 16

#: bisection bracket width and residual tolerances
BRACKET_TOL = 1e-10
RESIDUAL_TOL = 1e-8

#: Alice's source variance at which the one-way rate is modulation-independent
ONEWAY_MU_A = 1e7 + 1.0


# ---------------------------------------------------------------------------
# excess noise
# ---------------------------------------------------------------------------

def excess_noise(T, omega):
    """Excess noise N = (1-T)(omega-1)/T of a thermal-loss pass."""
    if not 0.0 < T <= 1.0:
        raise ValueError(f"transmissivity must lie in (0, 1], got {T}")
    _check_omega(omega)
    return (1.0 - T) * (omega - 1.0) / T


# ---------------------------------------------------------------------------
# threshold root finding
# ---------------------------------------------------------------------------

#: ThresholdCurve.status values: the solver's outcome for one lane (one T)
OK = "ok"
INSECURE_AT_VACUUM = "insecure_at_vacuum"  # rate(1) <= 0: no secure region
NO_CROSSING = "no_crossing"                # rate still positive past BRACKET_CAP
NON_MONOTONE = "non_monotone"              # rate rose while bracketing, or residual too large


def _bisect_lanes(rate, n):
    """Zeros in omega of n lane rates on [1, inf), all bisected at once.

    rate(lanes, omega) returns the rates of the lanes indexed by `lanes` at
    the matching thermal variances `omega` (both arrays).  One call rates
    every lane on the whole ladder omega = 1, 2, 4, ..., BRACKET_CAP, lanes
    repeating, so rate must be defined at every rung for every lane, also
    past where the lane's search stops.  A lane's bracket ends at the first
    rung where its rate fails to fall strictly or turns negative; a lane that
    never stops has no crossing.  Bracketed lanes bisect to a width <=
    BRACKET_TOL, then |rate| <= RESIDUAL_TOL is checked at the midpoint.
    Lanes share no arithmetic, so each makes the decisions a scalar search
    would, and rate is called on no lanes only when n = 0.  Returns (omega,
    status) per lane, as a ThresholdCurve holds them: the root and OK, or
    1.0 and INSECURE_AT_VACUUM, inf and NO_CROSSING, NaN and NON_MONOTONE.
    """
    ladder = 2.0 ** np.arange(math.floor(math.log2(BRACKET_CAP)) + 1)
    lanes = np.arange(n)
    r = rate(np.repeat(lanes, ladder.size), np.tile(ladder, n)).reshape(n, ladder.size)
    falls = r[:, 1:] < r[:, :-1]
    stops = ~falls | (r[:, 1:] < 0.0)
    k = stops.argmax(axis=1)  # a lane stops on rung k + 1, if it stops at all
    insecure = ~(r[:, 0] > 0.0)
    capped = ~stops[lanes, k]
    off = ~falls[lanes, k]
    lo, hi = ladder[k], ladder[k + 1]
    done = active = lanes[~(insecure | capped | off)]
    while True:
        active = active[hi[active] - lo[active] > BRACKET_TOL]
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        up = rate(active, mid) > 0.0
        lo[active[up]] = mid[up]
        hi[active[~up]] = mid[~up]
    root = 0.5 * (lo + hi)
    if done.size:
        off[done] = np.abs(rate(done, root[done])) > RESIDUAL_TOL
    cases = [insecure, capped, off]
    return (np.select(cases, [1.0, math.inf, math.nan], root),
            np.select(cases, [INSECURE_AT_VACUUM, NO_CROSSING, NON_MONOTONE], OK).astype(object))


# ---------------------------------------------------------------------------
# threshold curves
# ---------------------------------------------------------------------------

class ThresholdCurve(NamedTuple):
    """Security-threshold curve of one attack class: one array entry per T.

    status holds the solver's outcome: OK (omega_star is the root), or
    INSECURE_AT_VACUUM (no positive rate even at omega = 1; omega_star,
    N_star = 1, 0 and secure is False), NO_CROSSING (rate still positive at
    the bracket cap; inf, inf) or NON_MONOTONE (rate rose while bracketing,
    or the residual check failed; NaN, NaN).  secure is True whenever a
    positive rate exists at omega = 1.  Two curves compare as tuples of
    arrays, so compare their columns rather than the curves.
    """

    attack_class: str
    T: np.ndarray
    omega_star: np.ndarray
    N_star: np.ndarray
    secure: np.ndarray
    status: np.ndarray


def _check_t_grid(t_grid):
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("empty transmissivity grid")
    for t in t_grid:
        _check_regime(t)
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("transmissivity grid must be strictly increasing")
    return np.array(t_grid)


def threshold_curves(attack_classes, t_grid, with_oneway=False):
    """Security-threshold curves of attack classes over a strictly increasing T grid.

    One curve per class, in the order given (repeats included), then the
    one-way baseline curve if with_oneway.  Each rate model is one
    _bisect_lanes solve, so each solver step calls its kernel once on its
    open lanes: the classes over curve-major lanes, one per class and T,
    each with its class index; the one-way baseline over the T grid.  A
    model with no curves is not solved, and a further rate joins as one
    more solve.  Per-point failures are flagged in the curve's status
    column rather than aborting the curve.
    """
    labels = [normalize_class(c) for c in attack_classes]
    t_grid = _check_t_grid(t_grid)
    n = t_grid.size
    t = np.tile(t_grid, len(labels) + bool(with_oneway))
    solves = []
    if labels:
        index = np.repeat([ATTACK_CLASSES.index(c) for c in labels], n)
        solves.append(_bisect_lanes(lambda lanes, omega: _rate(t[lanes], _two_way_arrays(
            t[lanes], omega, *_class_gaps(index[lanes], omega))), index.size))
    if with_oneway:
        labels.append("oneway")
        solves.append(_bisect_lanes(lambda lanes, omega: np.subtract(
            *_oneway_arrays(t_grid[lanes], omega, ONEWAY_MU_A)), n))
    if not solves:
        return []
    omega_star, status = map(np.concatenate, zip(*solves))
    # N* is excess_noise(T, omega*) in the same IEEE operations, so 0, inf and NaN carry over
    columns = (t, omega_star, (1.0 - t) * (omega_star - 1.0) / t, status != INSECURE_AT_VACUUM,
               status)
    return [ThresholdCurve(name, *(c[j * n:(j + 1) * n] for c in columns))
            for j, name in enumerate(labels)]


# ---------------------------------------------------------------------------
# optimal-attack scan
# ---------------------------------------------------------------------------

class ScanResult(NamedTuple):
    """Grid minimizer of the key rate over Eve's physical correlation region."""

    T: float
    omega: float
    best_g: float
    best_g_prime: float
    R_min: float
    grid_resolution: float


def scan_grid(T, omega, resolution):
    """(n, 3) array of (g, g', R) rows: the key rate at every node of physical_region_grid.

    Each mirror pair is rated once.  R(g, g') = R(g', g) bit for bit, and the
    physical region is symmetric under g <-> g', so only the rows with
    g <= g' are evaluated; every other row takes the rate of its mirror row,
    which has the same two values swapped.
    """
    _check_regime(T)
    grid = physical_region_grid(omega, resolution)
    g, gp = grid.T
    upper = g <= gp
    rates = np.empty(len(grid))
    rates[upper] = _keyrate_arrays(T, omega, g[upper], gp[upper])
    # sorted by (g', g), the rows list the mirror of each row-major row in turn
    lower = ~upper
    rates[lower] = rates[np.lexsort((g, gp))[lower]]
    return np.column_stack((grid, rates))


def optimal_attack_scan(T, omega, resolution):
    """Grid minimizer of the asymptotic key rate over the physical region.

    Ties go to the first minimum in row-major order: the smallest g, then the
    smallest g'.  A NaN rate raises ValueError rather than wins.  On each
    antidiagonal i + j = k of the grid, u = (g + g')/2 is fixed, and the rate
    does not fall as |g - g'| grows (Lemma A of the README).  The node
    (floor(k/2), ceil(k/2)), nearest the diagonal, thus rates lowest, and it
    is physical whenever any node of its antidiagonal is.  So only those
    2n - 1 nodes are evaluated, in row-major order, and the result is the
    one a scan of the whole grid gives, bit for bit.
    """
    _check_regime(T)
    vals = _grid_values(omega, resolution)
    k = np.arange(2 * len(vals) - 1)
    g, gp = vals[k // 2], vals[(k + 1) // 2]
    physical = _physical_mask(omega, g, gp)
    g, gp = g[physical], gp[physical]
    rates = _keyrate_arrays(T, omega, g, gp)
    best = np.argmin(rates)
    if np.isnan(rates[best]):
        raise ValueError(f"key rate is NaN at (g, g') = ({g[best]}, {gp[best]})")
    return ScanResult(T=float(T), omega=float(omega),
                      best_g=float(g[best]), best_g_prime=float(gp[best]),
                      R_min=float(rates[best]), grid_resolution=float(resolution))


# ---------------------------------------------------------------------------
# one-way baseline
# ---------------------------------------------------------------------------

def _oneway_arrays(T, omega, mu_a):
    """Exact finite-modulation one-way (I_AB, chi_EA), broadcast over all three arguments.

    Bob holds b = T a + (1-T) omega of Alice's EPR variance a = mu_a, with
    A-B correlation c^2 = T (a^2 - 1); heterodyne on A leaves
    b_cond = T + (1-T) omega, and sqrt(det V_AB) = a b - c^2 = (1-T) a omega + T.
    """
    b_cond = T + (1.0 - T) * omega
    root_det = (1.0 - T) * mu_a * omega + T
    # symplectic eigenvalues of V_AB: the larger one without cancellation, from the
    # gap |a - b| = (1-T)|a - omega|, the smaller from their product sqrt(det)
    d = (1.0 - T) * np.abs(mu_a - omega)
    nu_plus = 0.5 * (np.sqrt(d * d + 4.0 * root_det) + d)
    nu_minus = root_det / nu_plus
    # heterodyne read-out of both quadratures, one vacuum unit added:
    # log2((b+1)/(b_cond+1)) with b - b_cond = T (mu_a - 1), so that nothing
    # cancels where the ratio is next to 1 (small T)
    i_ab = np.log1p(T * (mu_a - 1.0) / (b_cond + 1.0)) / _LN2
    h = entropic_h(np.stack(np.broadcast_arrays(nu_plus, nu_minus, b_cond)))
    return i_ab, h[0] + h[1] - h[2]


def _oneway_quantities(T, omega, mu_a):
    """Checked one-way (I_AB, chi_EA) at one point, as Python floats: T by _check_regime,
    omega by _check_omega, mu_a <= MAX_VARIANCE and its 1 SNU floor by _check_variance."""
    _check_regime(T)
    _check_omega(omega)
    if not mu_a <= MAX_VARIANCE:
        raise ValueError(f"EPR variance mu_a must be finite and <= {MAX_VARIANCE:g}, got {mu_a}")
    _check_variance("EPR", mu_a)
    if mu_a == 1.0:
        # no modulation: A and B are uncorrelated, so nobody learns anything;
        # the general form would leave rounding dust of either sign in R
        return 0.0, 0.0
    i_ab, chi = _oneway_arrays(T, omega, mu_a)
    return float(i_ab), float(chi)


def oneway_keyrate(T, omega, mu_a=ONEWAY_MU_A):
    """Key rate of the one-way baseline: coherent states, heterodyne
    detection, direct reconciliation, single-mode collective attack.

    Alice heterodynes one EPR arm, the other crosses one thermal-loss pass
    (T, omega), Bob heterodynes.  I_AB and chi_EA = S(AB) - S(B|A) are an
    exact closed form at any mu_a; the tests check it against the
    covariance-matrix circuit.  At the default mu_a the rate is
    modulation-independent to well below 1e-6 over the threshold-relevant
    region.  The pure-loss rate is log2(T / (e (1-T))), positive for
    T > e/(1+e) ~ 0.731.
    """
    i_ab, chi = _oneway_quantities(T, omega, mu_a)
    return i_ab - chi


def oneway_report(T, omega, mu_a=ONEWAY_MU_A):
    """One-way baseline report: {T, omega, I_AB, chi_EA, R}."""
    i_ab, chi = _oneway_quantities(T, omega, mu_a)
    return {"T": float(T), "omega": float(omega),
            "I_AB": i_ab, "chi_EA": chi, "R": i_ab - chi}


# ---------------------------------------------------------------------------
# information quantities of the attack classes
# ---------------------------------------------------------------------------

def class_variations(t_values, mu, omega_grid, classes):
    """(T, omega, I_AB, chi_EA, dI_AB, dchi_EA) of named classes over a (T, omega) grid.

    The grid is every T of t_values by every omega of omega_grid, T-major:
    the T and omega columns hold one entry per node, and I_AB and chi_EA one
    row per class, in the order given, evaluated in one call.  The
    variations dX = (X - X_c)/X_c compare the sep-sym- corner class
    g = g' = 1 - omega with the collective attack, which must both be among
    the classes; nodes where the collective reference is nonpositive carry
    NaN instead of a ratio (flagged, not fatal).  mu >= 1e3 (the asymptotic
    regime), then _check_regime(T, mu) for every T, then _check_omega for
    every omega, then normalize_class for every label and the presence of
    both reference classes are checked before any class is evaluated.  The
    appendix command prints this table.
    """
    if not mu >= 1e3:
        raise ValueError(f"the asymptotic regime needs mu >= 1e3, got {mu}")
    for T in t_values:
        _check_regime(T, mu)
    omega = np.asarray(omega_grid, dtype=float)
    bad = ~((omega >= 1.0) & (omega <= MAX_VARIANCE))
    if bad.any():
        _check_omega(float(omega[bad][0]))
    classes = [normalize_class(c) for c in classes]
    for ref in (COLLECTIVE, SEP_SYM_NEG):
        if ref not in classes:
            raise ValueError(f"the variations need the reference class {ref!r} among the classes")
    t, omega = np.repeat(t_values, omega.size), np.tile(omega, len(t_values))
    index = np.array([ATTACK_CLASSES.index(c) for c in classes])
    i_ab, chi = _information(t, _two_way_arrays(t, omega, *_class_gaps(index[:, None], omega)), mu)
    ref, corner = classes.index(COLLECTIVE), classes.index(SEP_SYM_NEG)
    d_i, d_chi = (np.divide(x[corner] - x[ref], x[ref], out=np.full_like(x[ref], math.nan),
                            where=x[ref] > 0.0) for x in (i_ab, chi))
    return t, omega, i_ab, chi, d_i, d_chi
