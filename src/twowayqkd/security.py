"""Security thresholds, optimal-attack scans and the one-way baseline.

Thresholds are reported as the tolerable excess noise
N = (1 - T)(omega - 1)/T at which the key rate crosses zero, as a function
of the channel transmissivity T.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .attacks import (COLLECTIVE, SEP_SYM_NEG, _check_omega, _class_correlations, _grid_half_width,
                      _physical_mask, normalize_class, physical_region_grid)
from .errors import DivergentThresholdError, MonotonicityError, UnphysicalStateError
from .gaussian import _LN2, MAX_VARIANCE, entropic_h
from .protocol import _check_regime, _information_arrays, _keyrate_arrays, _rate_lower_bound

#: doubling cap for the threshold bracket search
BRACKET_CAP = 2.0 ** 16

#: bisection bracket width and residual tolerances
BRACKET_TOL = 1e-10
RESIDUAL_TOL = 1e-8

#: side, in grid nodes, of the square blocks that optimal_attack_scan bounds
#: before it evaluates their nodes
SCAN_BLOCK = 8

#: relative margin over the best diagonal rate within which a block's lower
#: bound keeps it: far above the rounding of the rate and of its bound
SCAN_MARGIN = 1e-9

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


def omega_from_excess(T, N):
    """Inverse of excess_noise: thermal variance giving excess noise N."""
    if not 0.0 < T < 1.0:
        raise ValueError(f"transmissivity must lie in (0, 1), got {T}")
    if not 0.0 <= N < math.inf:
        raise ValueError(f"excess noise N must be finite and >= 0, got {N}")
    return 1.0 + T * N / (1.0 - T)


# ---------------------------------------------------------------------------
# threshold root finding
# ---------------------------------------------------------------------------

#: ThresholdPoint.status values: the solver's outcome for one lane (one T)
OK = "ok"
INSECURE_AT_VACUUM = "insecure_at_vacuum"  # rate(1) <= 0: no secure region
NO_CROSSING = "no_crossing"                # rate still positive past BRACKET_CAP
NON_MONOTONE = "non_monotone"              # rate rose while bracketing, or residual too large


def _bisect_lanes(rate, n):
    """Zeros in omega of n lane rates on [1, inf), all bisected at once.

    rate(lanes, omega) returns the rates of the lanes indexed by `lanes` at
    the matching thermal variances `omega` (both arrays).  Each lane doubles
    omega from 2 until the rate turns negative, requiring it to fall strictly
    at every step and to do so below BRACKET_CAP, then bisects to a bracket
    width <= BRACKET_TOL and checks |rate| <= RESIDUAL_TOL at the midpoint.
    Lanes share no arithmetic, so each makes the decisions a scalar search
    would.  Returns (roots, status): a float array, NaN unless the lane's
    status is OK, and an object array of the status strings above.
    """
    status = np.full(n, OK, dtype=object)
    roots = np.full(n, np.nan)
    lo, hi = np.ones(n), np.full(n, 2.0)
    lanes = np.arange(n)
    r_lo = rate(lanes, lo)
    secure = r_lo > 0.0
    status[~secure] = INSECURE_AT_VACUUM
    active, r_lo = lanes[secure], r_lo[secure]
    bracketed = [lanes[:0]]
    while active.size:
        r_hi = rate(active, hi[active])
        rising = ~(r_hi < r_lo)
        status[active[rising]] = NON_MONOTONE
        crossed = ~rising & (r_hi < 0.0)
        bracketed.append(active[crossed])
        going = ~rising & ~crossed
        active, r_lo = active[going], r_hi[going]
        lo[active] = hi[active]
        hi[active] *= 2.0
        capped = hi[active] > BRACKET_CAP
        status[active[capped]] = NO_CROSSING
        active, r_lo = active[~capped], r_lo[~capped]
    done = active = np.concatenate(bracketed)
    while True:
        active = active[hi[active] - lo[active] > BRACKET_TOL]
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        up = rate(active, mid) > 0.0
        lo[active[up]] = mid[up]
        hi[active[~up]] = mid[~up]
    root = 0.5 * (lo[done] + hi[done])
    off = np.abs(rate(done, root)) > RESIDUAL_TOL
    status[done[off]] = NON_MONOTONE
    roots[done[~off]] = root[~off]
    return roots, status


def _class_rate(label, t):
    """Lane rate of the canonical class `label` over the transmissivities t, for _bisect_lanes."""
    t = np.asarray(t, dtype=float)
    return lambda lanes, omega: _keyrate_arrays(t[lanes], omega,
                                                *_class_correlations(label, omega))


def _oneway_rate(t):
    """Lane rate of the one-way baseline over the transmissivities t, for _bisect_lanes."""
    t = np.asarray(t, dtype=float)
    return lambda lanes, omega: np.subtract(*_oneway_arrays(t[lanes], omega, ONEWAY_MU_A))


# ---------------------------------------------------------------------------
# threshold curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdPoint:
    """One point of a security-threshold curve.

    status is the solver's outcome: OK (omega_star is the root), or
    INSECURE_AT_VACUUM (no positive rate even at omega = 1; omega_star,
    N_star = 1, 0 and secure is False), NO_CROSSING (rate still positive at
    the bracket cap; inf, inf) or NON_MONOTONE (rate rose while bracketing,
    or the residual check failed; NaN, NaN).  secure is True whenever a
    positive rate exists at omega = 1.
    """

    T: float
    omega_star: float
    N_star: float
    secure: bool
    status: str


@dataclass(frozen=True)
class ThresholdCurve:
    attack_class: str
    points: tuple

    def to_rows(self):
        return [(p.T, p.omega_star, p.N_star, p.secure) for p in self.points]

    def to_dict(self):
        return {"attack_class": self.attack_class,
                "points": [{"T": p.T, "omega_star": p.omega_star,
                            "N_star": p.N_star, "secure": p.secure} for p in self.points]}


#: (omega_star, N_star, secure) of the points whose threshold search found no root
_FAILED_POINT = {INSECURE_AT_VACUUM: (1.0, 0.0, False), NO_CROSSING: (math.inf, math.inf, True),
                 NON_MONOTONE: (math.nan, math.nan, True)}


def _curve(attack_class, t_grid, rate):
    """ThresholdCurve of one lane rate over the checked grid, all lanes solved at once."""
    roots, status = _bisect_lanes(rate, len(t_grid))
    points = tuple(
        ThresholdPoint(T, w, excess_noise(T, w), True, OK) if s == OK
        else ThresholdPoint(T, *_FAILED_POINT[s], s)
        for T, w, s in zip(t_grid, roots.tolist(), status.tolist()))
    return ThresholdCurve(attack_class=attack_class, points=points)


def _root_of(point):
    """omega* of a one-point curve: None if insecure at omega = 1, else the root or an exception."""
    if point.status == INSECURE_AT_VACUUM:
        return None
    if point.status == NO_CROSSING:
        raise DivergentThresholdError(
            f"rate at T={point.T} still positive at omega={BRACKET_CAP:g} (the bracket cap)")
    if point.status == NON_MONOTONE:
        raise MonotonicityError(
            f"rate at T={point.T} is not strictly decreasing in omega: it rose while "
            f"bracketing, or the root residual exceeds {RESIDUAL_TOL}")
    return point.omega_star


def threshold_omega(T, attack_class):
    """Thermal variance omega* where the two-way rate crosses zero, or None.

    None means the channel is insecure already at omega = 1 for this T.
    Raises DivergentThresholdError or MonotonicityError where the curve
    point's status is NO_CROSSING or NON_MONOTONE.
    """
    return _root_of(threshold_curve(attack_class, [T]).points[0])


def oneway_threshold_omega(T):
    """Threshold of the one-way baseline protocol at transmissivity T, or None."""
    return _root_of(oneway_threshold_curve([T]).points[0])


def _check_t_grid(t_grid):
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("empty transmissivity grid")
    for t in t_grid:
        _check_regime(t)
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("transmissivity grid must be strictly increasing")
    return t_grid


def threshold_curve(attack_class, t_grid):
    """Security-threshold curve of one attack class over a strictly increasing T grid.

    Every T is bisected at once; per-point failures are flagged in the point's
    status rather than aborting the curve.
    """
    label = normalize_class(attack_class)
    t_grid = _check_t_grid(t_grid)
    return _curve(label, t_grid, _class_rate(label, t_grid))


def oneway_threshold_curve(t_grid):
    """Threshold curve of the one-way baseline over a strictly increasing T grid."""
    t_grid = _check_t_grid(t_grid)
    return _curve("oneway", t_grid, _oneway_rate(t_grid))


# ---------------------------------------------------------------------------
# optimal-attack scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanResult:
    """Grid minimizer of the key rate over Eve's physical correlation region."""

    T: float
    omega: float
    best_g: float
    best_g_prime: float
    R_min: float
    grid_resolution: float

    def to_dict(self):
        return asdict(self)


def scan_grid(T, omega, resolution):
    """(n, 3) array of (g, g', R) rows: the key rate at every node of physical_region_grid."""
    _check_regime(T)
    grid = physical_region_grid(omega, resolution)
    return np.column_stack((grid, _keyrate_arrays(T, omega, grid[:, 0], grid[:, 1])))


def _grid_minimizer(T, omega, resolution, rows):
    """ScanResult of the lowest-rate row of (g, g', R) rows; ties go to the smallest g, then g'.

    The rows must be in row-major order (g varying slowest, then g'), as
    physical_region_grid returns them, so that the first minimum is the
    tie-break winner.  A NaN rate raises rather than wins.
    """
    g, gp, rates = rows.T
    best = np.argmin(rates)
    if np.isnan(rates[best]):
        raise ValueError(f"key rate is NaN at (g, g') = ({g[best]}, {gp[best]})")
    return ScanResult(T=float(T), omega=float(omega),
                      best_g=float(g[best]), best_g_prime=float(gp[best]),
                      R_min=float(rates[best]), grid_resolution=float(resolution))


def optimal_attack_scan(T, omega, resolution):
    """Grid minimizer of the asymptotic key rate over the physical region.

    Ties are broken towards the smallest g, then the smallest g'.  The rate
    and the region are symmetric under swapping g and g', bit for bit, so
    the set of minimizers is too, and its first element in that order has
    g <= g'.  Of those nodes the diagonal is evaluated first: its least rate
    U bounds the minimum from above.  The nodes g < g' are evaluated only in
    the SCAN_BLOCK-square blocks whose _rate_lower_bound is at most
    U + SCAN_MARGIN (1 + |U|); every node of any other block rates above U,
    so no minimizer, and no tie of one, is left out.  The rows reach
    _grid_minimizer in row-major order, and the result is the one a scan of
    the whole grid gives, bit for bit.
    """
    _check_regime(T)
    kmax = _grid_half_width(omega, resolution)
    vals = np.arange(-kmax, kmax + 1) * resolution
    n = vals.size
    diag = np.flatnonzero(_physical_mask(omega, vals, vals))
    rate_diag = _keyrate_arrays(T, omega, vals[diag], vals[diag])
    # U + SCAN_MARGIN (1 + |U|), in a form that keeps an infinite U as it is
    upper = rate_diag.min()
    upper = max(upper * (1.0 - SCAN_MARGIN), upper * (1.0 + SCAN_MARGIN)) + SCAN_MARGIN
    # blocks (p, q), p <= q, by the values of their first and last nodes; a
    # NaN bound keeps its block
    first = np.arange(0, n, SCAN_BLOCK)
    lo, hi = vals[first], vals[np.minimum(first + SCAN_BLOCK, n) - 1]
    p, q = np.triu_indices(first.size)
    keep = np.zeros((first.size, first.size), dtype=bool)
    keep[p, q] = ~(_rate_lower_bound(T, omega, lo[p], hi[p], lo[q], hi[q]) > upper)
    near = np.repeat(np.repeat(keep, SCAN_BLOCK, 0), SCAN_BLOCK, 1)[:n, :n]
    i, j = np.nonzero(np.triu(near, 1))
    physical = _physical_mask(omega, vals[i], vals[j])
    i, j = i[physical], j[physical]
    g, gp = vals[i], vals[j]
    rows = np.column_stack((g, gp, _keyrate_arrays(T, omega, g, gp)))
    # a diagonal node (k, k) follows every node of the rows above row k, in row-major order
    rows = np.insert(rows, np.searchsorted(i, diag),
                     np.column_stack((vals[diag], vals[diag], rate_diag)), axis=0)
    return _grid_minimizer(T, omega, resolution, rows)


# ---------------------------------------------------------------------------
# one-way baseline
# ---------------------------------------------------------------------------

def _oneway_arrays(T, omega, mu_a):
    """Exact finite-modulation one-way (I_AB, chi_EA), broadcast over all three arguments.

    Bob holds b = T a + (1-T) omega of Alice's EPR variance a = mu_a, with
    A-B correlation c^2 = T (a^2 - 1); heterodyne on A leaves
    b_cond = T + (1-T) omega, and sqrt(det V_AB) = a b - c^2 = (1-T) a omega + T.
    """
    b = T * mu_a + (1.0 - T) * omega
    b_cond = T + (1.0 - T) * omega
    root_det = (1.0 - T) * mu_a * omega + T
    # symplectic eigenvalues of V_AB: the larger one without cancellation,
    # the smaller from their product sqrt(det)
    d = np.abs(mu_a - b)
    nu_plus = 0.5 * (np.sqrt(d * d + 4.0 * root_det) + d)
    nu_minus = root_det / nu_plus
    # heterodyne read-out of both quadratures, one vacuum unit added:
    # log2((b+1)/(b_cond+1)) with b - b_cond = T (mu_a - 1), so that nothing
    # cancels where the ratio is next to 1 (small T)
    i_ab = np.log1p(T * (mu_a - 1.0) / (b_cond + 1.0)) / _LN2
    h = entropic_h(np.stack(np.broadcast_arrays(nu_plus, nu_minus, b_cond)))
    return i_ab, h[0] + h[1] - h[2]


def _oneway_quantities(T, omega, mu_a):
    """Checked one-way (I_AB, chi_EA) at one point, as Python floats."""
    _check_regime(T)
    _check_omega(omega)
    if not mu_a <= MAX_VARIANCE:
        raise ValueError(f"EPR variance mu_a must be finite and <= {MAX_VARIANCE:g}, got {mu_a}")
    if not mu_a >= 1.0:
        raise UnphysicalStateError(f"EPR variance must be >= 1 SNU, got {mu_a}")
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
# relative variations of the sep-sym- corner class
# ---------------------------------------------------------------------------

def _class_variations(T, mu, omega_grid, classes):
    """Checked (omega, I_AB, chi_EA, dI_AB, dchi_EA) of named classes over an omega grid.

    I_AB and chi_EA hold one row per class, in the order given; the
    variations compare the sep-sym- corner class with the collective attack,
    which must both be among the classes.  T, mu and every omega are checked
    before any class is evaluated.
    """
    if not mu >= 1e3:
        raise ValueError(f"relative variations need the asymptotic regime mu >= 1e3, got {mu}")
    _check_regime(T, mu)
    omega = np.asarray(omega_grid, dtype=float)
    bad = ~((omega >= 1.0) & (omega <= MAX_VARIANCE))
    if bad.any():
        _check_omega(float(omega[bad][0]))
    g, g_prime = np.stack([_class_correlations(c, omega) for c in classes], 1)
    i_ab, chi = _information_arrays(T, omega, g, g_prime, mu)
    ref, corner = classes.index(COLLECTIVE), classes.index(SEP_SYM_NEG)
    d_i, d_chi = (np.divide(x[corner] - x[ref], x[ref], out=np.full_like(x[ref], math.nan),
                            where=x[ref] > 0.0) for x in (i_ab, chi))
    return omega, i_ab, chi, d_i, d_chi


def relative_variations(T, mu, omega_grid):
    """Relative change of I_AB and chi_EA for the sep-sym- corner class vs collective.

    For each omega in the grid, compares the sep-sym- corner class
    g = g' = 1 - omega against the collective attack at the same (T, omega,
    mu), returning rows (omega, dI_AB, dchi_EA) with dX = (X - X_c)/X_c.
    Rows where the collective reference is nonpositive carry NaN instead of
    a ratio; they are flagged, not fatal.
    """
    omega, _, _, d_i, d_chi = _class_variations(T, mu, omega_grid, (COLLECTIVE, SEP_SYM_NEG))
    return list(zip(omega.tolist(), d_i.tolist(), d_chi.tolist()))
