"""Eve's two-mode coherent attack: parameters, named classes, classification.

The attack injects one ancilla into each channel pass through beam splitters
of transmissivity T.  The two ancillas share the covariance matrix

    V = [[w I, G], [G, w I]],   G = diag(g, g')

where w >= 1 is the thermal variance and (g, g') the quadrature correlations.
g = g' = 0 is the standard collective attack; nonzero correlations make the
two passes a memory channel.
"""

import math
from typing import NamedTuple

import numpy as np

from . import gaussian
from .errors import UnphysicalAttackError

#: canonical class labels, as accepted on the command line
COLLECTIVE = "collective"
EPR_POS = "epr+"
EPR_NEG = "epr-"
SEP_SYM_POS = "sep-sym+"
SEP_SYM_NEG = "sep-sym-"
SEP_ANTI_POS = "sep-anti+"
SEP_ANTI_NEG = "sep-anti-"

ATTACK_CLASSES = (
    COLLECTIVE, EPR_POS, EPR_NEG, SEP_SYM_POS, SEP_SYM_NEG, SEP_ANTI_POS, SEP_ANTI_NEG,
)

#: most nodes a physical_region_grid (and so a scan) may span.  scan_grid, and so
#: `scan --full-grid`, peaks near 120 bytes per node and `scan --full-grid --format
#: json` near 550 (omega = 3, step 0.01), so the cap bounds them near 0.12 GB and
#: 0.55 GB.  optimal_attack_scan rates one node per antidiagonal, and needs far less
MAX_GRID_NODES = 10 ** 6


def _canonical_key(label):
    """Fold underscore/suffix spellings onto the canonical labels."""
    name = str(label).strip().lower().replace("_", "-")
    if name.endswith("-pos"):
        name = name[:-4] + "+"
    elif name.endswith("-neg"):
        name = name[:-4] + "-"
    return name


def _check_omega(omega):
    """Reject a non-finite, sub-vacuum or oversized thermal variance."""
    if not math.isfinite(omega):
        raise ValueError(f"thermal variance omega must be finite, got {omega}")
    if not omega >= 1.0:
        raise UnphysicalAttackError(f"thermal variance omega must be >= 1 SNU, got {omega}")
    if omega > gaussian.MAX_VARIANCE:
        raise ValueError(f"thermal variance omega must be <= {gaussian.MAX_VARIANCE:g} SNU, "
                         f"got {omega}")


class _AttackFields(NamedTuple):
    omega: float
    g: float
    g_prime: float


class AttackParams(_AttackFields):
    """Eve's triple (omega, g, g') in SNU.

    Finite values and omega >= 1 are enforced on construction, also through
    _make and _replace; whether the triple describes a physical two-mode
    state is checked separately by is_physical().
    """

    __slots__ = ()

    def __new__(cls, omega, g, g_prime):
        _check_omega(omega)
        for name, value in (("g", g), ("g_prime", g_prime)):
            if not math.isfinite(value):
                raise ValueError(f"correlation {name} must be finite, got {value}")
        return super().__new__(cls, omega, g, g_prime)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def eve_cm(params):
    """4x4 covariance matrix [[w I, G], [G, w I]] of Eve's two ancillas.

    2x2 blocks over the modes (E1, E2), with G = diag(g, g').
    """
    wI = params.omega * np.eye(2)
    G = np.diag([params.g, params.g_prime])
    return np.block([[wI, G], [G, wI]])


def normalize_class(label):
    """Canonical class label for any accepted spelling; ValueError if unknown."""
    name = _canonical_key(label)
    if name in ATTACK_CLASSES:
        return name
    raise ValueError(f"unknown attack class {label!r}; expected one of {', '.join(ATTACK_CLASSES)}")


#: which of (w, 1/p, p, 1, 2w-1), p = w + sqrt(w^2-1), each gap (a, a', b, b') of each class is
_CLASS_GAP_ROWS = np.array([(0, 0, 0, 0), (1, 2, 2, 1), (2, 1, 1, 2), (3, 3, 4, 4), (4, 4, 3, 3),
                            (3, 4, 4, 3), (4, 3, 3, 4)])


def _gaps(omega, g, g_prime):
    """Gaps (a, a', b, b') = (w - g, w - g', w + g, w + g') of Eve's correlations."""
    return omega - g, omega - g_prime, omega + g, omega + g_prime


def _class_gaps(index, omega):
    """Gaps (a, a', b, b') of the classes ATTACK_CLASSES[index], broadcast over index and omega.

    The one class table, exact where w -+ g of attack_from_class's floats is not: an EPR
    class's gaps multiply to 1, and a separable class's smaller gaps are 1.
    """
    index, omega = np.broadcast_arrays(index, np.asarray(omega, dtype=float))
    p = omega + np.sqrt((omega - 1.0) * (omega + 1.0))
    values = np.stack((omega, 1.0 / p, p, np.ones_like(omega), 2.0 * omega - 1.0)).reshape(5, -1)
    gaps = values[_CLASS_GAP_ROWS[index.ravel()].T, np.arange(index.size)]
    return tuple(gaps.reshape(4, *index.shape))


def attack_from_class(label, omega):
    """Attack parameters of a named extremal class at thermal variance omega.

    collective  -> (0, 0)
    epr+ / epr- -> (+-sqrt(w^2-1), -+sqrt(w^2-1))   maximally entangled ancillas
    sep-sym+/-  -> (+-(w-1), +-(w-1))               separable, symmetric correlations
    sep-anti+/- -> (+-(w-1), -+(w-1))               separable, antisymmetric correlations

    Each correlation is (b - a)/2 of the class's gap row, or +-sqrt((w-1)(w+1)) for the EPR
    classes.  At large omega an EPR float triple can fall outside the physical region;
    `keyrate --attack`, `threshold` and `appendix` rate the exact class through its gaps.
    """
    _check_omega(omega)
    name = normalize_class(label)
    a, a_prime, b, b_prime = map(float, _class_gaps(ATTACK_CLASSES.index(name), omega))
    if name in (EPR_POS, EPR_NEG):
        c = math.sqrt((omega - 1.0) * (omega + 1.0))
        return AttackParams(float(omega), math.copysign(c, b - a),
                            math.copysign(c, b_prime - a_prime))
    return AttackParams(float(omega), (b - a) / 2.0, (b_prime - a_prime) / 2.0)


def _physical_mask(omega, g, g_prime):
    """Vectorized physicality check of Eve's covariance matrix, in the gaps of _gaps.

    [[w I, G], [G, w I]] is positive definite iff a, a', b, b' > 0, and its symplectic eigenvalues
    sqrt(a a'), sqrt(b b') (Serafini, Illuminati & De Siena, J. Phys. B 37, L21 (2004)) must be
    >= 1 - gaussian.BONA_FIDE_ATOL.  a > 0 and a a' >= that floor squared give a' > 0, and so
    for b'.  fl(w - g) > 0 iff g < w, so each point is decided as |g|, |g'| < w decides it.
    """
    a, a_prime, b, b_prime = _gaps(omega, np.asarray(g, float), np.asarray(g_prime, float))
    floor = (1.0 - gaussian.BONA_FIDE_ATOL) ** 2
    return (a > 0.0) & (b > 0.0) & (a * a_prime >= floor) & (b * b_prime >= floor)


def is_physical(params):
    """True iff Eve's two-mode covariance matrix is a physical state."""
    return bool(_physical_mask(params.omega, params.g, params.g_prime))


def require_physical(params):
    """Raise UnphysicalAttackError (naming the check) if the attack is unphysical."""
    if is_physical(params):
        return params
    if abs(params.g) >= params.omega or abs(params.g_prime) >= params.omega:
        raise UnphysicalAttackError(
            f"attack {params} violates positive definiteness (|g|, |g'| must be < omega)")
    raise UnphysicalAttackError(
        f"attack {params} violates the bona fide condition "
        "(symplectic eigenvalues of Eve's covariance matrix below 1)")


def classify(params):
    """Correlation class of a physical attack.

    Returns 'collective' (g = g' = 0), 'entangled' (fails the PPT test), or
    'separable_correlated' otherwise.  The partial transpose of Eve's state
    flips the sign of g', so it passes the PPT test exactly when the attack
    (omega, g, -g') is physical; gaussian.ppt_separable(eve_cm(params)) is
    the matrix oracle of that test.
    """
    require_physical(params)
    if abs(params.g) <= 1e-12 and abs(params.g_prime) <= 1e-12:
        return "collective"
    if not _physical_mask(params.omega, params.g, -params.g_prime):
        return "entangled"
    return "separable_correlated"


def _grid_values(omega, resolution):
    """Node values k * resolution, k = -kmax..kmax, of each axis of physical_region_grid.

    ValueError, before anything is allocated, if the grid's (2 kmax + 1)^2 nodes exceed
    MAX_GRID_NODES."""
    _check_omega(omega)
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"grid resolution must be finite and positive, got {resolution}")
    span = omega / resolution + 1e-9
    side = 2.0 * math.floor(span) + 1.0 if math.isfinite(span) else span
    nodes = side * side  # a float: inf past the doubles, never an int too large to print
    if nodes > MAX_GRID_NODES:
        raise ValueError(f"grid resolution {resolution} at omega {omega} gives {nodes:.6g} "
                         f"grid nodes; a scan grid must hold at most {MAX_GRID_NODES}")
    kmax = math.floor(span)
    return np.arange(-kmax, kmax + 1) * resolution


def physical_region_grid(omega, resolution):
    """All physical attacks on a centered square grid of step `resolution`.

    Returns an (n, 2) float array of (g, g') rows: the grid points
    (i*step, j*step) for all integers with |i*step|, |j*step| <= omega,
    filtered through the operational physicality check, in row-major order
    (g varying slowest).  Always contains (0, 0).
    """
    vals = _grid_values(omega, resolution)
    G, GP = np.meshgrid(vals, vals, indexing="ij")
    mask = _physical_mask(omega, G, GP)
    return np.column_stack((G[mask], GP[mask]))
