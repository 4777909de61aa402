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


def _class_correlations(index, omega):
    """Correlations (g, g') of the classes ATTACK_CLASSES[index], broadcast over index and omega.

    The one class table: attack_from_class, the threshold solver and the
    appendix read it, the batch paths once per array of omega and indices.
    """
    omega = np.asarray(omega, dtype=float)
    c = np.sqrt(omega * omega - 1.0)
    s = omega - 1.0
    zero = np.zeros_like(omega)
    table = {
        COLLECTIVE: (zero, zero),
        EPR_POS: (c, -c),
        EPR_NEG: (-c, c),
        SEP_SYM_POS: (s, s),
        SEP_SYM_NEG: (-s, -s),
        SEP_ANTI_POS: (s, -s),
        SEP_ANTI_NEG: (-s, s),
    }
    g, g_prime = zip(*(table[name] for name in ATTACK_CLASSES))
    return np.choose(index, g), np.choose(index, g_prime)


def attack_from_class(label, omega):
    """Attack parameters of a named extremal class at thermal variance omega.

    collective  -> (0, 0)
    epr+ / epr- -> (+-sqrt(w^2-1), -+sqrt(w^2-1))   maximally entangled ancillas
    sep-sym+/-  -> (+-(w-1), +-(w-1))               separable, symmetric correlations
    sep-anti+/- -> (+-(w-1), -+(w-1))               separable, antisymmetric correlations
    """
    _check_omega(omega)
    g, gp = _class_correlations(ATTACK_CLASSES.index(normalize_class(label)), omega)
    return AttackParams(float(omega), float(g), float(gp))


def _physical_mask(omega, g, g_prime):
    """Vectorized physicality check of Eve's covariance matrix.

    [[w I, G], [G, w I]] is positive definite iff |g|, |g'| < w, and its
    symplectic eigenvalues are sqrt((w-g)(w-g')) and sqrt((w+g)(w+g'))
    (Serafini, Illuminati & De Siena, J. Phys. B 37, L21 (2004)); both must
    be >= 1 - gaussian.BONA_FIDE_ATOL.
    """
    g, gp = np.broadcast_arrays(np.asarray(g, dtype=float), np.asarray(g_prime, dtype=float))
    floor = (1.0 - gaussian.BONA_FIDE_ATOL) ** 2
    return ((np.abs(g) < omega) & (np.abs(gp) < omega)
            & ((omega - g) * (omega - gp) >= floor) & ((omega + g) * (omega + gp) >= floor))


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


def _grid_half_width(omega, resolution):
    """kmax of the (2 kmax + 1)^2-node grid of physical_region_grid, checked against the cap."""
    _check_omega(omega)
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"grid resolution must be finite and positive, got {resolution}")
    span = omega / resolution + 1e-9
    side = 2.0 * math.floor(span) + 1.0 if math.isfinite(span) else span
    nodes = side * side  # a float: inf past the doubles, never an int too large to print
    if nodes > MAX_GRID_NODES:
        raise ValueError(f"grid resolution {resolution} at omega {omega} gives {nodes:.6g} "
                         f"grid nodes; a scan grid must hold at most {MAX_GRID_NODES}")
    return math.floor(span)


def _grid_values(omega, resolution):
    """Node values k * resolution, k = -kmax..kmax, of each axis of physical_region_grid."""
    kmax = _grid_half_width(omega, resolution)
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
