"""Eve's two-mode coherent attack: parameters, named classes, classification.

The attack injects one ancilla into each channel pass through beam splitters
of transmissivity T.  The two ancillas share the covariance matrix

    V = [[w I, G], [G, w I]],   G = diag(g, g')

where w >= 1 is the thermal variance and (g, g') the quadrature correlations.
g = g' = 0 is the standard collective attack; nonzero correlations make the
two passes a memory channel.
"""

import math
from dataclasses import dataclass

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

#: most nodes a physical_region_grid (and so a scan) may span.  A scan peaks
#: near 90 bytes per node and `scan --full-grid --format json` near 550
#: (omega = 3, step 0.01), so the cap bounds a scan near 0.1 GB, or 0.55 GB
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


@dataclass(frozen=True)
class AttackParams:
    """Eve's triple (omega, g, g') in SNU.

    Finite values and omega >= 1 are enforced on construction; whether the triple
    describes a physical two-mode state is checked separately by is_physical().
    """

    omega: float
    g: float
    g_prime: float

    def __post_init__(self):
        _check_omega(self.omega)
        for name, value in (("g", self.g), ("g_prime", self.g_prime)):
            if not math.isfinite(value):
                raise ValueError(f"correlation {name} must be finite, got {value}")


def eve_cm(params):
    """4x4 covariance matrix [[w I, G], [G, w I]] of Eve's two ancillas."""
    w, g, gp = params.omega, params.g, params.g_prime
    G = np.diag([g, gp])
    V = np.zeros((4, 4))
    V[:2, :2] = w * np.eye(2)
    V[2:, 2:] = w * np.eye(2)
    V[:2, 2:] = G
    V[2:, :2] = G
    return V


def normalize_class(label):
    """Canonical class label for any accepted spelling; ValueError if unknown."""
    name = _canonical_key(label)
    if name in ATTACK_CLASSES:
        return name
    raise ValueError(f"unknown attack class {label!r}; expected one of {', '.join(ATTACK_CLASSES)}")


def _class_correlations(name, omega):
    """Correlations (g, g') of the canonical class `name`, as arrays shaped like omega.

    The table behind attack_from_class; batch paths call it once per array of omega.
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
    return table[name]


def attack_from_class(label, omega):
    """Attack parameters of a named extremal class at thermal variance omega.

    collective  -> (0, 0)
    epr+ / epr- -> (+-sqrt(w^2-1), -+sqrt(w^2-1))   maximally entangled ancillas
    sep-sym+/-  -> (+-(w-1), +-(w-1))               separable, symmetric correlations
    sep-anti+/- -> (+-(w-1), -+(w-1))               separable, antisymmetric correlations
    """
    _check_omega(omega)
    g, gp = _class_correlations(normalize_class(label), omega)
    return AttackParams(float(omega), float(g), float(gp))


def _physical_mask(omega, g, g_prime, atol=gaussian.BONA_FIDE_ATOL):
    """Vectorized physicality check of Eve's covariance matrix.

    [[w I, G], [G, w I]] is positive definite iff |g|, |g'| < w, and its
    symplectic eigenvalues are sqrt((w-g)(w-g')) and sqrt((w+g)(w+g'))
    (Serafini, Illuminati & De Siena, J. Phys. B 37, L21 (2004)); both must
    be >= 1 - atol.
    """
    g, gp = np.broadcast_arrays(np.asarray(g, dtype=float), np.asarray(g_prime, dtype=float))
    floor = (1.0 - atol) ** 2
    return ((np.abs(g) < omega) & (np.abs(gp) < omega)
            & ((omega - g) * (omega - gp) >= floor) & ((omega + g) * (omega + gp) >= floor))


def is_physical(params, atol=gaussian.BONA_FIDE_ATOL):
    """True iff Eve's two-mode covariance matrix is a physical state."""
    return bool(_physical_mask(params.omega, params.g, params.g_prime, atol=atol))


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
    'separable_correlated' otherwise.
    """
    require_physical(params)
    if abs(params.g) <= 1e-12 and abs(params.g_prime) <= 1e-12:
        return "collective"
    if not gaussian.ppt_separable(eve_cm(params)):
        return "entangled"
    return "separable_correlated"


def _grid_half_width(omega, resolution):
    """kmax of the (2 kmax + 1)^2-node grid of physical_region_grid, checked against the cap."""
    _check_omega(omega)
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"grid resolution must be finite and positive, got {resolution}")
    span = omega / resolution + 1e-9
    nodes = (2 * math.floor(span) + 1) ** 2 if math.isfinite(span) else span
    if nodes > MAX_GRID_NODES:
        raise ValueError(f"grid resolution {resolution} at omega {omega} gives {nodes:.6g} "
                         f"grid nodes; a scan grid must hold at most {MAX_GRID_NODES}")
    return math.floor(span)


def physical_region_grid(omega, resolution):
    """All physical attacks on a centered square grid of step `resolution`.

    Returns an (n, 2) float array of (g, g') rows: the grid points
    (i*step, j*step) for all integers with |i*step|, |j*step| <= omega,
    filtered through the operational physicality check, in row-major order
    (g varying slowest).  Always contains (0, 0).
    """
    kmax = _grid_half_width(omega, resolution)
    vals = np.arange(-kmax, kmax + 1) * resolution
    G, GP = np.meshgrid(vals, vals, indexing="ij")
    mask = _physical_mask(omega, G, GP)
    return np.column_stack((G[mask], GP[mask]))
