"""Gaussian-state linear algebra on covariance matrices.

All second moments are expressed in shot-noise units (SNU), i.e. the vacuum
state has quadrature variance 1.  An n-mode state is a real symmetric
positive-definite 2n x 2n matrix with quadratures ordered
(q1, p1, q2, p2, ..., qn, pn).  First moments are never tracked: every
quantity computed here depends on second moments only.
"""

import numpy as np
from scipy.special import xlogy

from .errors import DegenerateSpectrumError, UnphysicalStateError

_LN2 = np.log(2.0)
_EPS = np.finfo(float).eps

#: absolute tolerance under which a symplectic eigenvalue counts as >= 1
BONA_FIDE_ATOL = 1e-9

#: absolute symmetry tolerance for covariance matrices
SYMMETRY_ATOL = 1e-12

#: largest thermal or modulation variance (SNU) the closed forms accept: below
#: it entropic_h stays within 4e-6 bits of the exact h, and every square is finite
MAX_VARIANCE = 1e9


def _as_square(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2 != 0:
        raise ValueError(f"{name} must be square with even dimension, got shape {M.shape}")
    return M


def _as_cm(V):
    V = _as_square(V, "covariance matrix")
    if np.max(np.abs(V - V.T)) > SYMMETRY_ATOL:
        raise ValueError("covariance matrix is not symmetric to within 1e-12")
    return V


# ---------------------------------------------------------------------------
# elementary constructors
# ---------------------------------------------------------------------------

def symplectic_form(n):
    """Symplectic form Omega for n modes: direct sum of [[0, 1], [-1, 0]] blocks."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"mode count must be a positive integer, got {n!r}")
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n), w)


def vacuum_cm(n):
    """Covariance matrix of n vacuum modes (identity in SNU)."""
    if n < 1:
        raise ValueError("mode count must be >= 1")
    return np.eye(2 * n)


def thermal_cm(nbar_variance, n=1):
    """Covariance matrix of n identical thermal modes with quadrature variance >= 1."""
    if nbar_variance < 1.0:
        raise UnphysicalStateError(f"thermal variance must be >= 1 SNU, got {nbar_variance}")
    return nbar_variance * np.eye(2 * n)


def epr_cm(mu):
    """Two-mode squeezed vacuum covariance matrix with local variance mu >= 1.

    Block form [[mu I, c Z], [c Z, mu I]] with c = sqrt(mu^2 - 1) and
    Z = diag(1, -1); pure for every mu, reducing to two vacua at mu = 1.
    """
    if mu < 1.0:
        raise UnphysicalStateError(f"EPR variance must be >= 1 SNU, got {mu}")
    c = np.sqrt(mu * mu - 1.0)
    Z = np.diag([1.0, -1.0])
    V = np.zeros((4, 4))
    V[:2, :2] = mu * np.eye(2)
    V[2:, 2:] = mu * np.eye(2)
    V[:2, 2:] = c * Z
    V[2:, :2] = c * Z
    return V


# ---------------------------------------------------------------------------
# symplectic transforms
# ---------------------------------------------------------------------------

def beam_splitter(transmissivity, modes, n):
    """Symplectic matrix of a beam splitter acting on two of n modes.

    Convention: for modes (i, j) the transmitted output stays in slot i,
        out_i = sqrt(T) in_i + sqrt(1-T) in_j
        out_j = -sqrt(1-T) in_i + sqrt(T) in_j
    so the off-diagonal blocks carry (+sqrt(1-T), -sqrt(1-T)).
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {transmissivity}")
    i, j = modes
    if i == j or not (0 <= i < n) or not (0 <= j < n):
        raise ValueError(f"beam splitter needs two distinct mode indices in range({n}), got {modes}")
    t = np.sqrt(transmissivity)
    r = np.sqrt(1.0 - transmissivity)
    S = np.eye(2 * n)
    I2 = np.eye(2)
    S[2 * i:2 * i + 2, 2 * i:2 * i + 2] = t * I2
    S[2 * j:2 * j + 2, 2 * j:2 * j + 2] = t * I2
    S[2 * i:2 * i + 2, 2 * j:2 * j + 2] = r * I2
    S[2 * j:2 * j + 2, 2 * i:2 * i + 2] = -r * I2
    return S


def is_symplectic(S, atol=1e-10):
    """True iff S Omega S^T = Omega to within atol."""
    S = _as_square(S, "symplectic matrix")
    Om = symplectic_form(S.shape[0] // 2)
    return np.max(np.abs(S @ Om @ S.T - Om)) <= atol


def apply_symplectic(S, V):
    """Congruence transform S V S^T; output symmetrized against rounding."""
    S = _as_square(S, "symplectic matrix")
    V = _as_cm(V)
    if S.shape != V.shape:
        raise ValueError(f"dimension mismatch: S is {S.shape}, V is {V.shape}")
    W = S @ V @ S.T
    return 0.5 * (W + W.T)


def tensor(*cms):
    """Direct sum of covariance matrices (tensor product of the states)."""
    if not cms:
        raise ValueError("tensor needs at least one covariance matrix")
    mats = [_as_cm(V) for V in cms]
    dim = sum(V.shape[0] for V in mats)
    out = np.zeros((dim, dim))
    k = 0
    for V in mats:
        d = V.shape[0]
        out[k:k + d, k:k + d] = V
        k += d
    return out


def partial_trace(V, keep):
    """Principal submatrix on the kept modes, in the order given."""
    V = _as_cm(V)
    n = V.shape[0] // 2
    keep = [int(m) for m in (keep if np.iterable(keep) else [keep])]
    if not keep:
        raise ValueError("must keep at least one mode")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate mode indices in {keep}")
    if any(not 0 <= m < n for m in keep):
        raise ValueError(f"mode indices {keep} out of range for {n} modes")
    idx = [x for m in keep for x in (2 * m, 2 * m + 1)]
    return V[np.ix_(idx, idx)].copy()


# ---------------------------------------------------------------------------
# symplectic spectrum and entropies
# ---------------------------------------------------------------------------

def _spectrum_from_cholesky(V):
    """Symplectic eigenvalues of a positive-definite V.

    Uses eig(Omega V) = eig(L^T Omega L) for V = L L^T; the right-hand matrix
    is skew-symmetric, so its singular values come in equal pairs (nu, nu).
    This keeps full accuracy where a general eigensolver on Omega V loses the
    small eigenvalues of badly scaled matrices.
    """
    n = V.shape[0] // 2
    try:
        L = np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        raise UnphysicalStateError(
            "covariance matrix is not positive definite (unphysical state)") from None
    K = L.T @ symplectic_form(n) @ L
    K = 0.5 * (K - K.T)
    s = np.linalg.svd(K, compute_uv=False)  # descending
    mismatch = np.abs(s[0::2] - s[1::2]) / max(s[0], 1.0)
    if np.any(mismatch > 1e-8):
        raise DegenerateSpectrumError(
            f"singular values of the skew form failed to pair (max mismatch {mismatch.max():.3e})")
    return 0.5 * (s[0::2] + s[1::2])


def symplectic_spectrum(V):
    """Symplectic eigenvalues of a covariance matrix, sorted descending.

    These are the n positive values nu in the (+-i nu) eigenvalue pairs of
    Omega V; every physical state has nu >= 1, with equality on pure modes.

    Raises UnphysicalStateError for non-positive-definite input and
    DegenerateSpectrumError if the pair structure is lost numerically.
    """
    return _spectrum_from_cholesky(_as_cm(V))


def is_bona_fide(V, atol=BONA_FIDE_ATOL):
    """True iff V is a physical covariance matrix (all nu >= 1 - atol)."""
    try:
        nu = symplectic_spectrum(V)
    except UnphysicalStateError:
        return False
    return bool(nu[-1] >= 1.0 - atol)


def entropic_h(nu):
    """Von Neumann entropy contribution of one symplectic eigenvalue, in bits.

    h(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), with
    0 log 0 = 0 so that h(1) = 0.  Values in [1 - 1e-9, 1) are clamped to 1;
    anything lower is a domain error.  Accepts scalars or arrays.
    """
    arr = np.asarray(nu, dtype=float)
    if np.any(arr < 1.0 - BONA_FIDE_ATOL):
        raise ValueError(f"symplectic eigenvalue below 1: {arr.min()}")
    arr = np.maximum(arr, 1.0)
    a = 0.5 * (arr + 1.0)
    b = 0.5 * (arr - 1.0)
    out = (xlogy(a, a) - xlogy(b, b)) / _LN2
    return float(out) if np.ndim(nu) == 0 else out


def entropic_h_asymptotic(nu):
    """Large-nu form of entropic_h: log2((e/2) nu).  Exact up to O(1/nu)."""
    arr = np.asarray(nu, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError(f"asymptotic entropy needs nu > 0, got {arr.min()}")
    out = np.log2(0.5 * np.e * arr)
    return float(out) if np.ndim(nu) == 0 else out


def von_neumann_entropy(V):
    """Von Neumann entropy of a Gaussian state in bits: sum of h over the spectrum.

    Eigenvalues within the rounding floor of 1 (which grows with the matrix
    scale) are snapped to 1 before summing: h has a log-singular derivative
    there, so sub-rounding deviations would otherwise inject spurious
    entropy.  Spectra genuinely below the floor raise UnphysicalStateError.
    """
    V = _as_cm(V)
    nu = symplectic_spectrum(V)
    dust = max(BONA_FIDE_ATOL, 256.0 * _EPS * float(np.max(np.abs(V))))
    if nu[-1] < 1.0 - dust:
        raise UnphysicalStateError(
            f"state is not bona fide: smallest symplectic eigenvalue {nu[-1]}")
    nu = np.where(np.abs(nu - 1.0) <= dust, 1.0, nu)
    return float(np.sum(entropic_h(nu)))


# ---------------------------------------------------------------------------
# measurements and separability
# ---------------------------------------------------------------------------

def heterodyne_condition(V, measured):
    """Covariance matrix of the kept modes after heterodyning the measured ones.

    Heterodyne detection projects onto coherent states, so the conditional
    state is the Schur complement V_keep - C (V_meas + I)^-1 C^T, independent
    of the measurement outcome.  `measured` is a mode index or set of them
    and must be a proper nonempty subset of the modes.
    """
    V = _as_cm(V)
    n = V.shape[0] // 2
    measured = sorted({int(m) for m in (measured if np.iterable(measured) else [measured])})
    if not measured or len(measured) >= n:
        raise ValueError(f"measured modes must be a proper nonempty subset, got {measured}")
    if any(not 0 <= m < n for m in measured):
        raise ValueError(f"mode indices {measured} out of range for {n} modes")
    keep = [m for m in range(n) if m not in measured]
    ik = [x for m in keep for x in (2 * m, 2 * m + 1)]
    im = [x for m in measured for x in (2 * m, 2 * m + 1)]
    A = V[np.ix_(ik, ik)]
    B = V[np.ix_(im, im)] + np.eye(len(im))
    C = V[np.ix_(ik, im)]
    try:
        W = A - C @ np.linalg.solve(B, C.T)
    except np.linalg.LinAlgError:
        raise UnphysicalStateError(
            "singular measured block: V_meas + I not invertible") from None
    return 0.5 * (W + W.T)


def ppt_separable(V, atol=BONA_FIDE_ATOL):
    """PPT separability test for a two-mode Gaussian state.

    Flips the sign of the second mode's p quadrature (partial transposition)
    and checks that the result is still bona fide.  For 1x1-mode Gaussian
    states this criterion is necessary and sufficient.
    """
    V = _as_cm(V)
    if V.shape[0] != 4:
        raise ValueError(f"PPT test is defined for two-mode states, got {V.shape[0] // 2} modes")
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    nu = symplectic_spectrum(flip @ V @ flip)
    return bool(nu[-1] >= 1.0 - atol)
