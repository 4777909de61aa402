"""Gaussian-state linear algebra on covariance matrices.

All second moments are expressed in shot-noise units (SNU), i.e. the vacuum
state has quadrature variance 1.  An n-mode state is a real symmetric
positive-definite 2n x 2n matrix with quadratures ordered
(q1, p1, q2, p2, ..., qn, pn).  First moments are never tracked: every
quantity computed here depends on second moments only.
"""

import math
import operator

import numpy as np

from .errors import DegenerateSpectrumError, UnphysicalStateError

_LN2 = np.log(2.0)
_EPS = np.finfo(float).eps

#: absolute tolerance under which a symplectic eigenvalue counts as >= 1
BONA_FIDE_ATOL = 1e-9

#: absolute symmetry tolerance for covariance matrices
SYMMETRY_ATOL = 1e-12

#: largest thermal or modulation variance (SNU) the closed forms accept.  It is
#: not a precision limit: every square in them stays finite up to about 1e154,
#: and entropic_h was within 4e-16 relative of a 50-digit h at every point
#: sampled up to 1.7e308
MAX_VARIANCE = 1e9


def _as_square(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2 != 0:
        raise ValueError(f"{name} must be square with even dimension, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} must be finite, got a NaN or infinite entry")
    return M


def _as_cm(V):
    V = _as_square(V, "covariance matrix")
    if np.max(np.abs(V - V.T)) > SYMMETRY_ATOL:
        raise ValueError("covariance matrix is not symmetric to within 1e-12")
    return V


# ---------------------------------------------------------------------------
# elementary constructors
# ---------------------------------------------------------------------------

def _check_modes(n):
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"mode count must be a positive integer, got {n!r}")


def _mode_indices(modes, n, name):
    """One integer or an iterable of them (Python or numpy, not bool) as a tuple, in order."""
    items = tuple(modes) if np.iterable(modes) else (modes,)
    try:
        idx = tuple(operator.index(m) for m in items)
    except TypeError:
        idx = None
    if idx is None or any(isinstance(m, bool) for m in items):  # index(True) is 1
        raise ValueError(f"{name} must be integer mode indices, got {modes!r}")
    if len(set(idx)) != len(idx) or any(not 0 <= m < n for m in idx):
        raise ValueError(f"{name} must be distinct mode indices in range({n}), got {modes!r}")
    return idx


def _check_variance(kind, v):
    if not math.isfinite(v):
        raise ValueError(f"{kind} variance must be finite, got {v}")
    if v < 1.0:
        raise UnphysicalStateError(f"{kind} variance must be >= 1 SNU, got {v}")


def symplectic_form(n):
    """Symplectic form Omega for n modes: direct sum of [[0, 1], [-1, 0]] blocks."""
    _check_modes(n)
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n), w)


def vacuum_cm(n):
    """Covariance matrix of n vacuum modes (identity in SNU)."""
    _check_modes(n)
    return np.eye(2 * n)


def thermal_cm(nbar_variance, n=1):
    """Covariance matrix of n identical thermal modes with quadrature variance >= 1."""
    _check_variance("thermal", nbar_variance)
    _check_modes(n)
    return nbar_variance * np.eye(2 * n)


def epr_cm(mu):
    """Two-mode squeezed vacuum covariance matrix with local variance mu >= 1.

    Block form [[mu I, c Z], [c Z, mu I]] of 2x2 blocks, c = sqrt(mu^2 - 1)
    and Z = diag(1, -1); pure for every mu, reducing to two vacua at mu = 1.
    """
    _check_variance("EPR", mu)
    c = np.sqrt(mu * mu - 1.0)
    I, Z = np.eye(2), np.diag([1.0, -1.0])
    return np.block([[mu * I, c * Z], [c * Z, mu * I]])


# ---------------------------------------------------------------------------
# symplectic transforms
# ---------------------------------------------------------------------------

def beam_splitter(transmissivity, modes, n):
    """Symplectic matrix of a beam splitter acting on two of n modes.

    Convention: for modes (i, j) the transmitted output stays in slot i,
        out_i = sqrt(T) in_i + sqrt(1-T) in_j
        out_j = -sqrt(1-T) in_i + sqrt(T) in_j
    so the off-diagonal blocks carry (+sqrt(1-T), -sqrt(1-T)).  `modes` is a
    pair of distinct integers in range(n); S is the identity on the other modes.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {transmissivity}")
    _check_modes(n)
    idx = _mode_indices(modes, n, "modes")
    if len(idx) != 2:
        raise ValueError(f"modes must be two mode indices for a beam splitter, got {modes!r}")
    i, j = idx
    t, r = np.sqrt(transmissivity), np.sqrt(1.0 - transmissivity)
    M = np.eye(n)  # one entry per 2x2 block of S
    M[i, i], M[i, j], M[j, i], M[j, j] = t, r, -r, t
    return np.kron(M, np.eye(2))


def is_symplectic(S):
    """True iff S Omega S^T = Omega to within 1e-10 in every entry."""
    S = _as_square(S, "symplectic matrix")
    Om = symplectic_form(S.shape[0] // 2)
    return np.max(np.abs(S @ Om @ S.T - Om)) <= 1e-10


def apply_symplectic(S, V):
    """Congruence transform S V S^T; output symmetrized against rounding."""
    S = _as_square(S, "symplectic matrix")
    V = _as_cm(V)
    if S.shape != V.shape:
        raise ValueError(f"dimension mismatch: S is {S.shape}, V is {V.shape}")
    W = S @ V @ S.T
    return 0.5 * (W + W.T)


def tensor(*cms):
    """Direct sum of covariance matrices (tensor product of the states).

    Block form diag(V1, V2, ...): the modes of each state follow in the order given.
    """
    if not cms:
        raise ValueError("tensor needs at least one covariance matrix")
    mats = [_as_cm(V) for V in cms]
    return np.block([[A if a == b else np.zeros((len(A), len(B))) for b, B in enumerate(mats)]
                     for a, A in enumerate(mats)])


def partial_trace(V, keep):
    """Principal submatrix on the kept modes, in the order given.

    `keep` is one mode index or an iterable of distinct ones in range(n),
    at least one; keep=(1, 0) swaps the first two modes.
    """
    V = _as_cm(V)
    keep = _mode_indices(keep, V.shape[0] // 2, "keep")
    if not keep:
        raise ValueError("keep must name at least one mode")
    idx = [x for m in keep for x in (2 * m, 2 * m + 1)]
    return V[np.ix_(idx, idx)].copy()


# ---------------------------------------------------------------------------
# symplectic spectrum and entropies
# ---------------------------------------------------------------------------

def symplectic_spectrum(V):
    """Symplectic eigenvalues of a covariance matrix, sorted descending.

    These are the n positive values nu in the (+-i nu) eigenvalue pairs of
    Omega V; every physical state has nu >= 1, with equality on pure modes.
    They are the singular values, in equal pairs, of the skew-symmetric
    L^T Omega L for V = L L^T, which keeps full accuracy where a general
    eigensolver on Omega V loses the small eigenvalues of badly scaled matrices.

    Raises UnphysicalStateError for non-positive-definite input and
    DegenerateSpectrumError if the pair structure is lost numerically.
    """
    V = _as_cm(V)
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


def is_bona_fide(V):
    """True iff V is a physical covariance matrix (all nu >= 1 - BONA_FIDE_ATOL)."""
    try:
        nu = symplectic_spectrum(V)
    except UnphysicalStateError:
        return False
    return bool(nu[-1] >= 1.0 - BONA_FIDE_ATOL)


#: entropic_h takes its log1p form below this eigenvalue and its series from it on
_NU_SERIES = 1.5

#: coefficients 1 / (2k (2k+1) ln 2), k = 38..1, of the series in u = nu^-2;
#: the first omitted term is below 1e-17 at nu = 1.5
_SERIES = tuple(1.0 / (2 * k * (2 * k + 1) * _LN2) for k in range(38, 0, -1))

_LOG2_HALF_E = np.log2(np.e) - 1.0


def entropic_h(nu):
    """Von Neumann entropy contribution of one symplectic eigenvalue, in bits.

    h(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), with
    0 log 0 = 0 so that h(1) = 0.  Values in [1 - 1e-9, 1) are clamped to 1;
    anything lower is a domain error.  Accepts scalars or arrays.

    It needs only numpy, has a relative error below 1e-15 and never steps
    down between adjacent floats.  With b = (nu-1)/2, below nu = 1.5 it is
    (log1p(b) + b log1p(1/b)) / ln 2, a sum of two nonnegative terms; there
    each float step raises log1p(b) by more than three units in its last
    place, more than the rounding of b log1p(1/b) can take back.  From 1.5
    on, where a step can raise h by far less than one unit, it is
    log2(nu) + log2(e/2) - sum_k u^k / (2k (2k+1) ln 2) with u = nu^-2:
    every term of the sum is a product of nonnegative factors that fall with
    nu, and rounding a sum or a product keeps such an order.
    """
    arr = np.asarray(nu, dtype=float)
    if np.any(arr < 1.0 - BONA_FIDE_ATOL):
        raise ValueError(f"symplectic eigenvalue below 1: {arr.min()}")
    out = np.maximum(arr, 1.0, out=np.empty_like(arr))
    # the log1p form sees only the lanes below the switch, where its b = 0
    # lane divides by 1 and adds 0; the rest (inf and NaN among them) take
    # the series.  Each form reads a copy of its lanes and writes them back
    near = out < _NU_SERIES
    far = ~near
    b = 0.5 * (out[near] - 1.0)
    x = out[far]
    out[near] = (np.log1p(b) + b * np.log1p(1.0 / np.where(b > 0.0, b, 1.0))) / _LN2
    u = 1.0 / x
    u *= u
    series = _SERIES[0] * u + _SERIES[1]
    for c in _SERIES[2:]:
        series *= u
        series += c
    series *= u
    np.log2(x, out=x)
    x += _LOG2_HALF_E - series
    out[far] = x
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
    of the measurement outcome.  `measured` is one mode index or an iterable
    (a set, say) of distinct ones in range(n), a proper nonempty subset of
    the modes; the kept modes stay in ascending order.
    """
    V = _as_cm(V)
    n = V.shape[0] // 2
    measured = sorted(_mode_indices(measured, n, "measured"))
    if not measured or len(measured) >= n:
        raise ValueError(f"measured must be a proper nonempty subset of the modes, got {measured}")
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


def ppt_separable(V):
    """PPT separability test for a two-mode Gaussian state.

    Flips the sign of the second mode's p quadrature (partial transposition)
    and checks that the result is still bona fide: its smallest symplectic
    eigenvalue is at least 1 - BONA_FIDE_ATOL.  For 1x1-mode Gaussian
    states this criterion is necessary and sufficient.
    """
    V = _as_cm(V)
    if V.shape[0] != 4:
        raise ValueError(f"PPT test is defined for two-mode states, got {V.shape[0] // 2} modes")
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    nu = symplectic_spectrum(flip @ V @ flip)
    return bool(nu[-1] >= 1.0 - BONA_FIDE_ATOL)
