"""Shared random-state generators, the call recorder, the in-process CLI runner and scalar,
matrix-route or per-value oracles for the tests."""

import contextlib
import io
import json
import math

import numpy as np

from twowayqkd import (DegenerateSpectrumError, UnphysicalStateError, apply_symplectic,
                       beam_splitter, cli, conditional_cm, entropic_h, epr_cm, gaussian,
                       heterodyne_condition, partial_trace, symplectic_form, tensor, thermal_cm,
                       total_cm, vacuum_cm, von_neumann_entropy)
from twowayqkd.security import (BRACKET_CAP, BRACKET_TOL, INSECURE_AT_VACUUM, NO_CROSSING,
                                NON_MONOTONE, OK, RESIDUAL_TOL)


def random_bona_fide_cm(rng, n, pure=False):
    """Random physical n-mode covariance matrix.

    Tensors EPR pairs and thermal (or vacuum, when pure) modes, then stirs
    them through a few random beam splitters.
    """
    blocks = []
    m = 0
    while m < n:
        if n - m >= 2 and rng.random() < 0.6:
            blocks.append(epr_cm(rng.uniform(1.0, 5.0)))
            m += 2
        elif pure:
            blocks.append(vacuum_cm(1))
            m += 1
        else:
            blocks.append(thermal_cm(rng.uniform(1.0, 4.0)))
            m += 1
    V = tensor(*blocks)
    if n >= 2:
        for _ in range(4):
            i, j = rng.choice(n, size=2, replace=False)
            V = apply_symplectic(beam_splitter(rng.uniform(0.05, 0.95), (int(i), int(j)), n), V)
    return V


def random_beam_splitter_net(rng, n, depth=4):
    """Random symplectic built from beam splitters only."""
    S = np.eye(2 * n)
    for _ in range(depth):
        i, j = rng.choice(n, size=2, replace=False)
        S = beam_splitter(rng.uniform(0.05, 0.95), (int(i), int(j)), n) @ S
    return S


def random_physical_attack(rng, omega=None):
    """Random physical attack parameters, rejection-sampled on the grid square."""
    from twowayqkd import AttackParams, is_physical

    w = float(rng.uniform(1.0, 4.0)) if omega is None else float(omega)
    while True:
        g = float(rng.uniform(-w, w))
        gp = float(rng.uniform(-w, w))
        a = AttackParams(w, g, gp)
        if is_physical(a):
            return a


def spectrum_from_eig(V):
    """Symplectic eigenvalues via a complex eigensolver on Omega V.

    Independent of the package's Cholesky/SVD route; kept for cross-validation.
    """
    n = V.shape[0] // 2
    ew = np.linalg.eigvalsh(V)
    if ew[0] <= 0.0:
        raise UnphysicalStateError(
            "covariance matrix is not positive definite (unphysical state)")
    lam = np.linalg.eigvals(symplectic_form(n) @ V)
    scale = max(np.abs(lam).max(), 1.0)
    if np.max(np.abs(lam.real)) > 1e-8 * scale:
        raise DegenerateSpectrumError(
            f"eigenvalues of Omega V are not purely imaginary (residue {np.abs(lam.real).max():.3e})")
    pos = np.sort(lam.imag[lam.imag > 0])[::-1]
    if pos.size != n:
        raise DegenerateSpectrumError(
            f"expected {n} positive-imaginary eigenvalues, found {pos.size}")
    return np.abs(pos)


def record_calls(monkeypatch, module, name):
    """Patch module.name with a wrapper that records each call; the list of (args, kwargs)."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def run_cli(*argv):
    """(exit code, standard output, standard error) of cli.main(argv), run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def oneway_quantities_circuit(T, omega, mu_a):
    """(I_AB, chi_EA) of the one-way baseline, simulated with the covariance-matrix toolbox.

    Oracle for security._oneway_quantities: modes A (kept), A' (sent) and E
    (thermal) pass once through the channel, then A is heterodyned.
    """
    V = tensor(epr_cm(mu_a), thermal_cm(omega))
    V = apply_symplectic(beam_splitter(T, (1, 2), 3), V)
    V_ab = partial_trace(V, keep=(0, 1))
    b = V_ab[2, 2]
    b_cond = heterodyne_condition(V_ab, measured=0)[0, 0]
    # exact value is T + (1-T)*omega >= 1; snap the cancellation dust at large mu_a
    dust = 256.0 * np.finfo(float).eps * b
    if b_cond < 1.0 - dust:
        raise UnphysicalStateError(f"conditional variance {b_cond} below vacuum noise")
    if abs(b_cond - 1.0) <= dust:
        b_cond = 1.0
    i_ab = math.log2((b + 1.0) / (b_cond + 1.0))
    chi = von_neumann_entropy(V_ab) - entropic_h(b_cond)
    return i_ab, chi


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


def lexsort_minimizer(rows):
    """(g, g', R) of the lowest-rate row of (g, g', R) rows, ties to the smallest g, then g'.

    Oracle for optimal_attack_scan's minimum and tie rule: a full sort of the
    whole grid, in any row order.
    """
    g, gp, rates = rows.T
    best = np.lexsort((gp, g, rates))[0]
    return float(g[best]), float(gp[best]), float(rates[best])


def bisect_threshold(rate):
    """Zero of a scalar rate function of omega on [1, inf), by doubling plus bisection.

    Oracle for security._bisect_lanes, one lane at a time.  Returns
    (omega_star, status) as a ThresholdCurve point holds them: (1.0,
    INSECURE_AT_VACUUM) when rate(1) <= 0 (no secure region at all),
    (nan, NON_MONOTONE) if the sampled rate fails to decrease strictly while
    bracketing or the root residual is too large, and (inf, NO_CROSSING) if no
    sign change is found below the cap.  An OK root has bracket width
    <= BRACKET_TOL and |rate| <= RESIDUAL_TOL.
    """
    r_lo = rate(1.0)
    if not r_lo > 0.0:
        return 1.0, INSECURE_AT_VACUUM
    lo, hi = 1.0, 2.0
    while True:
        r_hi = rate(hi)
        if not r_hi < r_lo:
            return math.nan, NON_MONOTONE
        if r_hi < 0.0:
            break
        lo, r_lo = hi, r_hi
        hi *= 2.0
        if hi > BRACKET_CAP:
            return math.inf, NO_CROSSING
    while hi - lo > BRACKET_TOL:
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    if abs(rate(root)) > RESIDUAL_TOL:
        return math.nan, NON_MONOTONE
    return root, OK


# ---------------------------------------------------------------------------
# per-value CSV/JSON emitter: oracle for twowayqkd._serialize
# ---------------------------------------------------------------------------

def fmt_float(x):
    """17-significant-digit decimal form of a float; 'inf'/'nan' pass through."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, int):
        return str(value)
    return str(value)


def csv_table(header, rows):
    """CSV text from a header sequence and an iterable of row sequences."""
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_value(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return "null"
        return fmt_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def json_text(value):
    """Deterministic JSON text (insertion-ordered keys, 17-digit floats)."""
    return _json_value(value) + "\n"
