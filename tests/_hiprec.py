"""Extended-precision oracles for the convergence tests.

The displacement limit drives Alice's source variance to mu/(1-eta) + 1,
which reaches 1e12 at the standard check point (mu = 1e6, eta = 1 - 1e-6).
float64 cannot hold the purity of an EPR pair at that scale: the correlation
sqrt(mu_A^2 - 1) differs from mu_A by ~5e-13 while the rounding grain of the
matrix entries is ~1e-4, so the near-unit symplectic eigenvalues of the total
state are destroyed before any solver runs.  These helpers rebuild the total
covariance matrix and its symplectic spectrum in 40-digit arithmetic, where
the limit is representable.
"""

import mpmath as mp

DPS = 40


def _mpf(x):
    """The exact binary value of float(x), not the decimal of its shortest repr."""
    return mp.mpf(float(x))


def mp_attack(label, omega):
    """(g, g') of a named attack class, computed in mp precision."""
    w = _mpf(omega)
    c = mp.sqrt(w * w - 1)
    s = w - 1
    table = {
        "collective": (mp.mpf(0), mp.mpf(0)),
        "epr+": (c, -c),
        "epr-": (-c, c),
        "sep-sym+": (s, s),
        "sep-sym-": (-s, -s),
        "sep-anti+": (s, -s),
        "sep-anti-": (-s, s),
    }
    return table[label]


def mp_total_cm(T, eta, mu_B, mu_A, omega, g, g_prime):
    """Closed-form total covariance matrix (modes B1, A, A'', B2) in mp numbers."""
    T, eta, muB, muA, w = map(_mpf, (T, eta, mu_B, mu_A, omega))
    g = g if isinstance(g, mp.mpf) else _mpf(g)
    gp = g_prime if isinstance(g_prime, mp.mpf) else _mpf(g_prime)
    phi = -mp.sqrt(T * (1 - eta) * (muB**2 - 1))
    theta = T * mp.sqrt(eta * (muB**2 - 1))
    k = eta * muA + (1 - eta) * (T * muB + (1 - T) * w)
    xi = mp.sqrt(eta * (muA**2 - 1))
    tau = mp.sqrt(T * (1 - eta) * (muA**2 - 1))
    eps = T * T * eta * muB + T * (1 - eta) * muA + (T * eta + 1) * (1 - T) * w
    g_eps = 2 * (1 - T) * mp.sqrt(eta * T)
    delta = mp.sqrt(T * eta * (1 - eta)) * (muA - T * muB - (1 - T) * w)
    g_delta = -(1 - T) * mp.sqrt(1 - eta)
    I = mp.eye(2)
    Z = mp.diag([1, -1])
    G = mp.diag([g, gp])
    V = mp.zeros(8, 8)

    def put(i, j, block):
        for r in range(2):
            for c in range(2):
                V[2 * i + r, 2 * j + c] = block[r, c]
                if i != j:
                    V[2 * j + c, 2 * i + r] = block[r, c]

    put(0, 0, muB * I)
    put(1, 1, muA * I)
    put(2, 2, k * I)
    put(3, 3, eps * I + g_eps * G)
    put(0, 2, phi * Z)
    put(0, 3, theta * Z)
    put(1, 2, xi * Z)
    put(1, 3, tau * Z)
    put(2, 3, delta * I + g_delta * G)
    return V


def mp_symplectic_spectrum(V):
    """Symplectic eigenvalues of an mp covariance matrix, descending.

    Runs Faddeev-LeVerrier on M = Omega V; the characteristic polynomial has
    only even powers, so the eigenvalues nu^2 are the roots of a degree-n
    polynomial solved with mp.polyroots.
    """
    dim = V.rows
    n = dim // 2
    Om = mp.zeros(dim, dim)
    for k in range(n):
        Om[2 * k, 2 * k + 1] = mp.mpf(1)
        Om[2 * k + 1, 2 * k] = mp.mpf(-1)
    M = Om * V
    # char poly x^{2n} + c1 x^{2n-1} + ... + c_{2n}
    coeffs = [mp.mpf(1)]
    Mk = mp.eye(dim)
    for k in range(1, dim + 1):
        Mk = M * (Mk + coeffs[-1] * mp.eye(dim)) if k > 1 else M * Mk
        ck = -sum(Mk[i, i] for i in range(dim)) / k
        coeffs.append(ck)
    # odd coefficients vanish (spectrum is +-i nu): p(x) = prod_k (x^2 + nu_k^2),
    # so u = x^2 satisfies u^n + c2 u^{n-1} + ... + c_{2n} = 0 at u = -nu_k^2
    even = [coeffs[2 * k] for k in range(n + 1)]
    roots = mp.polyroots(even, maxsteps=200, extraprec=80)
    nus = sorted((mp.sqrt(abs(r)) for r in roots), reverse=True)
    return nus


def with_dps(fn, *args, **kwargs):
    """Run fn under the oracle precision, restoring the global setting after."""
    old = mp.mp.dps
    mp.mp.dps = DPS
    try:
        return fn(*args, **kwargs)
    finally:
        mp.mp.dps = old


def mp_entropic_h(nu):
    """entropic_h in mp precision, with 0 log 0 = 0."""
    a = (nu + 1) / 2
    b = (nu - 1) / 2
    return a * mp.log(a, 2) - (b * mp.log(b, 2) if b > 0 else 0)


def _mp_oneway_state(T, w, a):
    """(V_AB, b, b_cond) of the one-way baseline from mp numbers: V_AB = [[a I, c Z], [c Z, b I]]
    with b = T a + (1-T) w and c = sqrt(T (a^2 - 1)), and Alice's heterodyne as the Schur
    complement b_cond = b - c^2/(a+1)."""
    b = T * a + (1 - T) * w
    c = mp.sqrt(T * (a * a - 1))
    V = mp.matrix([[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]])
    return V, b, b - c * c / (a + 1)


def mp_oneway_information(T, omega, mu_a):
    """One-way I_AB = log2((b+1)/(b_cond+1)) at the exact binary values of the arguments.

    b - b_cond = T (mu_a - 1), so the ratio lies within about T mu_a of 1:
    at T = 1e-300 the caller needs some 330 digits of precision.
    """
    _, b, b_cond = _mp_oneway_state(*map(_mpf, (T, omega, mu_a)))
    return mp.log((b + 1) / (b_cond + 1), 2)


def mp_oneway_rate(T, omega, mu_a):
    """One-way baseline rate I_AB - chi_EA from the A-B covariance matrix in mp numbers.

    Takes the symplectic spectrum of V_AB (see _mp_oneway_state) with
    mp_symplectic_spectrum and conditions on Alice's heterodyne by the Schur
    complement.
    """
    V, b, b_cond = _mp_oneway_state(*map(_mpf, (T, omega, mu_a)))
    i_ab = mp.log((b + 1) / (b_cond + 1), 2)
    chi = sum(mp_entropic_h(nu) for nu in mp_symplectic_spectrum(V)) - mp_entropic_h(b_cond)
    return i_ab - chi
