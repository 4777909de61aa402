"""Exact derivations in sympy, for the tests only.

Eve's two ancillas share V = [[w I, G], [G, w I]], G = diag(g, g'), with
quadratures ordered (q1, p1, q2, p2).  V has no q-p entry, so it is the
direct sum of the q block Vx = [[w, g], [g, w]] and the p block
Vp = [[w, g'], [g', w]].  For such a state the squared symplectic
eigenvalues are the eigenvalues of Vx Vp, here (w - g)(w - g') and
(w + g)(w + g') (Serafini, Illuminati & De Siena, J. Phys. B 37, L21
(2004)).  V is positive definite iff Vx and Vp are, that is iff w > 0,
det Vx = (w - g)(w + g) > 0 and det Vp = (w - g')(w + g') > 0; with w >= 1
this is |g|, |g'| < w.  The state is physical iff it is positive definite
and both squared symplectic eigenvalues are at least 1.
"""

import functools
from fractions import Fraction

import sympy as sp

w, g, g_prime = sp.symbols("w g g_prime", real=True)

Q, P = (0, 2), (1, 3)  # indices of q1, q2 and of p1, p2 in (q1, p1, q2, p2) order


def eve_cm():
    """Eve's covariance matrix [[w I, G], [G, w I]] in (q1, p1, q2, p2) order."""
    G = sp.diag(g, g_prime)
    return sp.Matrix(sp.BlockMatrix([[w * sp.eye(2), G], [G, w * sp.eye(2)]]))


def quadrature_blocks(V):
    """(Vx, Vp, C) of V: its q-q and p-p blocks and the q-p block C."""
    return V.extract(Q, Q), V.extract(P, P), V.extract(Q, P)


def symplectic_squares():
    """The eigenvalues of Vx Vp, each with its multiplicity: the squared symplectic spectrum."""
    Vx, Vp, _ = quadrature_blocks(eve_cm())
    return {sp.factor(nu2): m for nu2, m in (Vx * Vp).eigenvals().items()}


@functools.cache
def physical_conditions():
    """Expressions that are all > 0 (the leading minors of Vx and Vp) and all >= 1 (the
    squared symplectic eigenvalues) exactly when Eve's state is physical."""
    Vx, Vp, _ = quadrature_blocks(eve_cm())
    positive = (w, sp.factor(Vx.det()), sp.factor(Vp.det()))
    return positive, tuple(symplectic_squares())


@functools.cache
def _condition_function():
    # the conditions are polynomials, so the generated code is plain arithmetic and
    # evaluates Fractions exactly
    return sp.lambdify((w, g, g_prime), physical_conditions(), modules=[{}])


def condition_values(omega, g_value, g_prime_value):
    """physical_conditions at a rational point, as exact Fractions."""
    return _condition_function()(*map(Fraction, (omega, g_value, g_prime_value)))


def is_physical_exact(omega, g_value, g_prime_value):
    """Exact physicality of Eve's state at a rational point."""
    positive, at_least_one = condition_values(omega, g_value, g_prime_value)
    return all(x > 0 for x in positive) and all(x >= 1 for x in at_least_one)
