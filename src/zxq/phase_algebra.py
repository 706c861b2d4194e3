"""Closed-form colour swap for phase chains, and an independent oracle.

A Z-phase ``a`` (an arbitrary nonzero complex number) denotes diag(1, a);
an X-phase ``b`` denotes [[1+b, 1-b], [1-b, 1+b]].  For generic inputs
there is a triple (a2, b2, c2) and a nonzero k with

    X(c2) . Z(b2) . X(a2)  =  k *  Z(c1) . X(b1) . Z(a1)

(matrices applied right to left, so a1 acts first).
:func:`generalized_color_swap` computes that triple in closed form from
the intermediate products tau, U, V, S, T; the square root's branch is
fixed by verifying the identity and flipping the sign if needed.

For regular phases a = e^{i alpha} the solution reduces to Euler angles:
:func:`p_rule_angles` maps (alpha1, beta1, gamma1) of a Z-X-Z rotation
chain to the (alpha2, beta2, gamma2) of the proportional X-Z-X chain.
:func:`euler_xzx_extract` recovers such a triple directly from a 2x2
matrix and serves as the independent check on the closed forms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .phase import Phase, circular_distance

#: threshold (relative to the term magnitudes) below which a configuration
#: is routed to the degenerate/singular paths
SINGULAR_EPS = 1e-12
_TAU_EPS = 1e-10
_VERIFY_TOL = 1e-9


class SingularConfiguration(ValueError):
    """The closed form does not apply; ``reason`` is one of
    ``"T=0"``, ``"S=0"``, ``"tau-degenerate"``."""

    def __init__(self, reason: str):
        super().__init__(f"singular colour-swap configuration: {reason}")
        self.reason = reason


@dataclass(frozen=True)
class GeneralPhaseTriple:
    a: complex
    b: complex
    c: complex


@dataclass(frozen=True)
class SwapIntermediates:
    tau: complex
    u: complex
    v: complex
    s: complex
    t: complex


@dataclass(frozen=True)
class SwapSolution:
    out: GeneralPhaseTriple
    k: complex
    intermediates: SwapIntermediates


def z_general(a: complex) -> np.ndarray:
    return np.array([[1, 0], [0, a]], dtype=complex)


def x_general(b: complex) -> np.ndarray:
    return np.array([[1 + b, 1 - b], [1 - b, 1 + b]], dtype=complex)


def swap_residual(inp: GeneralPhaseTriple, sol: SwapSolution) -> float:
    """Relative Frobenius residual of the defining matrix identity."""
    lhs = z_general(inp.c) @ x_general(inp.b) @ z_general(inp.a)
    rhs = x_general(sol.out.c) @ z_general(sol.out.b) @ x_general(sol.out.a)
    target = sol.k * lhs
    scale = max(np.linalg.norm(rhs), np.linalg.norm(target), 1e-300)
    return float(np.linalg.norm(rhs - target) / scale)


def generalized_color_swap(inp: GeneralPhaseTriple) -> SwapSolution:
    """Solve the colour-swap identity for arbitrary complex phases.

    Raises :class:`SingularConfiguration` when the closed form breaks
    down (T = 0, S = 0, or the quadratic for k degenerates).
    """
    a1, b1, c1 = inp.a, inp.b, inp.c
    tau = (1 - b1) * (a1 + c1) + (1 + b1) * (1 + a1 * c1)
    u = (1 + b1) * (a1 * c1 - 1)
    v = (1 - b1) * (a1 - c1)
    s = (1 - b1) * (a1 + c1) - (1 + b1) * (1 + a1 * c1)
    t = tau * (u * u - v * v)

    s_scale = abs((1 - b1) * (a1 + c1)) + abs((1 + b1) * (1 + a1 * c1))
    t_scale = abs(tau) * (abs(u) ** 2 + abs(v) ** 2)
    if abs(t) <= SINGULAR_EPS * max(1.0, t_scale):
        raise SingularConfiguration("T=0")
    if abs(s) <= SINGULAR_EPS * max(1.0, s_scale):
        raise SingularConfiguration("S=0")
    quad = s * tau * tau + t
    if abs(quad) <= _TAU_EPS * max(1.0, abs(s) * abs(tau) ** 2 + abs(t)):
        raise SingularConfiguration("tau-degenerate")

    best: SwapSolution | None = None
    best_res = math.inf
    for r in (cmath.sqrt(t / s), -cmath.sqrt(t / s)):
        den = tau - 1j * r
        if abs(den) <= 1e-300:
            continue
        sol = SwapSolution(
            out=GeneralPhaseTriple(
                a=-1j * (u + v) / r, b=(tau + 1j * r) / den, c=-1j * (u - v) / r
            ),
            k=8.0 / den,
            intermediates=SwapIntermediates(tau, u, v, s, t),
        )
        res = swap_residual(inp, sol)
        if res < best_res:
            best, best_res = sol, res
    if best is None or best_res > _VERIFY_TOL:
        raise SingularConfiguration("tau-degenerate")
    return best


# -- regular phases -----------------------------------------------------------


@dataclass(frozen=True)
class EulerTriple:
    """Angles of a three-rotation chain; ``alpha`` is applied first."""

    alpha: Phase
    beta: Phase
    gamma: Phase

    @property
    def radians(self) -> tuple[float, float, float]:
        return (self.alpha.radians, self.beta.radians, self.gamma.radians)


def z_phase_matrix(rad: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * rad)]], dtype=complex)


def x_phase_matrix(rad: float) -> np.ndarray:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    return h @ z_phase_matrix(rad) @ h


def zxz_matrix(t: EulerTriple) -> np.ndarray:
    """Z(gamma) . X(beta) . Z(alpha), alpha applied first."""
    a, b, g = t.radians
    return z_phase_matrix(g) @ x_phase_matrix(b) @ z_phase_matrix(a)


def xzx_matrix(t: EulerTriple) -> np.ndarray:
    """X(gamma) . Z(beta) . X(alpha), alpha applied first."""
    a, b, g = t.radians
    return x_phase_matrix(g) @ z_phase_matrix(b) @ x_phase_matrix(a)


def _triple(a: float, b: float, g: float) -> EulerTriple:
    return EulerTriple(Phase.approx(a), Phase.approx(b), Phase.approx(g))


def chain_parameters(t: EulerTriple) -> tuple[complex, complex]:
    """The (z, z1) pair controlling the colour swap of a Z-X-Z chain."""
    alpha, beta, gamma = t.radians
    z = complex(
        math.cos(beta / 2) * math.cos((alpha + gamma) / 2),
        math.sin(beta / 2) * math.cos((alpha - gamma) / 2),
    )
    z1 = complex(
        math.cos(beta / 2) * math.sin((alpha + gamma) / 2),
        -math.sin(beta / 2) * math.sin((alpha - gamma) / 2),
    )
    return z, z1


def degenerate_case(t: EulerTriple) -> str | None:
    """Which degenerate path (if any) ``p_rule_angles`` takes: one of
    ``"beta1=0"``, ``"z1=0"``, ``"z=0"`` or None for the generic path."""
    if circular_distance(t.beta.radians, 0.0) <= SINGULAR_EPS:
        return "beta1=0"
    z, z1 = chain_parameters(t)
    if abs(z1) <= SINGULAR_EPS:
        return "z1=0"
    if abs(z) <= SINGULAR_EPS:
        return "z=0"
    return None


def p_rule_angles(t: EulerTriple) -> EulerTriple:
    """Angles of the X-Z-X chain proportional to the given Z-X-Z chain.

    Generic inputs go through the closed form built on

        z  = cos(b/2) cos((a+g)/2) + i sin(b/2) cos((a-g)/2)
        z1 = cos(b/2) sin((a+g)/2) - i sin(b/2) sin((a-g)/2)

    with alpha2 = arg z + arg z1, gamma2 = arg z - arg z1 and
    beta2 = 2 arg(|z/z1| + i).  The arg expressions are undefined when z
    or z1 vanishes or when the middle rotation is trivial; those cases
    return a canonical representative with the whole chain folded into
    as few rotations as possible (gamma2 = 0 whenever beta2 is 0 or pi).
    """
    alpha, _, gamma = t.radians
    case = degenerate_case(t)
    if case == "beta1=0":
        # the chain collapses to a single diagonal rotation
        return euler_xzx_extract(z_phase_matrix(alpha + gamma))
    z, z1 = chain_parameters(t)
    if case == "z1=0":
        return _triple(2 * cmath.phase(z), 0.0, 0.0)
    if case == "z=0":
        return _triple(2 * cmath.phase(z1), math.pi, 0.0)
    a2 = cmath.phase(z) + cmath.phase(z1)
    g2 = cmath.phase(z) - cmath.phase(z1)
    b2 = 2 * cmath.phase(complex(abs(z / z1), 1.0))
    return _triple(a2, b2, g2)


def euler_xzx_extract(u: np.ndarray) -> EulerTriple:
    """X-Z-X angles of an invertible 2x2 matrix, up to a scalar.

    Works from the matrix entries alone: normalise to determinant one,
    read off the I/sigma_x/sigma_y/sigma_z components, and convert.  This
    shares no code path with :func:`p_rule_angles`, which computes from
    input angles, so the two can check each other.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    if abs(det) <= 1e-12 * max(1.0, float(np.linalg.norm(u)) ** 2):
        raise ValueError("matrix is not invertible")
    un = u / cmath.sqrt(det)

    w = ((un[0, 0] + un[1, 1]) / 2).real
    x = (1j * (un[0, 1] + un[1, 0]) / 2).real
    y = ((un[1, 0] - un[0, 1]) / 2).real
    zc = (1j * (un[0, 0] - un[1, 1]) / 2).real

    p = complex(w, x)
    q = complex(zc, y)
    scale = abs(p) + abs(q)
    if abs(q) <= SINGULAR_EPS * scale:
        return _triple(2 * cmath.phase(p), 0.0, 0.0)
    if abs(p) <= SINGULAR_EPS * scale:
        return _triple(2 * cmath.phase(q), math.pi, 0.0)
    beta = 2 * math.atan2(abs(q), abs(p))
    alpha = cmath.phase(p) + cmath.phase(q)
    gamma = cmath.phase(p) - cmath.phase(q)
    return _triple(alpha, beta, gamma)
