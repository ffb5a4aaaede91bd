"""Free-boundary minimization of conformal length between two hypersurfaces.

The discrete objective is the segment-length energy E = (M/2) sum l_i^2 with
l_i the u^-2 g midpoint lengths of a polyline; by Cauchy-Schwarz E >= L^2/2
with equality exactly at uniform parameterization, so pushing E down both
shortens the curve and equalizes the parameterization. Interior vertices move
freely; endpoint vertices slide along their surfaces (steps tangent to the
surface plus a Newton retraction after every trial step).

The optimizer is damped Newton with Armijo backtracking, run coarse-to-fine
from 8 segments: minimize, resample in the tilde arclength, double, repeat. A
level of M segments stops at gtol * n_segments / M, as accurate as the next
level can absorb (Deuflhard, Newton Methods for Nonlinear Problems, 2004,
ch. 7), so the slow slide along a degenerate valley of minimizers happens on
the cheapest polyline. Each segment term couples only its two vertices, so the
Hessian is block-tridiagonal with dim x dim blocks, assembled analytically
from the factor's value, gradient and Hessian at the segment midpoints; a
sliding endpoint's blocks are taken in its tangent space (Nocedal & Wright,
Numerical Optimization, ch. 3-4 and 10). The Newton system is solved by block
cyclic reduction, which is block Cholesky in odd-even order: the damped
Hessian is positive definite exactly when every pivot block of the reduction
is, so a failed pivot factorization is the test for definiteness.
Levenberg-Marquardt damping is raised until the factorization exists and
lowered after full steps, which also handles the degenerate minimizers (a
one-parameter family of perpendicular geodesics) that leave the Hessian with
a near-null direction. Steps that would leave the model ball, drive the
conformal factor below a floor or carry an endpoint where its surface
projection fails are rejected by an infinite energy, which acts as a natural
barrier (the factor vanishing is exactly the degeneration the continuum
problem forbids).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

import numpy as np

from .curves import DiscreteCurve
from .fields import ScalarField
from .hypersurface import Hypersurface, ProjectionError
from .spaceform import SpaceForm, conformal_factor_field, mobius_add, mobius_center

U_FLOOR = 1e-9
# Levenberg-Marquardt damping, relative to the Hessian's largest diagonal entry
LAM_START = 1e-3
LAM_MIN = 1e-12
COARSE_SEGMENTS = 8  # segments of the first level of the coarse-to-fine ladder
MAX_ITER_PER_LEVEL = 200  # Newton iterations before a level stops on "max-iter"


class GeodesicProblem:
    """Conformal factor and endpoints; with two boundary surfaces the
    endpoints seed the sliding ends, without them they stay fixed."""

    def __init__(self, space: SpaceForm, u: ScalarField, endpoints: np.ndarray,
                 piece_start: Optional[Hypersurface] = None,
                 piece_end: Optional[Hypersurface] = None):
        self.space = space
        self.u = u
        self.endpoints = np.asarray(endpoints, dtype=float)  # seeds when pieces exist, else fixed
        self.piece_start = piece_start
        self.piece_end = piece_end

    def initial_curve(self, n_segments: int) -> DiscreteCurve:
        """Ambient geodesic between the endpoints, uniformly sampled."""
        p, q = self.endpoints
        ts = np.linspace(0.0, 1.0, n_segments + 1)
        if self.space.hyperbolic:
            q0 = mobius_center(self.space, p, q)
            rr = np.linalg.norm(q0)
            direction = q0 / rr
            radii = np.tanh(ts * np.arctanh(rr))
            pts = mobius_add(p, radii[:, None] * direction)
        else:
            pts = p[None, :] + ts[:, None] * (q - p)[None, :]
        pts[0], pts[-1] = p, q
        return DiscreteCurve(self.space, pts)


class MinimizeResult(SimpleNamespace):
    """The minimizer curve, its tilde_length and g_length, the total
    iterations, converged, the last grad_norm, and per ladder level its
    segment count in level_sizes, level_iterations and level_stops."""


def _energy(problem, W, points) -> float:
    """(M/2) sum of squared tilde segment lengths; inf outside the barrier."""
    if problem.space.hyperbolic and np.any(np.sum(points * points, axis=-1) >= 1.0):
        return np.inf
    delta = points[1:] - points[:-1]
    chords = np.linalg.norm(delta, axis=1)
    mids = 0.5 * (points[1:] + points[:-1])
    Wm = np.asarray(W.value(mids), dtype=float)
    if np.any(Wm <= U_FLOOR):
        return np.inf
    l = chords / Wm
    return 0.5 * l.size * float(np.sum(l * l))


def _energy_gradient(points, Wm, dW):
    """Analytic gradient of the segment-length energy at the vertices, from
    the factor's value ``Wm`` and gradient ``dW`` at the segment midpoints."""
    M = points.shape[0] - 1
    delta = points[1:] - points[:-1]
    chords = np.maximum(np.linalg.norm(delta, axis=1), 1e-300)
    l = chords / Wm
    unit = delta / chords[:, None]
    # d l_i / d x_i = -unit/W - chord grad W / (2 W^2); mirrored at x_{i+1}
    common = (chords / (2.0 * Wm * Wm))[:, None] * dW
    dl_left = -unit / Wm[:, None] - common
    dl_right = unit / Wm[:, None] - common
    grad = np.zeros_like(points)
    grad[:M] += M * l[:, None] * dl_left
    grad[1:] += M * l[:, None] * dl_right
    return grad


def _energy_hessian_blocks(points, Wm, dW, HW):
    """Diagonal and super-diagonal dim x dim blocks of the energy Hessian,
    from the factor's value, gradient and Hessian at the segment midpoints.

    Segment i contributes (M/2) f(d, m) with f = |d|^2 V(m), V = W^-2, chord
    d = x_{i+1} - x_i and midpoint m; written in d rather than |d|, the blocks
    stay smooth at zero-length segments.
    """
    M, dim = points.shape[0] - 1, points.shape[1]
    d = points[1:] - points[:-1]
    Wm = Wm[:, None, None]
    dW = dW[:, :, None]
    dV = -2.0 * dW / Wm**3
    HV = 6.0 * dW * np.swapaxes(dW, 1, 2) / Wm**4 - 2.0 * HW / Wm**3
    f_dd = 2.0 * np.eye(dim) / Wm**2
    f_dm = 2.0 * d[:, :, None] * np.swapaxes(dV, 1, 2)
    f_md = np.swapaxes(f_dm, 1, 2)
    f_mm = 0.25 * np.sum(d * d, axis=1)[:, None, None] * HV  # the 1/4 from dm/dx = 1/2
    # chain rule through d (-1 at x_i, +1 at x_{i+1}) and m (1/2 at both)
    diag = np.zeros((M + 1, dim, dim))
    diag[:-1] += f_dd - 0.5 * (f_dm + f_md) + f_mm
    diag[1:] += f_dd + 0.5 * (f_dm + f_md) + f_mm
    upper = -f_dd - 0.5 * f_dm + 0.5 * f_md + f_mm
    return 0.5 * M * diag, 0.5 * M * upper


def _newton_system(problem, W, points):
    """Gradient and Hessian blocks in endpoint tangent coordinates.

    An endpoint slides along its surface {F = 0} when a piece is present
    (explicit endpoints then only seed the initial curve). With nu the unit
    normal and P = I - nu nu^T, it gets the gradient P g, the diagonal block
    P (H00 - mu hess F) P + nu nu^T with multiplier mu = g.grad F / |grad F|^2,
    and the coupling P H01, so the Newton step it receives is tangent to the
    surface. Without a piece the endpoint is fixed: zero gradient, identity
    block, no coupling.
    """
    mids = 0.5 * (points[1:] + points[:-1])
    Wm, dW = np.asarray(W.value(mids), dtype=float), np.asarray(W.gradient(mids), dtype=float)
    grad = _energy_gradient(points, Wm, dW)
    diag, upper = _energy_hessian_blocks(points, Wm, dW, np.asarray(W.hessian(mids), dtype=float))
    eye = np.eye(points.shape[1])
    for idx, piece in ((0, problem.piece_start), (-1, problem.piece_end)):
        if piece is None:
            grad[idx] = 0.0
            diag[idx] = eye
            upper[idx] = 0.0
            continue
        x = points[idx]
        gF = np.asarray(piece.gradF(x), dtype=float)
        nu = gF / np.linalg.norm(gF)
        P = eye - np.outer(nu, nu)
        mu = float(grad[idx] @ gF) / float(gF @ gF)
        hessF = np.asarray(piece.hessF(x), dtype=float)
        diag[idx] = P @ (diag[idx] - mu * hessF) @ P + np.outer(nu, nu)
        upper[idx] = P @ upper[idx] if idx == 0 else upper[idx] @ P
        grad[idx] = P @ grad[idx]
    return grad, diag, upper


def _cyclic_reduction_solve(diag, upper, rhs):
    """Solve the symmetric block-tridiagonal system with diagonal blocks
    ``diag`` (n, d, d), super-diagonal blocks ``upper`` (n-1, d, d) and
    right-hand side ``rhs`` (n, d, 1) by block cyclic reduction (Buzbee,
    Golub & Nielson, SIAM J. Numer. Anal. 7, 1970).

    Each level eliminates the odd blocks, which are mutually uncoupled, and
    leaves the even blocks coupled by their Schur complement, again
    block-tridiagonal; one back-substitution sweep recovers the odd blocks.
    This is block Cholesky in odd-even order, so the matrix is positive
    definite exactly when every pivot block is, and ``np.linalg.cholesky``
    raises ``LinAlgError`` otherwise. On positive definite matrices the
    reduction is stable (Heller, SIAM J. Numer. Anal. 13, 1976).
    """
    levels = []
    while len(diag) > 1:
        # pivot j = 2k + 1 couples to j - 1 by upper[2k] and to j + 1 by upper[2k + 1]
        L_inv = np.linalg.inv(np.linalg.cholesky(diag[1::2]))
        left = upper[0::2] @ L_inv.transpose(0, 2, 1)
        right = (L_inv[: len(upper) // 2] @ upper[1::2]).transpose(0, 2, 1)
        z = L_inv @ rhs[1::2]
        p, q = len(left), len(right)
        diag, rhs = diag[0::2].copy(), rhs[0::2].copy()
        diag[:p] -= left @ left.transpose(0, 2, 1)
        diag[1 : q + 1] -= right @ right.transpose(0, 2, 1)
        rhs[:p] -= left @ z
        rhs[1 : q + 1] -= right @ z[:q]
        upper = -left[:q] @ right.transpose(0, 2, 1)
        levels.append((L_inv, left, right, z))
    L_inv = np.linalg.inv(np.linalg.cholesky(diag))
    x = L_inv.transpose(0, 2, 1) @ (L_inv @ rhs)
    for L_inv, left, right, z in reversed(levels):
        p, q = len(left), len(right)
        # the order of the two subtractions fixes the last bits of the step
        r = z.copy()
        r[:q] -= right.transpose(0, 2, 1) @ x[1 : q + 1]
        r -= left.transpose(0, 2, 1) @ x[:p]
        full = np.empty((len(x) + p,) + x.shape[1:])
        full[0::2] = x
        full[1::2] = L_inv.transpose(0, 2, 1) @ r
        x = full
    return x


def _damped_newton_step(diag, upper, grad, lam):
    """Solve (H + lam h I) s = -grad with h the largest diagonal entry of H,
    raising lam tenfold until the Cholesky factorization exists."""
    h = float(np.max(np.abs(np.diagonal(diag, axis1=1, axis2=2))))
    eye = np.eye(diag.shape[1])
    while True:
        try:
            step = _cyclic_reduction_solve(diag + (lam * h) * eye, upper, -grad[:, :, None])
            return step[:, :, 0], lam
        except np.linalg.LinAlgError:
            lam *= 10.0


def _retract(problem, points):
    """Pull endpoint vertices back onto their surfaces."""
    out = points
    for idx, piece in ((0, problem.piece_start), (-1, problem.piece_end)):
        if piece is not None:
            out[idx] = piece.project(out[idx])
    return out


def _trial_energy(problem, W, points):
    """Retract a trial step and take its energy; a retraction that fails or
    leaves the reals gives an infinite energy, so Armijo rejects the trial."""
    with np.errstate(all="ignore"):
        try:
            points = _retract(problem, points)
        except ProjectionError:
            return points, np.inf
    if not np.all(np.isfinite(points)):
        return points, np.inf
    return points, _energy(problem, W, points)


def minimize_free_boundary(
    problem: GeodesicProblem,
    n_segments: int,
    gtol: Optional[float] = None,
) -> MinimizeResult:
    """Coarse-to-fine damped Newton descent on the length energy.

    Each level stops on ``"gtol"`` (gradient at most ``gtol * n_segments / M``
    on a level of M segments), ``"line-search"`` (Armijo backtracking found no
    decrease) or ``"max-iter"`` (MAX_ITER_PER_LEVEL iterations); the result
    converged only when every level stopped on ``"gtol"``.
    """
    W = conformal_factor_field(problem.space, problem.u)
    levels = [min(COARSE_SEGMENTS, n_segments)]
    while levels[-1] < n_segments:
        levels.append(min(2 * levels[-1], n_segments))

    curve = problem.initial_curve(levels[0])
    L0 = curve.tilde_length(problem.u)
    if gtol is None:
        # discretization error is O(n_segments^-2), so driving the gradient
        # much below 1e-6 buys no accuracy in the reported lengths
        gtol = 1e-6 * max(1.0, L0)

    lam = LAM_START
    level_iterations = []
    level_stops = []
    for M in levels:
        if curve.n_segments != M:
            curve = curve.resample(M, u=problem.u)
            curve.points[:] = _retract(problem, curve.points)
        x = curve.points.copy()
        E = _energy(problem, W, x)
        iters = 0
        while True:
            g, diag, upper = _newton_system(problem, W, x)
            grad_inf = float(np.max(np.abs(g)))
            if grad_inf <= gtol * (n_segments / M):
                stop = "gtol"
                break
            if iters == MAX_ITER_PER_LEVEL:
                stop = "max-iter"
                break
            s, lam = _damped_newton_step(diag, upper, g, lam)
            slope = float(np.sum(g * s))
            # Armijo backtracking along the retracted Newton direction
            alpha = 1.0
            for _ in range(40):
                trial, E_trial = _trial_energy(problem, W, x + alpha * s)
                if np.isfinite(E_trial) and E_trial <= E + 1e-4 * alpha * slope:
                    break
                alpha *= 0.5
            else:
                stop = "line-search"
                break
            if alpha == 1.0:
                lam = max(0.1 * lam, LAM_MIN)
            x, E = trial, E_trial
            iters += 1
        level_iterations.append(iters)
        level_stops.append(stop)
        curve = DiscreteCurve(problem.space, x)

    return MinimizeResult(
        curve=curve,
        tilde_length=curve.tilde_length(problem.u),
        g_length=curve.g_length(),
        iterations=sum(level_iterations),
        converged=all(stop == "gtol" for stop in level_stops),
        grad_norm=grad_inf,
        level_sizes=levels,
        level_iterations=level_iterations,
        level_stops=level_stops,
    )


# ---------------------------------------------------------------------------
# derived checks on a minimizer
# ---------------------------------------------------------------------------


def endpoint_orthogonality(problem: GeodesicProblem, curve: DiscreteCurve):
    """|<T, nu>_g| at both endpoints; 1 means the free-boundary right angle
    (conformal metrics share orthogonality). A problem with a fixed end has
    no normal there and raises ValueError."""
    ends = ((0, problem.piece_start), (-1, problem.piece_end))
    if any(piece is None for _, piece in ends):
        raise ValueError("endpoint_orthogonality needs a boundary piece at both ends")
    T, _ = curve.vertex_tangents()
    return [abs(float(problem.space.inner(curve.points[idx], T[idx],
                                          piece.normal(curve.points[idx]))))
            for idx, piece in ends]
