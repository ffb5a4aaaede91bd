"""Free-boundary minimization of conformal length between two hypersurfaces.

The discrete objective is the segment-length energy E = (M/2) sum l_i^2 with
l_i the u^-2 g midpoint lengths of a polyline; by Cauchy-Schwarz E >= L^2/2
with equality exactly at uniform parameterization, so pushing E down both
shortens the curve and equalizes the parameterization. Interior vertices move
freely; endpoint vertices slide along their surfaces (steps tangent to the
surface plus a Newton retraction after every trial step).

The optimizer is damped Newton with Armijo backtracking, run coarse-to-fine:
minimize on a coarse polyline, resample in the tilde arclength, double the
resolution, repeat. Each segment term couples only its two vertices, so the
Hessian is block-tridiagonal with dim x dim blocks, assembled analytically
from the factor's value, gradient and Hessian at the segment midpoints and
solved in banded Cholesky form; a sliding endpoint's blocks are taken in its
tangent space (Nocedal & Wright, Numerical Optimization, ch. 3-4 and 10).
Levenberg-Marquardt damping is raised until the factorization exists and
lowered after full steps, which also handles the degenerate minimizers (a
one-parameter family of perpendicular geodesics) that leave the Hessian with
a near-null direction. Steps that would leave the model ball or drive the
conformal factor below a floor are rejected by an infinite energy, which acts
as a natural barrier (the factor vanishing is exactly the degeneration the
continuum problem forbids).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.linalg import solveh_banded

from .curves import DiscreteCurve
from .fields import ScalarField
from .hypersurface import Hypersurface
from .spaceform import SpaceForm, conformal_factor_field, mobius_add, mobius_center

U_FLOOR = 1e-9
# Levenberg-Marquardt damping, relative to the Hessian's largest diagonal entry
LAM_START = 1e-3
LAM_MIN = 1e-12


@dataclass
class GeodesicProblem:
    """Conformal factor and endpoints; with two boundary surfaces the
    endpoints seed the sliding ends, without them they stay fixed."""

    space: SpaceForm
    u: ScalarField
    piece_start: Optional[Hypersurface] = None
    piece_end: Optional[Hypersurface] = None
    endpoints: Optional[np.ndarray] = None  # seeds when pieces exist, else fixed

    def __post_init__(self):
        if self.endpoints is None:
            raise ValueError("need endpoints: fixed, or seeds for the two pieces")
        self.endpoints = np.asarray(self.endpoints, dtype=float)

    def initial_curve(self, n_segments: int) -> DiscreteCurve:
        """Ambient geodesic between the endpoints, uniformly sampled."""
        p, q = self.endpoints
        ts = np.linspace(0.0, 1.0, n_segments + 1)
        if self.space.hyperbolic:
            q0 = mobius_center(self.space, p, q)
            rr = np.linalg.norm(q0)
            direction = q0 / rr
            radii = np.tanh(ts * np.arctanh(rr))
            pts = np.array([mobius_add(p, r * direction) for r in radii])
        else:
            pts = p[None, :] + ts[:, None] * (q - p)[None, :]
        pts[0], pts[-1] = p, q
        return DiscreteCurve(self.space, pts)


@dataclass
class MinimizeResult:
    curve: DiscreteCurve
    tilde_length: float
    g_length: float
    iterations: int
    converged: bool
    grad_norm: float
    energy: float
    level_sizes: List[int] = field(default_factory=list)
    level_iterations: List[int] = field(default_factory=list)
    level_stops: List[str] = field(default_factory=list)


def _coordinate_factor(problem: GeodesicProblem):
    return conformal_factor_field(problem.space, problem.u)


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


def _energy_gradient(problem, W, points):
    """Analytic gradient of the segment-length energy at the vertices."""
    M = points.shape[0] - 1
    delta = points[1:] - points[:-1]
    chords = np.maximum(np.linalg.norm(delta, axis=1), 1e-300)
    mids = 0.5 * (points[1:] + points[:-1])
    Wm = np.asarray(W.value(mids), dtype=float)
    dW = np.asarray(W.gradient(mids), dtype=float)
    l = chords / Wm
    unit = delta / chords[:, None]
    # d l_i / d x_i = -unit/W - chord grad W / (2 W^2); mirrored at x_{i+1}
    common = (chords / (2.0 * Wm * Wm))[:, None] * dW
    dl_left = -unit / Wm[:, None] - common
    dl_right = unit / Wm[:, None] - common
    grad = np.zeros_like(points)
    np.add.at(grad, np.arange(M), M * l[:, None] * dl_left)
    np.add.at(grad, np.arange(1, M + 1), M * l[:, None] * dl_right)
    return grad


def _energy_hessian_blocks(problem, W, points):
    """Diagonal and super-diagonal dim x dim blocks of the energy Hessian.

    Segment i contributes (M/2) f(d, m) with f = |d|^2 V(m), V = W^-2, chord
    d = x_{i+1} - x_i and midpoint m; written in d rather than |d|, the blocks
    stay smooth at zero-length segments.
    """
    M, dim = points.shape[0] - 1, points.shape[1]
    d = points[1:] - points[:-1]
    mids = 0.5 * (points[1:] + points[:-1])
    Wm = np.asarray(W.value(mids), dtype=float)[:, None, None]
    dW = np.asarray(W.gradient(mids), dtype=float)[:, :, None]
    HW = np.asarray(W.hessian(mids), dtype=float)
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
    grad = _energy_gradient(problem, W, points)
    diag, upper = _energy_hessian_blocks(problem, W, points)
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


def _upper_band(diag, upper):
    """Upper banded storage (``solveh_banded``) of the symmetric
    block-tridiagonal matrix with the given diagonal and super-diagonal."""
    n_vert, dim = diag.shape[0], diag.shape[1]
    u = 2 * dim - 1
    ab = np.zeros((u + 1, n_vert * dim))
    for k in range(dim):
        for l in range(dim):
            if k <= l:
                ab[u + k - l, l::dim] = diag[:, k, l]
            ab[u + k - l - dim, dim + l::dim] = upper[:, k, l]
    return ab


def _damped_newton_step(ab, grad, lam):
    """Solve (H + lam h I) s = -grad with h the largest diagonal entry of H,
    raising lam tenfold until the Cholesky factorization exists."""
    h = float(np.max(np.abs(ab[-1])))
    while True:
        shifted = ab.copy()
        shifted[-1] += lam * h
        try:
            return solveh_banded(shifted, -grad.ravel()).reshape(grad.shape), lam
        except np.linalg.LinAlgError:
            lam *= 10.0


def _retract(problem, points):
    """Pull endpoint vertices back onto their surfaces."""
    out = points
    for idx, piece in ((0, problem.piece_start), (-1, problem.piece_end)):
        if piece is not None:
            out[idx] = piece.project(out[idx])
    return out


def minimize_free_boundary(
    problem: GeodesicProblem,
    n_segments: int = 256,
    coarse: int = 32,
    gtol: Optional[float] = None,
    max_iter_per_level: int = 200,
) -> MinimizeResult:
    """Coarse-to-fine damped Newton descent on the length energy.

    Each level stops on ``"gtol"`` (converged), ``"line-search"`` (Armijo
    backtracking found no decrease) or ``"max-iter"``; the result converged
    only when every level stopped on ``"gtol"``.
    """
    W = _coordinate_factor(problem)
    levels = [min(coarse, n_segments)]
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
            if grad_inf <= gtol:
                stop = "gtol"
                break
            if iters == max_iter_per_level:
                stop = "max-iter"
                break
            s, lam = _damped_newton_step(_upper_band(diag, upper), g, lam)
            slope = float(np.sum(g * s))
            # Armijo backtracking along the retracted Newton direction
            alpha = 1.0
            for _ in range(40):
                trial = _retract(problem, x + alpha * s)
                E_trial = _energy(problem, W, trial)
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
        energy=float(E),
        level_sizes=levels,
        level_iterations=level_iterations,
        level_stops=level_stops,
    )


# ---------------------------------------------------------------------------
# derived checks on a minimizer
# ---------------------------------------------------------------------------


@dataclass
class LengthComparison:
    g_length: float
    tilde_length: float
    tilde_length_seed: float
    ordered: bool


def length_comparison(problem: GeodesicProblem, result: MinimizeResult) -> LengthComparison:
    """L <= L-tilde <= L-tilde(seed path): the first needs u <= 1, the second
    is minimality against the ambient-geodesic competitor."""
    seed = problem.initial_curve(max(result.curve.n_segments, 256))
    Lt_seed = seed.tilde_length(problem.u)
    L = result.g_length
    Lt = result.tilde_length
    tol = 1e-7 * max(1.0, Lt)
    ordered = (L <= Lt + tol) and (Lt <= Lt_seed + tol)
    return LengthComparison(L, Lt, Lt_seed, ordered)


@dataclass
class ShortnessReport:
    sup_deviation: float
    bound: float
    ok: bool


def shortness_check(problem: GeodesicProblem, curve: DiscreteCurve, mu0: float) -> ShortnessReport:
    """sup |u/u(p) - 1| along the curve against the 5/2 mu0 budget."""
    uv = np.asarray(problem.u.value(curve.points), dtype=float)
    up = float(uv[0])
    dev = float(np.max(np.abs(uv / up - 1.0)))
    bound = 2.5 * mu0
    return ShortnessReport(dev, bound, dev <= bound)


def endpoint_orthogonality(problem: GeodesicProblem, curve: DiscreteCurve):
    """|<T, nu>_g| at both endpoints; 1 means the free-boundary right angle
    (conformal metrics share orthogonality)."""
    T, _ = curve.vertex_tangents()
    out = []
    for idx, piece in ((0, problem.piece_start), (-1, problem.piece_end)):
        if piece is None:
            out.append(np.nan)
            continue
        nu = piece.normal(curve.points[idx])
        out.append(abs(float(problem.space.inner(curve.points[idx], T[idx], nu))))
    return out
