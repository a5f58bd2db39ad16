"""Gain verification and best-effort synthesis for the observer design.

The design condition is negativity of a 2n x 2n block matrix assembled from
the plant's Jacobian-bound data, a candidate Lyapunov matrix P, the injection
gains l1, l2 and the substituted correction variable R_lmi = P l3, for every
matrix parameter theta in the unit hypercube of n x n matrices.  Negativity is
checked either at theta = identity (the standard simulation choice) or at all
2^(n^2) vertex matrices, which is exact for the whole cube because the matrix
is affine in theta and its top eigenvalue is convex.

A full semidefinite-programming solver is intentionally out of scope: the
synthesizer is a seeded, gradient-free penalty descent whose output is always
gated by `verify_gains`.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import SystemModel

FEASIBILITY_TOL = 1e-9
VERIFY_MODES = ("theta_identity", "all_vertices")
MAX_VERTEX_DIM = 4          # all_vertices enumerates 2^(n^2) matrices


@dataclass(frozen=True)
class LmiProblem:
    """Bound data and decay rate defining the gain-verification matrix."""

    C: np.ndarray
    Kf1: np.ndarray
    Kf2: np.ndarray
    Kg1: np.ndarray
    Kg2: np.ndarray
    alpha: float
    A: np.ndarray = field(init=False)

    def __post_init__(self):
        for attr in ("C", "Kf1", "Kf2", "Kg1", "Kg2"):
            object.__setattr__(self, attr, np.asarray(getattr(self, attr), float))
        if self.alpha < 0:
            raise ValueError("decay rate must be nonnegative")
        n = self.Kf1.shape[0]
        for attr in ("Kf1", "Kf2", "Kg1", "Kg2"):
            if getattr(self, attr).shape != (n, n):
                raise ValueError(f"{attr} must be square of size {n}")
        if self.C.ndim != 2 or self.C.shape[1] != n:
            raise ValueError("C must have shape (q, n)")
        object.__setattr__(self, "A", self.Kf1 + self.Kg1)

    @property
    def n(self) -> int:
        return self.Kf1.shape[0]

    @property
    def q(self) -> int:
        return self.C.shape[0]

    def theta_vertices(self) -> list[np.ndarray]:
        """All 2^(n^2) zero-one matrices (vertices of the parameter cube)."""
        n = self.n
        if n > MAX_VERTEX_DIM:
            raise ValueError(
                f"vertex enumeration needs 2^{n * n} matrices for n = {n}; "
                f"it is limited to n <= {MAX_VERTEX_DIM}")
        verts = []
        for bits in itertools.product((0.0, 1.0), repeat=n * n):
            verts.append(np.array(bits, float).reshape(n, n))
        return verts

    @classmethod
    def from_model(cls, model: SystemModel, alpha: float) -> "LmiProblem":
        return cls(C=model.C, Kf1=model.Kf1, Kf2=model.Kf2,
                   Kg1=model.Kg1, Kg2=model.Kg2, alpha=alpha)


@dataclass
class LmiCertificate:
    """Outcome of a verification pass; infeasibility is a valid outcome."""

    feasible: bool
    max_eigenvalue: float
    worst_theta: np.ndarray
    norm_l1C: float
    norm_l2C: float
    mode: str
    tolerance: float
    vertex_eigenvalues: list[float] | None = None

    def to_json_dict(self) -> dict:
        return {**asdict(self),
                "worst_theta": np.asarray(self.worst_theta).tolist()}


def assemble_lmi_matrix(problem: LmiProblem, P, R_lmi, l1, l2, theta) -> np.ndarray:
    """Symmetric 2n x 2n verification matrix for one theta."""
    n = problem.n
    P = np.asarray(P, float)
    R = np.asarray(R_lmi, float).reshape(n, problem.q)
    l1 = np.asarray(l1, float).reshape(n, problem.q)
    l2 = np.asarray(l2, float).reshape(n, problem.q)
    theta = np.asarray(theta, float)
    if P.shape != (n, n) or theta.shape != (n, n):
        raise ValueError("dimension mismatch in verification matrix assembly")

    A_theta = problem.A @ theta
    C_theta = problem.C @ theta
    gap_f = problem.Kf2 - problem.Kf1
    gap_g = problem.Kg2 - problem.Kg1
    eye = np.eye(n)

    top_left = (A_theta.T @ P + P @ A_theta
                - C_theta.T @ R.T - R @ C_theta
                + 2.0 * problem.alpha * P)
    lower_off = (np.sqrt(2.0) * P
                 + gap_f @ (eye - l1 @ problem.C)
                 + gap_g @ (eye - l2 @ problem.C))
    M = np.block([[top_left, lower_off.T],
                  [lower_off, -3.0 * eye]])
    return 0.5 * (M + M.T)


def _top_eigenvalues(problem: LmiProblem, P, R_lmi, l1, l2, mode: str):
    """(thetas, top eigenvalue per theta, |l1 C|, |l2 C|) for one mode.

    mode "theta_identity" checks the single matrix at theta = I; mode
    "all_vertices" checks every vertex of the parameter cube, which covers the
    whole cube by affinity and convexity.
    """
    if mode not in VERIFY_MODES:
        raise ValueError(f"unknown verification mode {mode!r}")
    n = problem.n
    l1 = np.asarray(l1, float).reshape(n, problem.q)
    l2 = np.asarray(l2, float).reshape(n, problem.q)
    norm1 = float(np.linalg.norm(l1 @ problem.C, 2))
    norm2 = float(np.linalg.norm(l2 @ problem.C, 2))
    thetas = ([np.eye(n)] if mode == "theta_identity"
              else problem.theta_vertices())
    eigs = [float(np.linalg.eigvalsh(
        assemble_lmi_matrix(problem, P, R_lmi, l1, l2, th))[-1])
        for th in thetas]
    return thetas, eigs, norm1, norm2


def verify_gains(problem: LmiProblem, P, R_lmi, l1, l2,
                 mode: str = "theta_identity",
                 tol: float = FEASIBILITY_TOL) -> LmiCertificate:
    """Check negativity of the verification matrix and the injection-norm caps
    in one of the VERIFY_MODES."""
    thetas, eigs, norm1, norm2 = _top_eigenvalues(problem, P, R_lmi, l1, l2,
                                                  mode)
    worst = int(np.argmax(eigs))
    max_eig = eigs[worst]
    feasible = (max_eig < -tol) and norm1 <= 1.0 and norm2 <= 1.0
    return LmiCertificate(
        feasible=feasible, max_eigenvalue=max_eig, worst_theta=thetas[worst],
        norm_l1C=norm1, norm_l2C=norm2, mode=mode, tolerance=tol,
        vertex_eigenvalues=eigs if mode == "all_vertices" else None)


@dataclass(frozen=True)
class SearchParams:
    budget: int = 2000
    step: float = 0.5
    tol: float = FEASIBILITY_TOL
    seed: int = 0


PD_FLOOR = 1e-6     # smallest eigenvalue of a candidate P


def _project_pd(P: np.ndarray) -> np.ndarray:
    P = 0.5 * (P + P.T)
    ev, V = np.linalg.eigh(P)
    return (V * np.maximum(ev, PD_FLOOR)) @ V.T


def _penalty(problem: LmiProblem, P, R, l1, l2, mode: str) -> float:
    _, eigs, norm1, norm2 = _top_eigenvalues(problem, P, R, l1, l2, mode)
    hinge = 100.0 * (max(0.0, norm1 - 1.0) + max(0.0, norm2 - 1.0))
    return max(eigs) + hinge


def synthesize_gains(problem: LmiProblem, search: SearchParams = SearchParams(),
                     mode: str = "theta_identity"):
    """Seeded gradient-free penalty search for feasible gains.

    Decision variables are P (kept symmetric positive definite by eigenvalue
    clipping), R_lmi, l1 and l2; l3 is recovered as P^-1 R_lmi.  The search
    starts at P = I with zero R_lmi, l1 and l2.  Returns
    ``(P, l1, l2, l3, certificate)``; an exhausted budget yields an infeasible
    certificate rather than an exception.
    """
    n, q = problem.n, problem.q
    rng = np.random.default_rng(search.seed)

    best = (np.eye(n), np.zeros((n, q)), np.zeros((n, q)), np.zeros((n, q)))
    best_pen = _penalty(problem, *best, mode)
    step = search.step
    if best_pen > -search.tol:
        for _ in range(search.budget):
            P_c = _project_pd(best[0] + step * rng.standard_normal((n, n)))
            R_c = best[1] + step * rng.standard_normal((n, q))
            l1_c = best[2] + 0.1 * step * rng.standard_normal((n, q))
            l2_c = best[3] + 0.1 * step * rng.standard_normal((n, q))
            pen = _penalty(problem, P_c, R_c, l1_c, l2_c, mode)
            if pen < best_pen:
                best = (P_c, R_c, l1_c, l2_c)
                best_pen = pen
                step = min(step * 1.3, 10.0)
            else:
                step = max(step * 0.97, 1e-4)
            if best_pen < -search.tol:
                break

    P, R, l1, l2 = best
    l3 = np.linalg.solve(P, R)
    cert = verify_gains(problem, P, R, l1, l2, mode=mode, tol=search.tol)
    return P, l1, l2, l3, cert
