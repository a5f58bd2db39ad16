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

import functools
import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import SystemModel

FEASIBILITY_TOL = 1e-9
VERIFY_MODES = ("theta_identity", "all_vertices")
# all_vertices assembles 2^(n^2) matrices in one stack: at n = 4 that is
MAX_VERTEX_DIM = 4      # 2^16 matrices of 8 x 8, about 32 MiB per temporary


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

    def theta_vertices(self) -> np.ndarray:
        """Read-only stack of the 2^(n^2) zero-one vertex matrices."""
        return _vertex_stack(self.n)

    @classmethod
    def from_model(cls, model: SystemModel, alpha: float) -> "LmiProblem":
        return cls(C=model.C, Kf1=model.Kf1, Kf2=model.Kf2,
                   Kg1=model.Kg1, Kg2=model.Kg2, alpha=alpha)


@functools.lru_cache(maxsize=MAX_VERTEX_DIM)
def _vertex_stack(n: int) -> np.ndarray:
    if n > MAX_VERTEX_DIM:
        raise ValueError(
            f"vertex enumeration needs 2^{n * n} matrices for n = {n}; "
            f"it is limited to n <= {MAX_VERTEX_DIM}")
    stack = np.reshape(list(itertools.product((0.0, 1.0), repeat=n * n)),
                       (-1, n, n))
    stack.flags.writeable = False
    return stack


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
    """Symmetric 2n x 2n verification matrix for each candidate and each theta.

    P may be one n x n matrix or a stack (..., n, n) of candidates, with
    R_lmi, l1 and l2 of shape (..., n, q) to match; theta is one n x n
    matrix or a stack of them.  The result has shape
    (candidates..., thetas..., 2n, 2n).
    """
    n = problem.n
    P = np.asarray(P, float)
    lead = P.shape[:-2]
    R = np.asarray(R_lmi, float).reshape(lead + (n, problem.q))
    l1 = np.asarray(l1, float).reshape(lead + (n, problem.q))
    l2 = np.asarray(l2, float).reshape(lead + (n, problem.q))
    theta = np.asarray(theta, float)
    if P.shape[-2:] != (n, n) or theta.shape[-2:] != (n, n):
        raise ValueError("dimension mismatch in verification matrix assembly")

    # candidate terms broadcast over the theta axes
    over_theta = (1,) * (theta.ndim - 2)
    Pb = P.reshape(lead + over_theta + (n, n))
    Rb = R.reshape(lead + over_theta + (n, problem.q))
    A_theta = problem.A @ theta
    C_theta = problem.C @ theta
    gap_f = problem.Kf2 - problem.Kf1
    gap_g = problem.Kg2 - problem.Kg1
    eye = np.eye(n)

    top_left = (np.swapaxes(A_theta, -1, -2) @ Pb + Pb @ A_theta
                - np.swapaxes(C_theta, -1, -2) @ np.swapaxes(Rb, -1, -2)
                - Rb @ C_theta
                + 2.0 * problem.alpha * Pb)
    lower_off = (np.sqrt(2.0) * P
                 + gap_f @ (eye - l1 @ problem.C)
                 + gap_g @ (eye - l2 @ problem.C)).reshape(Pb.shape)
    # only the top-left block needs symmetrizing: 0.5 * (x + x) == x exactly
    M = np.empty(top_left.shape[:-2] + (2 * n, 2 * n))
    M[..., :n, :n] = 0.5 * (top_left + np.swapaxes(top_left, -1, -2))
    M[..., :n, n:] = np.swapaxes(lower_off, -1, -2)
    M[..., n:, :n] = lower_off
    M[..., n:, n:] = -3.0 * eye
    return M


def _thetas(problem: LmiProblem, mode: str) -> np.ndarray:
    """The stack of theta matrices that a mode checks."""
    if mode not in VERIFY_MODES:
        raise ValueError(f"unknown verification mode {mode!r}")
    return (np.eye(problem.n)[None] if mode == "theta_identity"
            else problem.theta_vertices())


def _top_eigenvalues(problem: LmiProblem, P, R_lmi, l1, l2, mode: str):
    """(thetas, top eigenvalues, injection norms) of a stack of K candidates.

    P is (K, n, n) and R_lmi, l1, l2 are (K, n, q).  The eigenvalues are
    (K, len(thetas)) and the norms (K, 2): |l1 C| and |l2 C| per candidate.
    """
    thetas = _thetas(problem, mode)
    P = np.asarray(P, float)
    shape = P.shape[:-2] + (problem.n, problem.q)
    l1 = np.asarray(l1, float).reshape(shape)
    l2 = np.asarray(l2, float).reshape(shape)
    # the spectral norm is the largest singular value: one SVD for all norms
    norms = np.linalg.svd(np.stack([l1 @ problem.C, l2 @ problem.C], axis=-3),
                          compute_uv=False).max(axis=-1)
    eigs = np.linalg.eigvalsh(
        assemble_lmi_matrix(problem, P, R_lmi, l1, l2, thetas))[..., -1]
    return thetas, eigs, norms


def verify_gains(problem: LmiProblem, P, R_lmi, l1, l2,
                 mode: str = "theta_identity",
                 tol: float = FEASIBILITY_TOL) -> LmiCertificate:
    """Check negativity of the verification matrix and the injection-norm caps
    in one of the VERIFY_MODES."""
    thetas, eigs, norms = _top_eigenvalues(
        problem, np.asarray(P, float)[None], R_lmi, l1, l2, mode)
    eigs = eigs[0].tolist()
    norm1, norm2 = norms[0].tolist()
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

    def __post_init__(self):
        if not (self.budget >= 0 and self.tol >= 0
                and 0 < self.step < float("inf")):
            raise ValueError("search needs budget >= 0, tol >= 0 and a finite "
                             f"step > 0, got {self.budget}, {self.tol} and "
                             f"{self.step}")


PD_FLOOR = 1e-6     # smallest eigenvalue of a candidate P
# The search evaluates up to BATCH candidates in one kernel call, capped so
# that a batch holds at most BATCH_MATRICES verification matrices.
BATCH = 16
BATCH_MATRICES = 4096


def _project_pd(P: np.ndarray) -> np.ndarray:
    """Each matrix of a stack (..., n, n), symmetrized with its eigenvalues
    clipped at PD_FLOOR."""
    P = 0.5 * (P + np.swapaxes(P, -1, -2))
    ev, V = np.linalg.eigh(P)
    return (V * np.maximum(ev, PD_FLOOR)[..., None, :]) @ np.swapaxes(V, -1, -2)


def _penalties(problem: LmiProblem, P, R, l1, l2, mode: str) -> list[float]:
    """Search penalty of each candidate of a stack: the top eigenvalue over
    the mode's thetas plus a hinge on the injection norms."""
    _, eigs, norms = _top_eigenvalues(problem, P, R, l1, l2, mode)
    return [max(top) + 100.0 * (max(0.0, norm1 - 1.0) + max(0.0, norm2 - 1.0))
            for top, (norm1, norm2) in zip(eigs.tolist(), norms.tolist())]


def synthesize_gains(problem: LmiProblem, search: SearchParams = SearchParams(),
                     mode: str = "theta_identity"):
    """Seeded gradient-free penalty search for feasible gains.

    Decision variables are P (kept symmetric positive definite by eigenvalue
    clipping), R_lmi, l1 and l2; l3 is recovered as P^-1 R_lmi.  The search
    starts at P = I with zero R_lmi, l1 and l2.  Returns
    ``(P, l1, l2, l3, certificate)``; an exhausted budget yields an infeasible
    certificate rather than an exception.

    Each iteration perturbs the best point so far with fresh Gaussian noise
    and keeps the candidate if its penalty is lower, growing the step on
    success and shrinking it otherwise.  The candidates of the next BATCH
    iterations are evaluated together, on the guess that none of them is
    accepted; the first accepted one ends the batch, and the noise drawn for
    the candidates after it is used by the next batch.  The result is that of
    evaluating one candidate at a time.
    """
    n, q = problem.n, problem.q
    rng = np.random.default_rng(search.seed)
    batch = max(1, min(BATCH, BATCH_MATRICES // len(_thetas(problem, mode))))

    best = (np.eye(n), np.zeros((n, q)), np.zeros((n, q)), np.zeros((n, q)))
    [best_pen] = _penalties(problem, *(b[None] for b in best), mode)
    step = search.step
    # the P, R_lmi, l1 and l2 perturbations of the next iterations; the first
    # `drawn` rows hold noise that no candidate has used yet
    noise = [np.empty((batch, n, n))] + [np.empty((batch, n, q))
                                         for _ in range(3)]
    drawn = 0
    left = search.budget if best_pen > -search.tol else 0
    while left > 0:
        k = min(batch, left)
        for row in range(drawn, k):
            for d in noise:
                rng.standard_normal(out=d[row])
        steps = [step]      # the steps if every candidate is rejected
        for _ in range(k):
            steps.append(max(steps[-1] * 0.97, 1e-4))
        s = np.array(steps[:k])[:, None, None]
        dP, dR, d1, d2 = (d[:k] for d in noise)
        cands = (_project_pd(best[0] + s * dP), best[1] + s * dR,
                 best[2] + 0.1 * s * d1, best[3] + 0.1 * s * d2)
        pens = _penalties(problem, *cands, mode)
        j = next((j for j, pen in enumerate(pens) if pen < best_pen), None)
        if j is None:
            used, step = k, steps[k]
        else:
            used, step = j + 1, min(steps[j] * 1.3, 10.0)
            best, best_pen = tuple(c[j] for c in cands), pens[j]
        for d in noise:
            d[:k - used] = d[used:k]
        drawn = k - used
        left = 0 if best_pen < -search.tol else left - used

    P, R, l1, l2 = best
    l3 = np.linalg.solve(P, R)
    cert = verify_gains(problem, P, R, l1, l2, mode=mode, tol=search.tol)
    return P, l1, l2, l3, cert
