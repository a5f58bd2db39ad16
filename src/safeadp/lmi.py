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
MAX_VERTEX_DIM = 3      # all_vertices checks 2^(n^2) matrices, 512 at n = 3

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
    gap_f: np.ndarray = field(init=False)
    gap_g: np.ndarray = field(init=False)

    def __post_init__(self):
        for attr in ("C", "Kf1", "Kf2", "Kg1", "Kg2"):
            object.__setattr__(self, attr, np.asarray(getattr(self, attr), float))
        if not 0 <= self.alpha < np.inf:
            raise ValueError("decay rate must be nonnegative and finite")
        n = self.Kf1.shape[0]
        for attr in ("Kf1", "Kf2", "Kg1", "Kg2"):
            if getattr(self, attr).shape != (n, n):
                raise ValueError(f"{attr} must be square of size {n}")
        if self.C.ndim != 2 or self.C.shape[1] != n:
            raise ValueError("C must have shape (q, n)")
        object.__setattr__(self, "A", self.Kf1 + self.Kg1)
        object.__setattr__(self, "gap_f", self.Kf2 - self.Kf1)
        object.__setattr__(self, "gap_g", self.Kg2 - self.Kg1)

    @property
    def n(self) -> int:
        return self.Kf1.shape[0]

    @property
    def q(self) -> int:
        return self.C.shape[0]

    def theta_vertices(self) -> np.ndarray:
        """Stack of the 2^(n^2) zero-one vertex matrices."""
        n = self.n
        if n > MAX_VERTEX_DIM:
            raise ValueError(
                f"vertex enumeration needs 2^{n * n} matrices for n = {n}; "
                f"it is limited to n <= {MAX_VERTEX_DIM}")
        return np.reshape(list(itertools.product((0.0, 1.0), repeat=n * n)),
                          (-1, n, n))

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
    """Symmetric 2n x 2n verification matrix for each candidate and each theta.

    P may be one n x n matrix or a stack (..., n, n) of candidates, with
    R_lmi, l1 and l2 of shape (..., n, q) to match; theta is one n x n
    matrix or a stack of them.  The result has shape
    (candidates..., thetas..., 2n, 2n).
    """
    n, q = problem.n, problem.q
    P = np.asarray(P, float)
    lead = P.shape[:-2]
    R = np.asarray(R_lmi, float).reshape(lead + (n, q))
    l1 = np.asarray(l1, float).reshape(lead + (n, q))
    l2 = np.asarray(l2, float).reshape(lead + (n, q))
    theta = np.asarray(theta, float)
    if P.shape[-2:] != (n, n) or theta.shape[-2:] != (n, n):
        raise ValueError("dimension mismatch in verification matrix assembly")
    A_theta, C_theta = problem.A @ theta, problem.C @ theta

    # candidate terms broadcast over the theta axes
    over_theta = (1,) * (theta.ndim - 2)
    Pb = P.reshape(lead + over_theta + (n, n))
    Rb = R.reshape(lead + over_theta + (n, q))
    eye = np.eye(n)

    top_left = (A_theta.swapaxes(-1, -2) @ Pb + Pb @ A_theta
                - C_theta.swapaxes(-1, -2) @ Rb.swapaxes(-1, -2)
                - Rb @ C_theta
                + 2.0 * problem.alpha * Pb)
    lower_off = (np.sqrt(2.0) * P
                 + problem.gap_f @ (eye - l1 @ problem.C)
                 + problem.gap_g @ (eye - l2 @ problem.C)).reshape(Pb.shape)
    # only the top-left block needs symmetrizing: 0.5 * (x + x) == x exactly
    M = np.empty(top_left.shape[:-2] + (2 * n, 2 * n))
    M[..., :n, :n] = 0.5 * (top_left + top_left.swapaxes(-1, -2))
    M[..., :n, n:] = lower_off.swapaxes(-1, -2)
    M[..., n:, :n] = lower_off
    M[..., n:, n:] = -3.0 * eye
    return M


def _thetas(problem: LmiProblem, mode: str) -> np.ndarray:
    """The stack (T, n, n) of the theta matrices that a mode checks."""
    if mode not in VERIFY_MODES:
        raise ValueError(f"unknown verification mode {mode!r}")
    return (np.eye(problem.n)[None] if mode == "theta_identity"
            else problem.theta_vertices())


def _top_eigenvalues(problem: LmiProblem, P, R_lmi, l1, l2, thetas):
    """(top eigenvalues, matrices) of K candidates at T thetas: P is
    (K, n, n), R_lmi, l1 and l2 are (K, n, q) and thetas is (T, n, n).  The
    eigenvalues are (K, T) and the matrices the assembled (K, T, 2n, 2n)
    stack."""
    M = assemble_lmi_matrix(problem, P, R_lmi, l1, l2, thetas)
    return np.linalg.eigvalsh(M)[..., -1], M


def _check_decay_rate(problem: LmiProblem, P) -> None:
    """Raise a ValueError naming the decay rate if the 2 alpha P term of the
    verification matrix overflows, as a finite alpha near the largest float
    makes it do."""
    if not 2.0 * problem.alpha * float(np.max(np.abs(P))) < np.inf:
        raise ValueError(f"decay rate {problem.alpha:g} overflows the "
                         "verification matrix")


def _injection_norms(problem: LmiProblem, gains) -> np.ndarray:
    """|l1 C| and |l2 C| of each of K candidates, (K, 2), from its l1 and l2
    raveled into one row of `gains` (K, 2nq): the spectral norm is the
    largest singular value, so one SVD takes all of them."""
    LC = np.reshape(gains, (-1, 2, problem.n, problem.q)) @ problem.C
    return np.linalg.svd(LC, compute_uv=False).max(axis=-1)


def verify_gains(problem: LmiProblem, P, R_lmi, l1, l2,
                 mode: str = "theta_identity",
                 tol: float = FEASIBILITY_TOL) -> LmiCertificate:
    """Check negativity of the verification matrix and the injection-norm caps
    in one of the VERIFY_MODES."""
    _check_decay_rate(problem, P)
    thetas = _thetas(problem, mode)
    eigs, _ = _top_eigenvalues(problem, np.asarray(P, float)[None], R_lmi,
                               l1, l2, thetas)
    eigs = eigs[0].tolist()
    norm1, norm2 = _injection_norms(
        problem, np.concatenate([np.ravel(l1), np.ravel(l2)]))[0].tolist()
    worst = int(np.argmax(eigs))
    max_eig = eigs[worst]
    feasible = (max_eig < -tol) and norm1 <= 1.0 and norm2 <= 1.0
    return LmiCertificate(
        feasible=feasible, max_eigenvalue=max_eig,
        worst_theta=thetas[worst], norm_l1C=norm1, norm_l2C=norm2,
        mode=mode, tolerance=tol,
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
BATCH = 16          # candidates the search evaluates in one kernel call
# Rounding slack of the subgradient prune.  With N(p) = |p1| . w, a bound on
# |M(p, theta)|_2 (`_norm_weights`), and u = 2^-53, a candidate's computed top
# eigenvalue is at least its computed max_t G[t] . p1 less three errors:
# LAPACK's eigenvalue of the assembled matrix (backward stable, a small
# multiple of 2n u N(p)); the assembly (a few rounded products per entry);
# and the affine evaluation (G from a few products per entry, each
# |G[t, k]| <= w_k, a dot product of at most 41 terms, and |v| = 1 only to
# rounding).  For 2n <= 6 each is below 10^3 u N(p); the slack, 1e-9 N(p),
# is about 10^7 u N(p).
PRUNE_SLACK = 1e-9


def _project_pd(P: np.ndarray) -> None:
    """Symmetrize each matrix of a stack (..., n, n) in place and clip its
    eigenvalues at PD_FLOOR."""
    ev, V = np.linalg.eigh(0.5 * (P + P.swapaxes(-1, -2)))
    P[...] = (V * np.maximum(ev, PD_FLOOR)[..., None, :]) @ V.swapaxes(-1, -2)


def _parts(problem: LmiProblem, p1: np.ndarray):
    """P, R_lmi, l1 and l2 of each row p1 = (1, P, R_lmi, l1, l2) of a
    stack (K, 1 + n^2 + 3nq), as views of shape (K, n, n) and (K, n, q)."""
    n, q = problem.n, problem.q
    cuts = [1, 1 + n * n, 1 + n * (n + q), 1 + n * (n + 2 * q), p1.shape[1]]
    return [p1[:, a:b].reshape(len(p1), n, -1) for a, b in zip(cuts, cuts[1:])]


def _minorant(problem: LmiProblem, thetas, v):
    """Affine minorants of the top eigenvalue at each of T thetas, taken at
    unit vectors v (T, 2n): the rows G[t] over p1 = (1, P, R_lmi, l1, l2),
    raveled, with v_t^T M(p, theta_t) v_t = G[t] . p1 for every p, so
    lambda_max(M(p, theta_t)) >= G[t] . p1.  With (a, b) = v_t and
    theta a = theta_t a, G[t] = (c, g_P, g_R, g_l1, g_l2) where
        c    = 2 b^T (gap_f + gap_g) a - 3 b^T b,
        g_P  = (A theta a) a^T + a (A theta a)^T + 2 alpha a a^T
               + 2 sqrt2 b a^T,
        g_R  = -2 a (C theta a)^T,
        g_l1 = -2 (gap_f^T b) (C a)^T,   g_l2 = -2 (gap_g^T b) (C a)^T.
    g_P keeps its two transposed terms because a candidate P is symmetric
    only to rounding, and the assembly uses it unsymmetrized."""
    gap_f, gap_g = problem.gap_f, problem.gap_g
    a, b = v[:, :problem.n], v[:, problem.n:]
    theta_a = np.einsum("tij,tj->ti", thetas, a)
    A_a, C_a = theta_a @ problem.A.T, theta_a @ problem.C.T
    Ca = a @ problem.C.T

    def outer(x, y):
        return (x[:, :, None] * y[:, None, :]).reshape(len(v), -1)

    return np.concatenate([
        (2.0 * np.einsum("ti,ti->t", b, a @ (gap_f + gap_g).T)
         - 3.0 * np.einsum("ti,ti->t", b, b))[:, None],
        outer(A_a, a) + outer(a, A_a) + 2.0 * problem.alpha * outer(a, a)
        + 2.0 * np.sqrt(2.0) * outer(b, a),
        -2.0 * outer(a, C_a),
        -2.0 * outer(b @ gap_f, Ca),
        -2.0 * outer(b @ gap_g, Ca)], axis=1)


def _norm_weights(problem: LmiProblem) -> np.ndarray:
    """Weights w over p1 with |M(p, theta)|_2 <= |p1| . w for every theta of
    the cube: the matrix is M_0 + sum_k p_k M_k(theta), and |theta|_2 <= n,
    so |M_0| <= 3 + |gap_f| + |gap_g|, |M_P_ij| <= 2n|A| + 2 alpha + sqrt2,
    |M_R_ij| <= 2n|C|, |M_l1_ij| <= |gap_f||C| and |M_l2_ij| <= |gap_g||C|
    (Frobenius norms on the right)."""
    n, q, norm = problem.n, problem.q, np.linalg.norm
    A, C = norm(problem.A), norm(problem.C)
    gap_f, gap_g = norm(problem.gap_f), norm(problem.gap_g)
    return np.repeat([3.0 + gap_f + gap_g,
                      2.0 * n * A + 2.0 * problem.alpha + np.sqrt(2.0),
                      2.0 * n * C, gap_f * C, gap_g * C],
                     [1, n * n, n * q, n * q, n * q])


def _penalties(problem: LmiProblem, p1, thetas, bound=np.inf,
               minorant=None):
    """One entry per candidate row p1 = (1, P, R_lmi, l1, l2) of a stack
    (K, 1 + n^2 + 3nq) and, with several thetas, the minorant (G, w) of the
    first candidate whose penalty is below bound: its `_minorant` rows at its
    top eigenvectors and the `_norm_weights` (None if no penalty is below
    bound).

    A penalty is the top eigenvalue over thetas plus a hinge on the
    injection norms.  An entry below bound is the candidate's penalty, bit
    for bit; any other entry is a lower bound on it that is >= bound, so
    that candidate could not have been accepted.  Given the minorant of the
    incumbent whose penalty is bound, each candidate first gets
    max_t G[t] . p1 - PRUNE_SLACK * |p1| . w, a lower bound on its top
    eigenvalue, and keeps it as its entry if it is >= bound.  The others are
    evaluated at every theta, and as the hinge is >= 0, only those whose top
    eigenvalue is below bound take their injection norms.
    """
    entries, live = np.empty(len(p1)), slice(None)
    if minorant is not None:
        G, w = minorant
        entries = (np.max(p1 @ G.T, axis=1)
                   - PRUNE_SLACK * (np.abs(p1) @ w))
        live = np.flatnonzero(entries < bound)
        if not len(live):
            return entries, None
        p1 = p1[live]
    P, R, l1, l2 = _parts(problem, p1)
    eigs, M = _top_eigenvalues(problem, P, R, l1, l2, thetas)
    pens = eigs.max(axis=1)     # the top eigenvalues, penalties where low
    low = np.flatnonzero(pens < bound)
    if len(low):
        gains = p1[low, -2 * problem.n * problem.q:]
        hinge = np.maximum(_injection_norms(problem, gains) - 1.0, 0.0)
        pens[low] += 100.0 * (hinge[:, 0] + hinge[:, 1])
    entries[live] = pens
    below = low[pens[low] < bound]
    if len(thetas) == 1 or not len(below):
        return entries, None
    # eigh for the top eigenvectors only, the penalties stay those of eigvalsh
    G = _minorant(problem, thetas,
                  np.linalg.eigh(M[below[0]])[1][..., -1])
    return entries, (G, _norm_weights(problem) if minorant is None
                     else minorant[1])


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
    success and shrinking it otherwise.  Every candidate, and the best point,
    is one row p1 = (1, P, R_lmi, l1, l2).  The candidates of the next BATCH
    iterations are built as the rows of one buffer and evaluated together,
    on the guess that none of them is accepted; the first accepted one ends
    the batch, and the noise drawn for the candidates after it is used by the
    next batch.  A batch's noise is drawn in one call, row by row in the
    order of the one-candidate loop.  With several thetas only the
    candidates whose subgradient lower bound, taken at the best point's top
    eigenvectors, does not already reject them are evaluated at all of them,
    and only the candidates whose top eigenvalue could still be accepted
    take their injection norms.  The result is that of evaluating one
    candidate at a time at every theta.
    """
    n, q = problem.n, problem.q
    rng = np.random.default_rng(search.seed)
    thetas = _thetas(problem, mode)
    _check_decay_rate(problem, np.eye(n))   # at the starting point

    best = np.concatenate([[1.0], np.eye(n).ravel(), np.zeros(3 * n * q)])
    [best_pen], minorant = _penalties(problem, best[None], thetas)
    step = search.step
    # a step s moves P and R_lmi by s times their noise, l1 and l2 by 0.1 s
    scale = np.repeat([1.0, 0.1], [n * n + n * q, 2 * n * q])
    # one row per iteration: its P, R_lmi, l1 and l2 perturbations, raveled;
    # the first `drawn` rows hold noise that no candidate has used yet
    noise = np.empty((BATCH, n * n + 3 * n * q))
    cands = np.ones((BATCH, 1 + n * n + 3 * n * q))
    drawn = 0
    left = search.budget if best_pen > -search.tol else 0
    while left > 0:
        k = min(BATCH, left)
        rng.standard_normal(out=noise[drawn:k])
        steps = [step]      # the steps if every candidate is rejected
        for _ in range(k):
            steps.append(max(steps[-1] * 0.97, 1e-4))
        s = np.array(steps[:k])[:, None]
        cands[:k, 1:] = best[1:] + s * scale * noise[:k]
        _project_pd(_parts(problem, cands[:k])[0])
        entries, found = _penalties(problem, cands[:k], thetas, best_pen,
                                    minorant)
        accepted = np.flatnonzero(entries < best_pen)
        if not len(accepted):
            used, step = k, steps[k]
        else:
            j = int(accepted[0])
            used, step = j + 1, min(steps[j] * 1.3, 10.0)
            best = cands[j].copy()
            best_pen, minorant = entries[j], found
        noise[:k - used] = noise[used:k]
        drawn = k - used
        left = 0 if best_pen < -search.tol else left - used

    P, R, l1, l2 = (a[0] for a in _parts(problem, best[None]))
    l3 = np.linalg.solve(P, R)
    cert = verify_gains(problem, P, R, l1, l2, mode=mode, tol=search.tol)
    return P, l1, l2, l3, cert
