import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safeadp as sa
from safeadp import lmi
from safeadp.lmi import (MAX_VERTEX_DIM, LmiProblem, SearchParams,
                         assemble_lmi_matrix, synthesize_gains, verify_gains)

C_ROW = np.array([[0.0, 1.0]])


def _zero_gap_problem(A, alpha=0.0, C=C_ROW):
    # zero bound gaps: Kf2 = Kf1 = A, Kg = 0
    Z = np.zeros_like(A)
    return LmiProblem(C=C, Kf1=A, Kf2=A, Kg1=Z, Kg2=Z, alpha=alpha)


def test_assemble_trivial_instance():
    A = np.array([[-1.0, 2.0], [0.5, -4.0]])
    problem = _zero_gap_problem(A)
    M = assemble_lmi_matrix(problem, np.eye(2), np.zeros((2, 1)),
                            np.zeros((2, 1)), np.zeros((2, 1)), np.eye(2))
    expected = np.block([[A + A.T, np.sqrt(2.0) * np.eye(2)],
                         [np.sqrt(2.0) * np.eye(2), -3.0 * np.eye(2)]])
    assert np.allclose(M, expected, atol=1e-14)


@pytest.mark.parametrize("P_dim, theta_shape",
                         [(3, (2, 2)), (2, (3, 3)), (2, (4, 3, 3))],
                         ids=["P", "theta", "theta-stack"])
def test_assembly_rejects_a_dimension_mismatch(P_dim, theta_shape):
    problem = _zero_gap_problem(-np.eye(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        assemble_lmi_matrix(problem, np.eye(P_dim), np.zeros((2, 1)),
                            np.zeros((2, 1)), np.zeros((2, 1)),
                            np.ones(theta_shape))


def test_assembled_matrix_symmetric(rng):
    for _ in range(25):
        Kf1 = rng.normal(size=(2, 2))
        Kf2 = Kf1 + np.abs(rng.normal(size=(2, 2)))
        Kg1 = rng.normal(size=(2, 2))
        Kg2 = Kg1 + np.abs(rng.normal(size=(2, 2)))
        problem = LmiProblem(C=C_ROW, Kf1=Kf1, Kf2=Kf2, Kg1=Kg1, Kg2=Kg2,
                             alpha=rng.uniform(0, 3))
        P = rng.normal(size=(2, 2))
        P = P @ P.T + 0.1 * np.eye(2)
        M = assemble_lmi_matrix(problem, P, rng.normal(size=(2, 1)),
                                rng.normal(size=(2, 1)), rng.normal(size=(2, 1)),
                                rng.uniform(0, 1, (2, 2)))
        assert np.allclose(M, M.T, atol=1e-12)


def test_affine_in_theta(rng):
    problem = LmiProblem(C=C_ROW, Kf1=rng.normal(size=(2, 2)),
                         Kf2=rng.normal(size=(2, 2)) + 5.0,
                         Kg1=np.zeros((2, 2)), Kg2=np.ones((2, 2)), alpha=1.0)
    P = np.eye(2) * 2.0
    R = rng.normal(size=(2, 1))
    l1 = rng.normal(size=(2, 1)) * 0.1
    l2 = rng.normal(size=(2, 1)) * 0.1
    for _ in range(20):
        th1 = rng.uniform(0, 1, (2, 2))
        th2 = rng.uniform(0, 1, (2, 2))
        mid = assemble_lmi_matrix(problem, P, R, l1, l2, 0.5 * th1 + 0.5 * th2)
        avg = 0.5 * (assemble_lmi_matrix(problem, P, R, l1, l2, th1)
                     + assemble_lmi_matrix(problem, P, R, l1, l2, th2))
        assert np.allclose(mid, avg, atol=1e-12)


def test_verify_trivially_stable_feasible_at_identity():
    problem = _zero_gap_problem(-3.0 * np.eye(2))
    cert = verify_gains(problem, np.eye(2), np.zeros((2, 1)),
                        np.zeros((2, 1)), np.zeros((2, 1)),
                        mode="theta_identity")
    # independent 2x2 eigenvalue check of [[-6, sqrt2], [sqrt2, -3]]
    lam_max = (-9.0 + np.sqrt(81.0 - 4.0 * (18.0 - 2.0))) / 2.0
    assert cert.feasible
    assert cert.max_eigenvalue == pytest.approx(lam_max, rel=1e-12)


def test_verify_all_vertices_rejects_zero_vertex():
    # at the zero vertex the top-left block loses all negative terms, so the
    # vertex-exhaustive mode can never certify this matrix family
    problem = _zero_gap_problem(-3.0 * np.eye(2))
    cert = verify_gains(problem, np.eye(2), np.zeros((2, 1)),
                        np.zeros((2, 1)), np.zeros((2, 1)), mode="all_vertices")
    assert not cert.feasible
    assert cert.max_eigenvalue > 0
    assert len(cert.vertex_eigenvalues) == 2 ** 4
    # the zero vertex alone is already indefinite: its top-left block has no
    # negative terms left
    zero_eig = np.linalg.eigvalsh(assemble_lmi_matrix(
        problem, np.eye(2), np.zeros((2, 1)), np.zeros((2, 1)),
        np.zeros((2, 1)), np.zeros((2, 2))))[-1]
    assert zero_eig > 0


def test_nan_decay_rate_is_rejected():
    with pytest.raises(ValueError, match="decay rate"):
        _zero_gap_problem(-3.0 * np.eye(2), alpha=float("nan"))


def test_overflowing_decay_rate_is_named():
    # finite, but 2 alpha P overflows: no gain check or search starts
    problem = _zero_gap_problem(-3.0 * np.eye(2), alpha=1e308)
    zero = np.zeros((2, 1))
    with pytest.raises(ValueError, match="decay rate 1e\\+308 overflows"):
        verify_gains(problem, np.eye(2), zero, zero, zero)
    with pytest.raises(ValueError, match="decay rate 1e\\+308 overflows"):
        synthesize_gains(problem, SearchParams(budget=5))


def test_vertex_enumeration_refuses_large_state(monkeypatch):
    # n = 4 would enumerate 2^16 matrices; the cap must fire before any
    # vertex is built, in a verification and in a search
    def no_enumeration(*args, **kwargs):
        raise AssertionError("vertex enumeration started")

    monkeypatch.setattr("safeadp.lmi.itertools.product", no_enumeration)
    n = MAX_VERTEX_DIM + 1
    problem = _zero_gap_problem(-np.eye(n), C=np.eye(1, n))
    zeros = np.zeros((n, 1))
    with pytest.raises(ValueError, match=r"2\^16 matrices for n = 4"):
        verify_gains(problem, np.eye(n), zeros, zeros, zeros,
                     mode="all_vertices")
    with pytest.raises(ValueError, match=r"2\^16 matrices for n = 4"):
        synthesize_gains(problem, SearchParams(budget=5), mode="all_vertices")
    cert = verify_gains(problem, np.eye(n), zeros, zeros, zeros)
    assert cert.mode == "theta_identity"


def test_norm_constraint_dominates():
    problem = _zero_gap_problem(-3.0 * np.eye(2))
    big_l1 = np.array([[0.0], [2.0]])   # ||l1 C|| = 2 with C = [0, 1]
    cert = verify_gains(problem, np.eye(2), np.zeros((2, 1)), big_l1,
                        np.zeros((2, 1)), mode="theta_identity")
    assert cert.norm_l1C == pytest.approx(2.0)
    assert not cert.feasible


def test_vertex_maximum_dominates_interior(rng):
    # brute-force oracle: on random instances the vertex sweep upper-bounds
    # the top eigenvalue at random interior parameters (affinity + convexity),
    # which is exactly what makes vertex verification sufficient
    for _ in range(5):
        Kf1 = rng.normal(size=(2, 2))
        problem = LmiProblem(C=C_ROW, Kf1=Kf1,
                             Kf2=Kf1 + np.abs(rng.normal(size=(2, 2))),
                             Kg1=np.zeros((2, 2)),
                             Kg2=np.abs(rng.normal(size=(2, 2))),
                             alpha=rng.uniform(0, 2))
        P = rng.normal(size=(2, 2))
        P = P @ P.T + 0.5 * np.eye(2)
        R = rng.normal(size=(2, 1))
        l1 = 0.3 * rng.normal(size=(2, 1))
        l2 = 0.3 * rng.normal(size=(2, 1))
        vertex_max = max(
            np.linalg.eigvalsh(assemble_lmi_matrix(problem, P, R, l1, l2, v))[-1]
            for v in problem.theta_vertices())
        for _ in range(100):
            theta = rng.uniform(0, 1, (2, 2))
            lam = np.linalg.eigvalsh(
                assemble_lmi_matrix(problem, P, R, l1, l2, theta))[-1]
            assert lam <= vertex_max + 1e-10


def test_synthesize_trivially_feasible():
    problem = _zero_gap_problem(-3.0 * np.eye(2), alpha=0.1)
    P, l1, l2, l3, cert = synthesize_gains(
        problem, search=SearchParams(budget=500, seed=3))
    assert cert.feasible
    check = verify_gains(problem, P, P @ l3, l1, l2, mode="theta_identity")
    assert check.feasible


def test_synthesize_hopeless_gap_reports_infeasible():
    A = -3.0 * np.eye(2)
    problem = LmiProblem(C=C_ROW, Kf1=A, Kf2=A + 1e6, Kg1=np.zeros((2, 2)),
                         Kg2=np.zeros((2, 2)), alpha=0.1)
    *_, cert = synthesize_gains(problem, search=SearchParams(budget=150, seed=0))
    assert not cert.feasible


def test_certificate_json_roundtrip():
    problem = _zero_gap_problem(-3.0 * np.eye(2))
    cert = verify_gains(problem, np.eye(2), np.zeros((2, 1)),
                        np.zeros((2, 1)), np.zeros((2, 1)))
    payload = json.loads(json.dumps(cert.to_json_dict()))
    assert payload["feasible"] is True
    assert "max_eigenvalue" in payload


def test_observer_error_contraction_with_feasible_gains(rng):
    """With gains that verify at identity, the simulated estimation error of a
    zero-gap synthetic plant contracts at least at the certified rate."""
    A = np.array([[-3.0, 0.5], [0.0, -4.0]])
    problem = _zero_gap_problem(A, alpha=0.5)
    P, l1, l2, l3, cert = synthesize_gains(
        problem, search=SearchParams(budget=800, seed=7))
    assert cert.feasible

    model = sa.SystemModel(
        n=2, m=1, q=1,
        f=lambda x: x @ A.T, g=lambda x: np.broadcast_to(
            np.array([[0.0], [1.0]]), np.asarray(x).shape[:-1] + (2, 1)).copy(),
        C=C_ROW, Kf1=A, Kf2=A, Kg1=np.zeros((2, 2)), Kg2=np.zeros((2, 2)),
        u_bar=5.0,
        domain=sa.DomainSet(center=np.zeros(2), halfwidths=np.full(2, 50.0)))
    gains = sa.ObserverGains(P=P, l1=l1, l2=l2, l3=l3, alpha=0.5, eps0=1.0)

    dt = 1e-3
    x = np.array([0.3, -0.2])
    xh = np.array([-0.4, 0.3])
    V = lambda e: float(e @ P @ e)
    for k in range(2000):
        u = np.array([0.5 * np.sin(0.01 * k)])
        fx = sa.drift(model, x) + sa.effectiveness(model, x) @ u
        fh = sa.observer_rhs(model, gains, xh, model.C @ x, u)
        v_before = V(x - xh)
        x = x + dt * fx
        xh = xh + dt * fh
        assert V(x - xh) <= v_before * np.exp(-2 * gains.alpha * dt) * (1 + 1e-4)


# ------------------------------------------- frozen per-theta implementation
# The verification matrix as it was assembled before the stacked kernel: one
# theta at a time with np.block, one eigvalsh per theta and one SVD norm per
# injection gain.  The stacked kernel must reproduce it bit for bit.

def _frozen_assemble(problem, P, R_lmi, l1, l2, theta):
    n = problem.n
    P = np.asarray(P, float)
    R = np.asarray(R_lmi, float).reshape(n, problem.q)
    l1 = np.asarray(l1, float).reshape(n, problem.q)
    l2 = np.asarray(l2, float).reshape(n, problem.q)
    theta = np.asarray(theta, float)
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


def _frozen_verify(problem, P, R_lmi, l1, l2, mode):
    """(eigenvalues, max, worst theta, |l1 C|, |l2 C|) by the per-theta loop."""
    n = problem.n
    l1 = np.asarray(l1, float).reshape(n, problem.q)
    l2 = np.asarray(l2, float).reshape(n, problem.q)
    norm1 = float(np.linalg.norm(l1 @ problem.C, 2))
    norm2 = float(np.linalg.norm(l2 @ problem.C, 2))
    thetas = ([np.eye(n)] if mode == "theta_identity" else
              [np.array(bits, float).reshape(n, n)
               for bits in itertools.product((0.0, 1.0), repeat=n * n)])
    eigs = [float(np.linalg.eigvalsh(
        _frozen_assemble(problem, P, R_lmi, l1, l2, th))[-1]) for th in thetas]
    worst = int(np.argmax(eigs))
    return eigs, eigs[worst], thetas[worst], norm1, norm2


def _random_instance(n, q, seed):
    rng = np.random.default_rng(seed)
    Kf1 = rng.normal(size=(n, n))
    Kg1 = rng.normal(size=(n, n))
    problem = LmiProblem(C=rng.normal(size=(q, n)), Kf1=Kf1,
                         Kf2=Kf1 + np.abs(rng.normal(size=(n, n))), Kg1=Kg1,
                         Kg2=Kg1 + np.abs(rng.normal(size=(n, n))),
                         alpha=rng.uniform(0, 3))
    P = rng.normal(size=(n, n))
    P = P @ P.T + 0.1 * np.eye(n)
    R, l1, l2 = (rng.normal(size=(n, q)) for _ in range(3))
    return rng, problem, P, R, l1, l2


def _hex(values):
    return [float(v).hex() for v in values]


@settings(max_examples=120, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), q=st.sampled_from([1, 2]),
       count=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_stacked_assembly_matches_per_theta_blocks(n, q, count, seed):
    rng, problem, P, R, l1, l2 = _random_instance(n, q, seed)
    thetas = rng.uniform(0, 1, (count, n, n))
    stacked = assemble_lmi_matrix(problem, P, R, l1, l2, thetas)
    assert stacked.shape == (count, 2 * n, 2 * n)
    for theta, M in zip(thetas, stacked):
        frozen = _frozen_assemble(problem, P, R, l1, l2, theta)
        assert M.tobytes() == frozen.tobytes()
        single = assemble_lmi_matrix(problem, P, R, l1, l2, theta)
        assert single.tobytes() == frozen.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), q=st.sampled_from([1, 2]),
       mode=st.sampled_from(["theta_identity", "all_vertices"]),
       seed=st.integers(0, 2**32 - 1))
def test_verify_matches_per_theta_loop(n, q, mode, seed):
    _, problem, P, R, l1, l2 = _random_instance(n, q, seed)
    eigs, max_eig, worst, norm1, norm2 = _frozen_verify(problem, P, R, l1, l2,
                                                        mode)
    cert = verify_gains(problem, P, R, l1, l2, mode=mode)
    if mode == "all_vertices":
        assert _hex(cert.vertex_eigenvalues) == _hex(eigs)
    else:
        assert cert.vertex_eigenvalues is None
    assert _hex([cert.max_eigenvalue, cert.norm_l1C, cert.norm_l2C]) == \
        _hex([max_eig, norm1, norm2])
    assert np.asarray(cert.worst_theta).tobytes() == worst.tobytes()


def test_vertex_stack_is_not_shared_mutable_state():
    # a certificate, or a vertex stack handed out before, must not be able to
    # change what the next verification checks
    A = np.array([[-1.0, 2.0], [0.5, -4.0]])
    problem = _zero_gap_problem(A, alpha=0.3)
    args = (problem, np.eye(2), np.zeros((2, 1)), np.zeros((2, 1)),
            np.zeros((2, 1)))
    first = verify_gains(*args, mode="all_vertices")
    worst = first.worst_theta.copy()
    first.worst_theta[...] = 0.5
    problem.theta_vertices()[...] = 0.5
    again = verify_gains(*args, mode="all_vertices")
    assert _hex(again.vertex_eigenvalues) == _hex(first.vertex_eigenvalues)
    assert again.worst_theta.tobytes() == worst.tobytes()


# ------------------------------------------ frozen one-candidate gain search
# The gain search as it ran before candidates were evaluated in batches: one
# candidate per iteration, its penalty from the per-theta loop above.  The
# batched search must return the same gains and certificate bit for bit.

def _frozen_project_pd(P):
    P = 0.5 * (P + P.T)
    ev, V = np.linalg.eigh(P)
    return (V * np.maximum(ev, lmi.PD_FLOOR)) @ V.T


def _frozen_penalty(problem, P, R, l1, l2, mode):
    eigs, _, _, norm1, norm2 = _frozen_verify(problem, P, R, l1, l2, mode)
    hinge = 100.0 * (max(0.0, norm1 - 1.0) + max(0.0, norm2 - 1.0))
    return max(eigs) + hinge


def _frozen_synthesize(problem, search, mode):
    n, q = problem.n, problem.q
    rng = np.random.default_rng(search.seed)
    best = (np.eye(n), np.zeros((n, q)), np.zeros((n, q)), np.zeros((n, q)))
    best_pen = _frozen_penalty(problem, *best, mode)
    step = search.step
    if best_pen > -search.tol:
        for _ in range(search.budget):
            P_c = _frozen_project_pd(best[0] + step * rng.standard_normal((n, n)))
            R_c = best[1] + step * rng.standard_normal((n, q))
            l1_c = best[2] + 0.1 * step * rng.standard_normal((n, q))
            l2_c = best[3] + 0.1 * step * rng.standard_normal((n, q))
            pen = _frozen_penalty(problem, P_c, R_c, l1_c, l2_c, mode)
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


def _easy_instance(n, q, seed):
    """A zero-gap stable plant that the search can make feasible at identity:
    with a decay margin d = -A - alpha below 1/3, P = I is infeasible and a
    P shrunk below 3d is not."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.0, 0.5)
    A = (-(alpha + rng.uniform(0.05, 0.4)) * np.eye(n)
         + 0.05 * rng.normal(size=(n, n)))
    return _zero_gap_problem(A, alpha=alpha, C=rng.normal(size=(q, n)))


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), q=st.sampled_from([1, 2]),
       mode=st.sampled_from(["theta_identity", "all_vertices"]),
       easy=st.booleans(),
       budget=st.one_of(st.integers(0, 2 * lmi.BATCH + 1),
                        st.sampled_from(["K-1", "K", "K+1"])),
       step=st.floats(0.01, 3.0), seed=st.integers(0, 2**32 - 1))
def test_batched_search_matches_one_candidate_loop(n, q, mode, easy, budget,
                                                   step, seed):
    problem = (_easy_instance(n, q, seed) if easy
               else _random_instance(n, q, seed)[1])
    if isinstance(budget, str):     # around the candidates of one batch
        budget = lmi.BATCH + {"K-1": -1, "K": 0, "K+1": 1}[budget]
    search = SearchParams(budget=budget, step=step, seed=seed)
    *arrays, cert = synthesize_gains(problem, search, mode=mode)
    *frozen, frozen_cert = _frozen_synthesize(problem, search, mode)
    assert [a.tobytes() for a in arrays] == [a.tobytes() for a in frozen]
    assert json.dumps(cert.to_json_dict()) == \
        json.dumps(frozen_cert.to_json_dict())


def test_batched_search_stops_inside_a_batch(monkeypatch):
    # P = I is infeasible here and the fifth candidate is not, so the search
    # evaluates one batch and stops at its fifth candidate
    problem = _zero_gap_problem(-0.4 * np.eye(2), alpha=0.1)
    search = SearchParams(budget=lmi.BATCH, seed=1)
    four = dataclasses.replace(search, budget=4)
    assert not _frozen_synthesize(problem, four, "theta_identity")[-1].feasible
    *frozen, frozen_cert = _frozen_synthesize(problem, search, "theta_identity")
    sizes = []
    top_eigenvalues = lmi._top_eigenvalues

    def recorded(problem, P, *args):
        sizes.append(len(P))
        return top_eigenvalues(problem, P, *args)

    monkeypatch.setattr(lmi, "_top_eigenvalues", recorded)
    *arrays, cert = synthesize_gains(problem, search)
    assert cert.feasible and frozen_cert.feasible
    assert [a.tobytes() for a in arrays] == [a.tobytes() for a in frozen]
    assert sizes == [1, lmi.BATCH, 1]


# ------------------------------------------- subgradient prune of the search

def _study_problem(name):
    cfg = sa.preset(name)
    return LmiProblem.from_model(cfg.model.build(), cfg.observer.alpha)


def _p1(P, R, l1, l2):
    """The raveled (1, P, R_lmi, l1, l2) of each candidate of a stack."""
    return np.concatenate([np.ones((len(P), 1))]
                          + [a.reshape(len(P), -1) for a in (P, R, l1, l2)],
                          axis=1)


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), q=st.sampled_from([1, 2]),
       count=st.integers(1, 9), vertices=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_minorant_is_the_quadratic_form_of_the_assembled_matrix(
        n, q, count, vertices, seed):
    # G[t] . p1, from the affine terms, equals v_t^T M(p, theta_t) v_t for
    # every p, P unsymmetric included
    rng, problem, *_ = _random_instance(n, q, seed)
    thetas = (problem.theta_vertices() if vertices
              else rng.uniform(0, 1, (count, n, n)))
    v = rng.normal(size=(len(thetas), 2 * n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    G = np.einsum("ti,ktij,tj->tk", v, lmi._affine_terms(problem, thetas), v)
    P = rng.normal(size=(count, n, n))
    R, l1, l2 = (rng.normal(size=(count, n, q)) for _ in range(3))
    p1 = _p1(P, R, l1, l2)
    M = assemble_lmi_matrix(problem, P, R, l1, l2, thetas)
    quadratic = np.einsum("ti,ktij,tj->kt", v, M, v)
    scale = np.abs(p1) @ np.abs(G).T
    assert np.all(np.abs(p1 @ G.T - quadratic) <= 1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), q=st.sampled_from([1, 2]),
       count=st.integers(1, 9), scale=st.sampled_from([1.0, 1e3, 1e6]),
       seed=st.integers(0, 2**32 - 1))
def test_minorant_weights_bound_the_matrix(n, q, count, scale, seed):
    # the weights w that an incumbent's minorant carries give
    # |M(p, theta)|_2 <= |p1| . w at every vertex, for any candidate p
    rng, problem, *best = _random_instance(n, q, seed)
    thetas = problem.theta_vertices()
    _, (_, w, _) = lmi._penalties(problem, _p1(*(b[None] for b in best)),
                                  thetas)
    P = scale * rng.normal(size=(count, n, n))
    R, l1, l2 = (scale * rng.normal(size=(count, n, q)) for _ in range(3))
    M = assemble_lmi_matrix(problem, P, R, l1, l2, thetas)
    bound = np.abs(_p1(P, R, l1, l2)) @ w
    assert np.all(np.linalg.norm(M, 2, axis=(-2, -1))
                  <= bound[:, None] * (1 + 1e-12))


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), q=st.sampled_from([1, 2]),
       count=st.integers(1, 9), step=st.sampled_from([1e-3, 0.1, 1.0]),
       scale=st.sampled_from([1.0, 1e3, 1e6]), incumbent=st.booleans(),
       quantile=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_subgradient_prune_is_exact(n, q, count, step, scale, incumbent,
                                    quantile, seed):
    # an entry below the bound is the candidate's exact penalty; any other
    # entry lies between the bound and that penalty, so the candidate could
    # not have been accepted; and the minorant handed back is the one its own
    # evaluation gives.  The bound is the exact penalty of the incumbent
    # (candidate 0) or of another candidate.
    rng, problem, *best = _random_instance(n, q, seed)
    thetas = lmi._thetas(problem, "all_vertices")
    best = _p1(*(b[None] for b in best))
    [best_pen], minorant = lmi._penalties(problem, best, thetas)
    # it is taken where the incumbent peaks, so there it is tight
    G, w, _ = minorant
    peak = lmi._top_eigenvalues(problem, *lmi._parts(problem, best),
                                thetas)[0].max()
    assert len(G) == len(thetas)
    assert abs(np.max(G @ best[0]) - peak) <= \
        lmi.PRUNE_SLACK * (np.abs(best[0]) @ w)
    p1 = np.repeat(best, count, axis=0)
    p1[:, 1:] = scale * (p1[:, 1:]
                         + step * rng.normal(size=(count, p1.shape[1] - 1)))
    p1[0] = best[0]
    # the exact penalties, from the per-theta loop
    cuts = np.cumsum([1, n * n, n * q, n * q])
    exact = [_frozen_penalty(problem, *(a.reshape(n, -1)
                                        for a in np.split(row, cuts)[1:]),
                             "all_vertices") for row in p1]
    bound = (best_pen if incumbent
             else float(np.quantile(exact, quantile, method="nearest")))
    entries, found = lmi._penalties(problem, p1, thetas, bound, minorant)
    for entry, pen in zip(entries, exact):
        if entry < bound:
            assert entry.hex() == pen.hex()
        else:
            assert bound <= entry <= pen
    below = np.flatnonzero(entries < bound)
    if not len(below):
        assert found is None
    else:
        _, own = lmi._penalties(problem, p1[below[0]][None], thetas)
        assert found[0].tobytes() == own[0].tobytes()
        assert found[1].tobytes() == own[1].tobytes()


def test_search_takes_injection_norms_only_where_they_can_decide(
        monkeypatch):
    # the hinge on the injection norms is >= 0, so a candidate whose top
    # eigenvalue is not below the best penalty cannot be accepted whatever
    # its norms: only the others hand their two matrices to the SVD
    problem = _study_problem("study1")
    svd_matrices, candidates = [], []
    svd, eigvalsh = np.linalg.svd, np.linalg.eigvalsh

    def counted_svd(a, *args, **kwargs):
        svd_matrices.append(int(np.prod(a.shape[:-2])))
        return svd(a, *args, **kwargs)

    def counted_eigvalsh(a, *args, **kwargs):
        candidates.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(lmi.np.linalg, "svd", counted_svd)
    monkeypatch.setattr(lmi.np.linalg, "eigvalsh", counted_eigvalsh)
    synthesize_gains(problem, SearchParams(seed=0))
    assert sum(svd_matrices) < 0.1 * 2 * sum(candidates)


def test_vertex_search_skips_most_vertex_matrices(monkeypatch):
    matrices, candidates = [], []
    eigvalsh, penalties = np.linalg.eigvalsh, lmi._penalties

    def counted_eigvalsh(a, *args, **kwargs):
        matrices.append(int(np.prod(a.shape[:-2])))
        return eigvalsh(a, *args, **kwargs)

    def counted_penalties(problem, P, *args):
        candidates.append(len(P))
        return penalties(problem, P, *args)

    monkeypatch.setattr(lmi.np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(lmi, "_penalties", counted_penalties)
    search = SearchParams(seed=0)
    *_, cert = synthesize_gains(_study_problem("study1"), search,
                                mode="all_vertices")
    # no candidate is feasible at every vertex, so the search spends its
    # whole budget, and its batches evaluate some candidates more
    assert not cert.feasible and sum(candidates) > search.budget
    assert sum(matrices) <= 0.5 * 16 * sum(candidates)


@pytest.mark.parametrize("plant", ["study1", "study2"])
def test_vertex_search_matches_one_candidate_loop_on_study_plants(plant):
    problem = _study_problem(plant)
    for seed in range(4):
        search = SearchParams(budget=400, seed=seed)
        *arrays, cert = synthesize_gains(problem, search, mode="all_vertices")
        *frozen, frozen_cert = _frozen_synthesize(problem, search,
                                                  "all_vertices")
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in frozen]
        assert json.dumps(cert.to_json_dict()) == \
            json.dumps(frozen_cert.to_json_dict())
