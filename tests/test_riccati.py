import math

import numpy as np
import pytest

from roughlq.pendulum import build_pendulum
from roughlq.riccati import (
    ControlDesign,
    RiccatiError,
    _solve_steps,
    care_residual,
    solve_care,
    solve_lyapunov,
    spectral_abscissa,
)


def riccati_ode_solution(a, b, q, r, tau=150.0, dt=5e-3):
    """Independent oracle: integrate dP/dtau = A'P + PA - PBR^-1B'P + Q
    forward (RK4) from P=0 until stationary.

    RK4 preserves the equilibrium exactly, so the horizon (set by the
    slowest closed-loop mode) controls accuracy, not the step size."""
    a, q, r = np.atleast_2d(a), np.atleast_2d(q), np.atleast_2d(r)
    b = np.atleast_2d(b) if np.ndim(b) > 1 else np.asarray(b, dtype=float)[:, None]
    rinv = np.linalg.inv(r)

    def rhs(p):
        return a.T @ p + p @ a - p @ b @ rinv @ b.T @ p + q

    p = np.zeros_like(q)
    steps = int(tau / dt)
    for _ in range(steps):
        k1 = rhs(p)
        k2 = rhs(p + 0.5 * dt * k1)
        k3 = rhs(p + 0.5 * dt * k2)
        k4 = rhs(p + dt * k3)
        p = p + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        p = 0.5 * (p + p.T)
    return p


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_scalar_integrator():
    d = solve_care(np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert d.P[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert d.K[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert d.A_cl[0, 0] == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("a,q", [(1.0, 3.0), (-1.0, 3.0), (2.5, 0.7)])
def test_scalar_quadratic_formula(a, q):
    # stabilising root of 2 a p - p^2 + q = 0 is a + sqrt(a^2 + q)
    d = solve_care(np.array([[a]]), np.array([[1.0]]), np.array([[q]]), np.array([[1.0]]))
    assert d.P[0, 0] == pytest.approx(a + math.sqrt(a * a + q), rel=1e-12)


def test_pendulum_care_vs_ode_oracle():
    pm = build_pendulum()
    q, r = np.eye(4), np.array([[1.0]])
    d = solve_care(pm.A, pm.B, q, r)
    assert d.care_residual < 1e-9 * (1.0 + np.linalg.norm(d.P) ** 2)
    oracle = riccati_ode_solution(pm.A, pm.B, q, r)
    assert np.max(np.abs(d.P - oracle)) < 1e-6


def test_design_invariants_on_pendulum():
    pm = build_pendulum()
    d = solve_care(pm.A, pm.B, np.eye(4), np.array([[1.0]]))
    assert np.linalg.norm(d.P - d.P.T) < 1e-10 * np.linalg.norm(d.P)
    assert np.min(np.linalg.eigvalsh(d.P)) > 0.0
    assert spectral_abscissa(d.A_cl) < 0.0


# ---------------------------------------------------------------------------
# residual function
# ---------------------------------------------------------------------------

def test_residual_exact_solution():
    a, b, q, r = (np.array([[x]]) for x in (1.0, 1.0, 3.0, 1.0))
    p = np.array([[3.0]])  # exact: 2*3 - 9 + 3 = 0
    assert care_residual(p, a, b, q, r) < 1e-14


def test_residual_zero_p():
    q = np.eye(3)
    res = care_residual(np.zeros((3, 3)), np.zeros((3, 3)), np.ones((3, 1)), q, np.eye(1))
    assert res == pytest.approx(math.sqrt(3.0), abs=1e-14)


def test_residual_linear_sensitivity():
    # finite-difference: residual of P + eps*I grows ~linearly in eps
    pm = build_pendulum()
    q, r = np.eye(4), np.array([[1.0]])
    d = solve_care(pm.A, pm.B, q, r)
    r1 = care_residual(d.P + 1e-3 * np.eye(4), pm.A, pm.B, q, r)
    r2 = care_residual(d.P + 2e-3 * np.eye(4), pm.A, pm.B, q, r)
    assert r1 > 1e-4
    assert r2 / r1 == pytest.approx(2.0, rel=0.05)


def test_non_stabilizable_pair_rejected():
    # unstable mode invisible to the input
    a = np.diag([1.0, -1.0])
    b = np.array([[0.0], [1.0]])
    with pytest.raises(RiccatiError):
        solve_care(a, b, np.eye(2), np.eye(1))


def test_indefinite_r_rejected():
    with pytest.raises(RiccatiError):
        solve_care(np.zeros((1, 1)), np.eye(1), np.eye(1), -np.eye(1))


# ---------------------------------------------------------------------------
# independent construction
# ---------------------------------------------------------------------------

def hamiltonian_stable_subspace_solution(a, b, q, r):
    """Independent oracle: P = U2 U1^{-1} from the eigenvectors U = [U1; U2]
    of the Hamiltonian [[A, -B R^-1 B'], [-Q, -A']] whose eigenvalues lie
    in the open left half-plane."""
    n = a.shape[0]
    h = np.block([[a, -b @ np.linalg.solve(r, b.T)], [-q, -a.T]])
    w, v = np.linalg.eig(h)
    u = v[:, w.real < 0.0]
    assert u.shape[1] == n
    p = np.real(u[n:] @ np.linalg.inv(u[:n]))
    return 0.5 * (p + p.T)


@pytest.mark.parametrize(
    "q_diag,r",
    [((1, 1, 1, 1), 1.0), ((10, 100, 1, 1), 0.01), ((1, 1, 1, 1), 100.0), ((1e3, 1e3, 1, 1), 1e-3)],
)
def test_care_matches_hamiltonian_stable_subspace(q_diag, r):
    pm = build_pendulum()
    q, rm = np.diag(np.asarray(q_diag, dtype=float)), np.array([[r]])
    d = solve_care(pm.A, pm.B, q, rm)
    oracle = hamiltonian_stable_subspace_solution(pm.A, pm.B, q, rm)
    assert np.linalg.norm(d.P - oracle) < 1e-10 * np.linalg.norm(oracle)


# ---------------------------------------------------------------------------
# Lyapunov helper
# ---------------------------------------------------------------------------

def test_lyapunov_solver_residual():
    rng = np.random.Generator(np.random.PCG64(5))
    a = -2.0 * np.eye(4) + 0.5 * rng.standard_normal((4, 4))
    q = np.eye(4)
    x = solve_lyapunov(a, q)
    assert np.max(np.abs(a.T @ x + x @ a + q)) < 1e-12


@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
@pytest.mark.parametrize("shape", [(40, 3), (40, 3, 2), (1, 3), (1, 3, 2)], ids=["vectors", "columns", "one-vector", "one-block"])
def test_step_solve_matches_a_step_by_step_loop(shape, backward):
    # z[k] = S z[k -/+ 1] + r[k] one row at a time, against one banded solve;
    # S has spectral radius 0.9, so the rounding of both stays near eps |z|
    rng = np.random.Generator(np.random.PCG64(3))
    step = rng.standard_normal((3, 3))
    step *= 0.9 / np.max(np.abs(np.linalg.eigvals(step)))
    rows = rng.standard_normal(shape)
    given = rows.copy()
    want = np.empty_like(rows)
    order = range(shape[0] - 1, -1, -1) if backward else range(shape[0])
    prev = None
    for k in order:
        want[k] = rows[k] if prev is None else step @ want[prev] + rows[k]
        prev = k
    got = _solve_steps(step, rows, backward=backward)
    assert got.shape == shape and got.flags.c_contiguous
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(want)))))
    assert np.array_equal(rows, given)  # the rows are read, not overwritten
