from dataclasses import replace

import numpy as np
import pytest

from roughlq.lift import (
    DegeneratePathError,
    OffGridError,
    RoughPath,
    chen_defect,
    chen_gap,
    holder_estimate,
    lift_piecewise_linear,
    lift_to_csv,
    reconstruct,
    rough_integral_admissible,
)
from roughlq.noise import NoiseModel, SamplePath, make_grid, sample_path


def _line_path(c, n=1, horizon=1.0):
    c = np.asarray(c, dtype=float)
    grid = make_grid(horizon / n, horizon)
    values = grid[:, None] * c[None, :]
    return SamplePath(t=grid, values=values)


def _two_step_path(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    values = np.stack([np.zeros_like(a), a, a + b])
    return SamplePath(t=np.array([0.0, 1.0, 2.0]), values=values)


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def test_lift_straight_line():
    c = np.array([2.0, -1.0])
    rp = lift_piecewise_linear(_line_path(c, n=1))
    x, xx = reconstruct(rp, 0.0, 1.0)
    assert np.allclose(x, c)
    assert np.allclose(xx, 0.5 * np.outer(c, c))


def test_lift_constant_path():
    grid = make_grid(0.5, 2.0)
    rp = lift_piecewise_linear(SamplePath(t=grid, values=np.zeros((grid.size, 2))))
    x, xx = reconstruct(rp, 0.0, 2.0)
    assert np.all(x == 0.0)
    assert np.all(xx == 0.0)


def test_lift_two_step_hand_chen():
    # hand Chen recursion: XX = a(x)a/2 + b(x)b/2 + a(x)b
    a = np.array([1.0, 2.0])
    b = np.array([0.5, -1.0])
    rp = lift_piecewise_linear(_two_step_path(a, b))
    x, xx = reconstruct(rp, 0.0, 2.0)
    expected = 0.5 * np.outer(a, a) + 0.5 * np.outer(b, b) + np.outer(a, b)
    assert np.allclose(x, a + b)
    assert np.allclose(xx, expected, atol=1e-14)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_empty_and_adjacent():
    a = np.array([1.0, 2.0])
    b = np.array([0.5, -1.0])
    rp = lift_piecewise_linear(_two_step_path(a, b))
    x, xx = reconstruct(rp, 1.0, 1.0)
    assert np.all(x == 0.0) and np.all(xx == 0.0)
    x, xx = reconstruct(rp, 1.0, 2.0)
    assert np.allclose(x, b)
    assert np.allclose(xx, 0.5 * np.outer(b, b))


def test_reconstruct_rejects_off_grid():
    rp = lift_piecewise_linear(_two_step_path([1.0], [2.0]))
    with pytest.raises(OffGridError):
        reconstruct(rp, 0.0, 1.5)


def _chen_by_steps(rp, i, j):
    """Oracle: left-to-right Chen accumulation over steps i..j-1."""
    x = np.zeros(rp.d)
    xx = np.zeros((rp.d, rp.d))
    for k in range(i, j):
        xx += rp.area[k] + np.outer(x, rp.dx[k])
        x += rp.dx[k]
    return x, xx


@pytest.mark.parametrize(
    "model, n_steps",
    [(NoiseModel.fbm(hurst=0.35), 2000), (NoiseModel.stable(alpha=1.5), 10000)],
    ids=["fbm-2000", "stable15-10000"],
)
def test_reconstruct_matches_sequential_chen(model, n_steps):
    grid = make_grid(1.0 / n_steps, 1.0)
    path = sample_path(model, grid, d=2, seed=3)
    rp = lift_piecewise_linear(path)
    # prefix sums lose digits to cancellation in proportion to |x|^2
    levels = path.values - path.values[0]
    tol = 1e-12 * max(1.0, float(np.max(np.sum(levels**2, axis=1))))
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(200):
        i, j = np.sort(rng.integers(0, n_steps + 1, size=2))
        x, xx = reconstruct(rp, grid[i], grid[j])
        x_ref, xx_ref = _chen_by_steps(rp, i, j)
        assert np.max(np.abs(x - x_ref)) <= tol
        assert np.max(np.abs(xx - xx_ref)) <= tol


def test_rough_paths_keep_their_own_prefix_sums():
    a, b = np.array([1.0, 2.0]), np.array([0.5, -1.0])
    first = lift_piecewise_linear(_two_step_path(a, b))
    second = lift_piecewise_linear(_two_step_path(2.0 * a, 2.0 * b))
    x1, xx1 = reconstruct(first, 0.0, 2.0)
    x2, xx2 = reconstruct(second, 0.0, 2.0)
    assert np.allclose(x2, 2.0 * x1) and np.allclose(xx2, 4.0 * xx1)
    # a copy built after the sums were taken computes its own
    scaled = replace(first, dx=3.0 * first.dx)
    x3, xx3 = reconstruct(scaled, 0.0, 2.0)
    assert np.allclose(x3, 3.0 * x1) and np.allclose(xx3, 9.0 * xx1)
    # returned arrays are the caller's: writing to them leaves the path intact
    x1 += 1.0
    xx1 += 1.0
    x, xx = reconstruct(first, 0.0, 2.0)
    assert np.allclose(x, a + b)
    assert np.allclose(xx, 0.5 * np.outer(a, a) + 0.5 * np.outer(b, b) + np.outer(a, b))


# ---------------------------------------------------------------------------
# Chen defect
# ---------------------------------------------------------------------------

def test_chen_defect_zero_on_lifts():
    model = NoiseModel.fbm(hurst=0.35)
    grid = make_grid(1.0 / 128.0, 1.0)
    rng = np.random.Generator(np.random.PCG64(0))
    worst = 0.0
    for seed in range(5):
        rp = lift_piecewise_linear(sample_path(model, grid, d=2, seed=seed))
        for _ in range(100):
            i, u, j = np.sort(rng.integers(0, 129, size=3))
            worst = max(worst, chen_defect(rp, grid[i], grid[u], grid[j]))
    assert worst < 1e-9


def test_chen_defect_detects_violation():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    rp = lift_piecewise_linear(_two_step_path(a, b))
    # claim a zeroed level-2 value over the two-step interval: with
    # nonzero increments the identity must fail strictly
    _, xx_su = reconstruct(rp, 0.0, 1.0)
    _, xx_ut = reconstruct(rp, 1.0, 2.0)
    assert chen_gap(np.zeros((2, 2)), xx_su, xx_ut, a, b) > 0.1


def test_geometricity_symmetric_part():
    model = NoiseModel.fbm(hurst=0.4)
    grid = make_grid(1.0 / 64.0, 1.0)
    rp = lift_piecewise_linear(sample_path(model, grid, d=2, seed=9))
    for (i, j) in [(0, 64), (3, 40), (10, 11)]:
        x, xx = reconstruct(rp, grid[i], grid[j])
        sym = 0.5 * (xx + xx.T)
        assert np.linalg.norm(sym - 0.5 * np.outer(x, x)) < 1e-10


# ---------------------------------------------------------------------------
# regularity estimation
# ---------------------------------------------------------------------------

def test_holder_estimate_linear_ramp():
    est = holder_estimate(_line_path([1.0], n=256))
    assert 0.9 <= est <= 1.1


def test_holder_estimate_fbm_smoke():
    # the estimator is statistical: most seeds land in the window; the
    # full 100-seed calibration runs in the acceptance suite
    model = NoiseModel.fbm(hurst=0.35)
    grid = make_grid(1.0 / 4096.0, 1.0)
    ests = [holder_estimate(sample_path(model, grid, seed=s)) for s in range(10)]
    assert sum(0.25 <= e <= 0.45 for e in ests) >= 8
    bm = NoiseModel.brownian()
    ests = [holder_estimate(sample_path(bm, grid, seed=s)) for s in range(10)]
    assert sum(0.40 <= e <= 0.60 for e in ests) >= 8


def test_holder_estimate_scale_invariance():
    model = NoiseModel.fbm(hurst=0.35)
    grid = make_grid(1.0 / 1024.0, 1.0)
    path = sample_path(model, grid, seed=4)
    scaled = SamplePath(t=path.t, values=10.0 * path.values)
    assert abs(holder_estimate(path) - holder_estimate(scaled)) < 0.02


def test_holder_estimate_degenerate():
    grid = make_grid(1.0 / 128.0, 1.0)
    with pytest.raises(DegeneratePathError):
        holder_estimate(SamplePath(t=grid, values=np.zeros((grid.size, 1))))


# ---------------------------------------------------------------------------
# refinement convergence of the lift
# ---------------------------------------------------------------------------

def test_level2_refinement_rate():
    # lifting a fixed realisation at N and 2N: level 1 agrees exactly on
    # common times; the per-step level-2 defect shrinks like dt^(2H)
    h = 0.35
    model = NoiseModel.fbm(hurst=h)
    n_fine = 4096
    grid = make_grid(1.0 / n_fine, 1.0)
    fine = sample_path(model, grid, d=2, seed=12)

    defects, steps = [], []
    for level in (8, 16, 32):
        # coarse grid with n_fine/level steps; each coarse step spans `level` fine steps
        idx = np.arange(0, n_fine + 1, level)
        coarse = SamplePath(t=fine.t[idx], values=fine.values[idx])
        rp_c = lift_piecewise_linear(coarse)
        rp_f = lift_piecewise_linear(fine)
        worst = 0.0
        for k in range(coarse.n_steps):
            x_f, xx_f = reconstruct(rp_f, fine.t[k * level], fine.t[(k + 1) * level])
            assert np.allclose(x_f, rp_c.dx[k], atol=1e-12)  # level 1 exact
            worst = max(worst, float(np.linalg.norm(xx_f - rp_c.area[k])))
        defects.append(worst)
        steps.append(level / n_fine)
    rate = np.polyfit(np.log(steps), np.log(defects), 1)[0]
    assert abs(rate - 2.0 * h) <= 0.3


# ---------------------------------------------------------------------------
# admissibility predicate and export
# ---------------------------------------------------------------------------

def test_rough_integral_admissible():
    assert rough_integral_admissible(1.0, 0.35)
    assert not rough_integral_admissible(1.0, 0.2)
    assert not rough_integral_admissible(0.0, 0.5)


def test_lift_csv_header():
    import io

    rp = lift_piecewise_linear(_two_step_path([1.0, 2.0], [3.0, 4.0]))
    buf = io.StringIO()
    lift_to_csv(rp, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "k,dx1,dx2,xx11,xx12,xx21,xx22"
    assert len(lines) == 3


def test_path_and_lift_csv_golden_bytes():
    import io

    from roughlq.noise import path_to_csv

    path = SamplePath(
        t=np.array([0.0, 0.1, 0.2, 0.30000000000000004]),
        values=np.array([[0.0, 0.0], [1 / 3, -2.5], [0.1 + 0.2, 1e-20], [-7.0, 12345.678]]),
    )
    buf = io.StringIO()
    path_to_csv(path, buf)
    assert buf.getvalue() == (
        "t,v1,v2\n"
        "0,0,0\n"
        "0.10000000000000001,0.33333333333333331,-2.5\n"
        "0.20000000000000001,0.30000000000000004,9.9999999999999995e-21\n"
        "0.30000000000000004,-7,12345.678\n"
    )
    buf = io.StringIO()
    lift_to_csv(lift_piecewise_linear(path), buf)
    assert buf.getvalue() == (
        "k,dx1,dx2,xx11,xx12,xx21,xx22\n"
        "0,0.33333333333333331,-2.5,0.055555555555555552,-0.41666666666666663,"
        "-0.41666666666666663,3.125\n"
        "1,-0.03333333333333327,2.5,0.0005555555555555535,-0.041666666666666588,"
        "-0.041666666666666588,3.125\n"
        "2,-7.2999999999999998,12345.678,26.645,-45061.724699999999,"
        "-45061.724699999999,76207882.639842004\n"
    )
