import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_
from scipy import integrate

import levymult as lm
from levymult.exceptions import InvalidInputError, SingularPointError
from levymult.grid import GridFunction
from levymult import kernel as kmod
from levymult.kernel import kernel_weight_table
from levymult.multiplier import apply_multiplier

PI2 = math.pi ** 2
K12 = (3 - 5 * math.log(2)) / (9 * PI2)  # K(1, 2)
L = 2 * np.pi


# ---------------------------------------------------------------------------
# Cauchy density
# ---------------------------------------------------------------------------

def test_density_at_origin():
    assert lm.cauchy_density(1.0, 0.0) == pytest.approx(1 / np.pi, abs=1e-16)


def test_density_requires_positive_t():
    with pytest.raises(InvalidInputError):
        lm.cauchy_density(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        lm.cauchy_density_dt(-1.0, 1.0)


def test_density_dt_vanishes_at_t_equals_x():
    assert lm.cauchy_density_dt(2.0, 2.0) == 0.0


def test_density_dt_fd_oracle():
    for (t, x) in ((0.5, 1.3), (2.0, 0.1), (1.0, 3.0)):
        h = 1e-6
        fd = (lm.cauchy_density(t + h, x) - lm.cauchy_density(t - h, x)) / (2 * h)
        assert lm.cauchy_density_dt(t, x) == pytest.approx(fd, abs=1e-8)


def test_density_total_mass_quadrature():
    val, _ = integrate.quad(lambda x: lm.cauchy_density(1.0, x), -1e4, 1e4,
                            limit=200)
    assert val == pytest.approx(1.0, abs=1e-4)  # tail is 2/(pi 1e4)


def test_density_scaling():
    for x in (0.0, 0.7, -2.0):
        assert lm.cauchy_density(2.0, x) == pytest.approx(
            0.5 * lm.cauchy_density(1.0, x / 2.0), abs=1e-16)


# ---------------------------------------------------------------------------
# closed form vs integral oracle
# ---------------------------------------------------------------------------

def test_pinned_value_k12():
    assert lm.kernel_closed_form(1.0, 2.0) == pytest.approx(K12, abs=1e-16)
    assert lm.kernel_numeric(1.0, 2.0) == pytest.approx(K12, rel=1e-10)


def test_pinned_value_k_1_half():
    target = (-0.75 + 1.25 * math.log(2)) / (PI2 * 0.5625)
    assert target > 0
    assert lm.kernel_closed_form(1.0, 0.5) == pytest.approx(target, abs=1e-16)
    assert lm.kernel_numeric(1.0, 0.5) == pytest.approx(target, rel=1e-10)


def test_swap_antisymmetry_and_signs():
    assert lm.kernel_closed_form(1.0, 2.0) < 0
    assert lm.kernel_closed_form(2.0, 1.0) > 0
    rng = np.random.default_rng(10)
    for _ in range(20):
        x, y = rng.uniform(0.1, 5.0, size=2)
        assert lm.kernel_closed_form(x, y) == pytest.approx(
            -lm.kernel_closed_form(y, x), rel=1e-12, abs=1e-300)


def test_homogeneity_pinned():
    assert lm.kernel_closed_form(2.0, 4.0) == pytest.approx(K12 / 4, abs=1e-16)


@settings(max_examples=30, deadline=None)
@given(st_.floats(0.05, 20.0), st_.floats(0.05, 20.0),
       st_.sampled_from([2.0, 10.0, 1 / 3]))
@example(0.05, 0.05000000000000001, 10.0)
def test_homogeneity_random(x, y, h):
    a = lm.kernel_closed_form(h * x, h * y) * h * h
    b = lm.kernel_closed_form(x, y)
    # h x and h y round separately, so near the diagonal, where K is odd and
    # O(1/r^2) steep, the scaled point sits a few ulps off in q and K moves
    # by up to its roundoff floor 4 eps / (3 pi^2 (x^2 + y^2))
    floor = 4 * np.finfo(float).eps / (3 * PI2 * (x * x + y * y))
    assert a == pytest.approx(b, rel=1e-12, abs=floor)
    assert lm.kernel_closed_form(x, x) == 0.0


def test_closed_vs_numeric_on_log_grid():
    # 20 x 20 log-spaced sample avoiding the singular lines
    vals = np.geomspace(0.1, 10.0, 20)
    worst = 0.0
    for x in vals:
        for y in vals:
            if abs(x - y) < 1e-3 * max(x, y):
                continue
            c = lm.kernel_closed_form(x, y)
            q = lm.kernel_numeric(x, y, tol=1e-12)
            worst = max(worst, abs(c - q) / max(abs(c), 1e-300))
    assert worst < 1e-8


@pytest.mark.parametrize("x, y", [(1.0, 1e-8), (1e-8, 1.0), (-2.0, 3e-9),
                                  (1.0, 1e-9), (1.0, 1e-12)])
def test_closed_form_near_axes(x, y):
    # where 1 - |q| < 1e-10, atanh(q) from the rounded q cancelled: (1, 1e-8)
    # read 1.7949 against 1.7651, and (1, 1e-9) overflowed to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = lm.kernel_closed_form(x, y)
    assert math.isfinite(c)
    assert c == pytest.approx(lm.kernel_numeric(x, y, tol=1e-11), rel=1e-9)


@pytest.mark.parametrize("x, y", [(1.0, 1e-5), (1.0, 1.5e-5), (1.0, 2e-5),
                                  (1.0, 5e-5), (1.0, 1e-4), (1.0, 7e-4),
                                  (1.0, 1e-3), (1.0, 3e-3), (3.7, 2e-4)])
def test_closed_form_close_to_axes_matches_oracle(x, y):
    # with the log branch only below 1 - |q| = 1e-10, (1, 1e-5)..(1, 2e-5)
    # read 4.2e-9 relative off the oracle; the worst point now reads 4.8e-13
    c = lm.kernel_closed_form(x, y)
    assert abs(c - lm.kernel_numeric(x, y, tol=1e-12)) <= 1e-11 * abs(c)


def test_diagonal_series_limit():
    # K(1, 1+h) ~ -h / (6 pi^2) with the ratio tending to 1
    prev_gap = None
    for h in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        ratio = lm.kernel_closed_form(1.0, 1.0 + h) / (-h / (6 * PI2))
        gap = abs(ratio - 1.0)
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 1e-5
    assert lm.kernel_closed_form(1.0, 1.0) == 0.0


def test_band_matches_numeric_inside():
    # the series branch agrees with the quadrature oracle inside the band
    for yy in (1.0001, 0.9995, 1.005):
        c = lm.kernel_closed_form(1.0, yy)
        q = lm.kernel_numeric(1.0, yy, tol=1e-13)
        assert c == pytest.approx(q, rel=5e-7, abs=1e-14)


def test_numeric_scaling_identity():
    a = lm.kernel_numeric(3 * 1.0, 3 * 2.0)
    assert a == pytest.approx(lm.kernel_numeric(1.0, 2.0) / 9.0, rel=1e-8)


def test_singular_points_raise():
    with pytest.raises(SingularPointError):
        lm.kernel_closed_form(0.0, 0.0)
    with pytest.raises(SingularPointError):
        lm.kernel_closed_form(0.0, 1.0)
    with pytest.raises(SingularPointError):
        lm.kernel_numeric(0.0, 0.0)


def test_closed_form_broadcast_matches_meshgrid():
    x = np.linspace(-3.0, 2.9, 37) + 0.013
    y = np.linspace(-1.7, 4.1, 23) - 0.007
    X, Y = np.meshgrid(x, y, indexing="ij")
    full = lm.kernel_closed_form(X, Y)
    assert lm.kernel_closed_form(x[:, None], y[None, :]).tobytes() == full.tobytes()
    assert lm.kernel_closed_form(x[:, None], Y).tobytes() == full.tobytes()
    assert isinstance(lm.kernel_closed_form(1.0, 2.0), float)


def test_singular_points_raise_when_broadcast():
    with pytest.raises(SingularPointError, match="origin"):
        lm.kernel_closed_form(np.zeros((3, 1)), np.array([[0.0, 1.0]]))
    with pytest.raises(SingularPointError, match="axes"):
        lm.kernel_closed_form(np.array([[0.0], [1.0]]), np.ones((1, 4)))
    with pytest.raises(SingularPointError, match="axes"):
        lm.kernel_closed_form(np.ones(4), 0.0)
    with pytest.raises(SingularPointError, match="axes"):
        lm.kernel_closed_form(0.0, np.ones(4))


def test_numeric_unreachable_tolerance_carries_estimate():
    from levymult.exceptions import ConvergenceError

    with pytest.raises(ConvergenceError) as exc:
        lm.kernel_numeric(1.0, 2.0, tol=1e-30)
    assert exc.value.estimate == pytest.approx(K12, rel=1e-8)
    assert exc.value.error_bound > 1e-30


# ---------------------------------------------------------------------------
# truncated window
# ---------------------------------------------------------------------------

def test_truncated_converges_to_closed_form():
    prev = None
    for (eps, big_t) in ((1e-1, 1e1), (1e-2, 1e2), (1e-3, 1e3), (1e-4, 1e4)):
        err = abs(lm.kernel_truncated(eps, big_t, 1.0, 2.0) - K12)
        if prev is not None:
            assert err < prev
        prev = err
    assert prev < 1e-8


def test_truncated_degenerate_and_errors():
    assert lm.kernel_truncated(1.0, 1.0, 1.0, 2.0) == 0.0
    with pytest.raises(InvalidInputError):
        lm.kernel_truncated(2.0, 1.0, 1.0, 2.0)


def test_truncated_additivity():
    tol = 1e-11
    whole = lm.kernel_truncated(0.1, 5.0, 1.0, 2.0, tol=tol)
    split = (lm.kernel_truncated(0.1, 1.0, 1.0, 2.0, tol=tol)
             + lm.kernel_truncated(1.0, 5.0, 1.0, 2.0, tol=tol))
    assert whole == pytest.approx(split, abs=2 * tol)


# ---------------------------------------------------------------------------
# annular cancellation
# ---------------------------------------------------------------------------

def annular_integral(a, b, n_theta=2048, n_r=64):
    """Integral of K over the annulus a < |(x, y)| < b: midpoint rule in the
    angle, Gauss-Legendre in the radius."""
    theta = (np.arange(n_theta) + 0.5) * (2 * np.pi / n_theta)
    nodes, weights = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    vals = np.array([
        lm.kernel_closed_form(rr * np.cos(theta), rr * np.sin(theta)).sum()
        * (2 * np.pi / n_theta) * rr
        for rr in r])
    return float((weights * vals).sum() * 0.5 * (b - a))


def test_annular_cancellation():
    # the swap antisymmetry makes every circle mean-free, so the integral
    # over any annulus vanishes
    for (a, b) in ((0.5, 2.0), (1.0, 3.0), (0.1, 0.2)):
        assert abs(annular_integral(a, b)) < 1e-12


# ---------------------------------------------------------------------------
# discrete principal value vs spectral application
# ---------------------------------------------------------------------------

def smooth_test_function(n):
    h = L / n
    x = np.arange(n) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    arr = np.exp(-((X - 2.5) ** 2 + (Y - 3.5) ** 2) / (2 * 0.5 ** 2))
    arr -= arr.mean()
    return GridFunction((n, n), (L, L), arr)


def rel_l2(a, b):
    return np.linalg.norm(a.samples - b.samples) / np.linalg.norm(b.samples)


def test_pv_zero_function():
    f = GridFunction((64, 64), (L, L), np.zeros((64, 64)))
    out = lm.pv_convolve(f, rho=2 * L / 64)
    assert np.abs(out.samples).max() == 0.0


def test_pv_requires_2d_and_rho():
    f1 = GridFunction((64,), (L,), np.zeros(64))
    with pytest.raises(InvalidInputError):
        lm.pv_convolve(f1, rho=0.2)
    f2 = smooth_test_function(64)
    with pytest.raises(InvalidInputError):
        lm.pv_convolve(f2, rho=0.5 * L / 64)


def test_pv_single_wave_matches_symbol():
    n = 128
    h = L / n
    x = np.arange(n) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    f = GridFunction((n, n), (L, L), np.cos(5 * X))
    out = lm.pv_convolve(f, rho=2 * h)
    # M = 1 on axis-1 waves, so the output should be close to f
    err = np.linalg.norm(out.samples - f.samples) / np.linalg.norm(f.samples)
    assert err < 6e-2


def test_pv_matches_spectral_application():
    n = 128
    f = smooth_test_function(n)
    target = apply_multiplier(f, lm.PowerSymbol(1.0, 1, 2))
    out = lm.pv_convolve(f, rho=2 * L / n)
    assert rel_l2(out, target) < 5e-2


def test_pv_two_orientations_sum_to_identity():
    n = 64
    f = smooth_test_function(n)
    a = lm.pv_convolve(f, rho=2 * L / n, orientation=1)
    b = lm.pv_convolve(f, rho=2 * L / n, orientation=2)
    total = a.samples + b.samples
    # mean-zero input: the two orientations add to the identity off the mean
    assert np.abs(total - f.samples).max() < 1e-10


def test_pv_swapped_table_is_negated():
    # orientation 2 needs no table of its own: K(y, x) = -K(x, y) bit for
    # bit, also near the axes and the diagonal, so its image loop is
    # exactly minus orientation 1's
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-8, 8, 4000), [1.0, 1e-9, 2e-5, 0.3]])
    y = np.concatenate([rng.uniform(-8, 8, 4000),
                        [1e-8, 1.0, 1.0, 0.30000000000000004]])
    assert np.array_equal(lm.kernel_closed_form(y, x),
                          -lm.kernel_closed_form(x, y))
    W = reference_weight_table((32, 32), (L, L), 2 * L / 32, 1, 1)
    W2 = reference_weight_table((32, 32), (L, L), 2 * L / 32, 1, 2)
    assert np.array_equal(W2, -W)


@pytest.mark.parametrize("orientation", [0, 3, 1.5])
def test_pv_rejects_bad_orientation(orientation):
    f = smooth_test_function(16)
    with pytest.raises(InvalidInputError):
        lm.pv_convolve(f, rho=2 * L / 16, orientation=orientation)


def reference_weight_table(sizes, period, rho, images, orientation):
    """The plain loop over images on the full meshgrid: the table's oracle."""
    n1, n2 = sizes
    L1, L2 = period
    h1, h2 = L1 / n1, L2 / n2
    X, Y = np.meshgrid(np.fft.fftfreq(n1, d=1.0 / n1) * h1,
                       np.fft.fftfreq(n2, d=1.0 / n2) * h2, indexing="ij")
    W = np.zeros((n1, n2))
    for m1 in range(-images, images + 1):
        for m2 in range(-images, images + 1):
            XX, YY = X + m1 * L1, Y + m2 * L2
            XX = np.where(XX == 0.0, h1 / (2.0 * math.e), XX)
            YY = np.where(YY == 0.0, h2 / (2.0 * math.e), YY)
            if orientation == 1:
                W += lm.kernel_closed_form(XX, YY)
            else:
                W += lm.kernel_closed_form(YY, XX)
    W *= h1 * h2
    W[X * X + Y * Y <= rho * rho] = 0.0
    return W


TABLE_CASES = (
    [(sizes, (L, L), 2.5 * L / max(sizes), images)
     for sizes in ((64, 64), (63, 65), (96, 128)) for images in range(4)]
    + [((96, 128), (3.0, 5.0), 0.2, 2), ((63, 65), (3.0, 5.0), 0.4, 3),
       ((5, 2), (1.0, 1.0), 0.0, 1), ((1, 1), (1.0, 1.0), 0.0, 2)])


def table_error(W, sizes, period, rho, images, orientation=1):
    """max|W - loop| / max|loop|, W taken as orientation 1's table."""
    ref = reference_weight_table(sizes, period, rho, images, orientation)
    err = np.abs((-W if orientation == 2 else W) - ref).max()
    return err / np.abs(ref).max() if err else 0.0


@pytest.mark.parametrize("orientation", [1, 2])
@pytest.mark.parametrize("sizes, period, rho, images", TABLE_CASES)
def test_weight_table_bitwise_equals_image_loop(sizes, period, rho, images,
                                                orientation):
    # the Chebyshev image sums leave roundoff and K's branch switch near
    # the axes: 6.4e-14 of max|W| at worst on these cases
    W = kernel_weight_table(sizes, period, rho, images)
    assert table_error(W, sizes, period, rho, images, orientation) <= 1e-12


def test_weight_table_rho_removes_cells():
    # the cutoff in the oracle cases removes the 21 cells within 2.5 h
    W = kernel_weight_table((64, 64), (L, L), 2.5 * L / 64, 2)
    k = np.fft.fftfreq(64, d=1.0 / 64)
    inside = np.add.outer(k * k, k * k) <= 6.25
    assert inside.sum() == 21
    assert np.all(W[inside] == 0.0)
    assert W[3, 0] != 0.0 and W[0, -3] != 0.0


def test_weight_table_evaluates_each_image_value_once(monkeypatch):
    # K depends on x^2 and y^2, so a repeated (|x|, |y|) repeats a value
    seen = []
    inner = kmod.kernel_closed_form

    def recording(x, y):
        seen.append(np.stack([a.ravel() for a in
                              np.broadcast_arrays(np.abs(x), np.abs(y))], 1))
        return inner(x, y)

    monkeypatch.setattr(kmod, "kernel_closed_form", recording)
    for sizes, images in (((64, 64), 3), ((63, 65), 2), ((96, 128), 1),
                          ((16, 16), 0), ((512, 512), None)):
        seen.clear()
        kernel_weight_table(sizes, (L, L), 0.3, images)
        points = np.concatenate(seen)
        assert len(np.unique(points, axis=0)) == len(points)
        assert len(points) == kmod.weight_table_meta(sizes, images)["kernel_evals"]
    # centre, 144 off-axis images, 2 x 12 axis images at 512^2
    N = kmod._CHEB_NODES
    assert len(points) == 257 ** 2 + 144 * N ** 2 + 2 * 12 * 257 * N


def _drop_off_axis_image(x, y, out):
    hit = out.ndim == 4  # (image m1, image m2, node, node)
    if hit:
        out[0, 0] = 0.0  # image (-images, -images)
    return hit


def _drop_y_axis_images(x, y, out):
    hit = np.ndim(y) == 3  # (image m2, offset, node): the m1 = 0 images
    if hit:
        out[...] = 0.0
    return hit


@pytest.mark.parametrize("defect", ["axis_safe_doubled", "off_axis_image",
                                    "axis_orientation", "interval_0_L"])
def test_weight_table_defect_breaks_the_oracle_comparison(monkeypatch,
                                                          defect):
    case = ((63, 65), (3.0, 5.0), 0.4, 3)
    fired = []
    if defect == "axis_safe_doubled":
        safe = kmod._axis_safe
        monkeypatch.setattr(kmod, "_axis_safe",
                            lambda v, cell: safe(v, 2.0 * cell))
    elif defect == "interval_0_L":
        cheb = kmod.chebyshev
        monkeypatch.setattr(kmod, "chebyshev",
                            lambda points, a, n: cheb(points, 2.0 * a, n))
    else:
        inner = kmod.kernel_closed_form
        drop = (_drop_off_axis_image if defect == "off_axis_image"
                else _drop_y_axis_images)

        def mutated(x, y):
            out = inner(x, y)
            fired.append(drop(x, y, out))
            return out

        monkeypatch.setattr(kmod, "kernel_closed_form", mutated)
    W = kernel_weight_table(*case)
    # a mutated evaluation hits exactly one of the table's calls
    assert fired.count(True) == (1 if fired else 0)
    assert table_error(W, *case) > 1e-12


def test_chebyshev_interpolates_at_and_between_nodes():
    N = kmod._CHEB_NODES
    nodes, B = kmod.chebyshev(np.array([0.0, 0.7, 1.5]), 1.5, N)
    assert np.all((nodes > 0) & (nodes < 1.5))
    # degree N - 1 is reproduced; a node reads its own value
    poly = np.polynomial.Polynomial(np.linspace(1, 2, N))
    assert np.allclose(B @ poly(nodes), poly([0.0, 0.7, 1.5]), rtol=1e-12)
    at_nodes = kmod.chebyshev(nodes[[3, 0]], 1.5, N)[1]
    assert np.array_equal(at_nodes, np.eye(N)[[3, 0]])


def test_weight_table_peak_memory():
    tracemalloc.start()
    try:
        kernel_weight_table((512, 512), (L, L), 2 * L / 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.parametrize("change", [
    {"images": -1}, {"sizes": (8, 8, 8)}, {"period": (L, L, L)},
    {"rho": -0.5}, {"rho": math.nan}])
def test_weight_table_rejects_bad_inputs(change):
    args = {"sizes": (8, 8), "period": (L, L), "rho": 0.5, "images": 1}
    args.update(change)
    with pytest.raises(InvalidInputError):
        kernel_weight_table(**args)


@pytest.mark.parametrize("images", [3.5, 0.5, True, False, math.inf,
                                    math.nan, "3"])
def test_weight_table_rejects_nonintegral_images(images):
    # a half-integer used to build the image range -3.5 .. 3.5 and shift
    # every periodic image by half a period
    with pytest.raises(InvalidInputError):
        kernel_weight_table((16, 16), (L, L), 0.5, images)


@pytest.mark.parametrize("images", [3, 3.0, np.int64(3), np.float64(3.0)])
def test_weight_table_integral_images_any_type(images):
    W = kernel_weight_table((16, 16), (L, L), 0.5, images)
    assert W.tobytes() == kernel_weight_table((16, 16), (L, L), 0.5,
                                              3).tobytes()
    assert table_error(W, (16, 16), (L, L), 0.5, 3) <= 1e-12


def test_pv_refinement_improves():
    errs = []
    for n in (64, 128, 256):
        f = smooth_test_function(n)
        target = apply_multiplier(f, lm.PowerSymbol(1.0, 1, 2))
        out = lm.pv_convolve(f, rho=2 * L / n)
        errs.append(rel_l2(out, target))
    assert errs[2] < errs[1] < errs[0]
