"""The planar singular kernel of the axis power symbol at alpha = 1.

The one-dimensional Cauchy semigroup p_t(x) = t / (pi (t^2 + x^2)) generates,
through the time integral

    K(x, y) = integral_0^inf  (d/dt p_t)(x) p_t(y) dt
            = (-x^2 + y^2 + x^2 log|x/y| - y^2 log|y/x|) / (pi^2 (x^2 - y^2)^2),

a -2-homogeneous kernel, antisymmetric under the swap (x, y) -> (y, x) and
vanishing on the diagonal.  Its distributional Fourier transform (with the
e^{+i xi.x} transform) is -M(xi) for M(xi) = |xi_1| / (|xi_1| + |xi_2|),
carried as  -M = (1/2 - M) + (-1/2):  a mean-zero principal-value part plus
a -1/2 point mass at the origin.  Consequently the operator with symbol M is

    (M f)(x) = f(x)/2 - p.v. integral K(y) f(x - y) dy,

which is what :func:`pv_convolve` discretises; the swap identity K(y, x) =
-K(x, y) makes the two axis orientations sum to the identity.

Its weights (:func:`kernel_weight_table`) sample the centre image of the
cell directly and interpolate the other periodic images' sums from Chebyshev
nodes, within 1e-12 of the largest weight of the plain sum over images.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from .exceptions import ConvergenceError, InvalidInputError, SingularPointError
from .grid import GridFunction
from .measures import _int
from .multiplier import _Spectra

__all__ = [
    "cauchy_density",
    "cauchy_density_dt",
    "kernel_closed_form",
    "kernel_numeric",
    "kernel_truncated",
    "kernel_weight_table",
    "pv_convolve",
]

PI2 = math.pi ** 2

# (atanh(q) - q)/q^2 = sum_{m >= 1} q^(2m-1)/(2m+1); 26 terms cover |q| <= 1/2
# to below machine precision, and the closed form is stable for |q| > 1/2
_G_TERMS = 26
_Q_SERIES = 0.5
# where 1 - |q| is below this, 1 +- q cancels in atanh(q): the rounding of q
# grows by 1/(1 - |q|), costing 4e-9 relative at 1 - |q| ~ 1e-10 and about
# 5e-13 at 1e-6; there atanh(q) is ln|x| - ln|y| from x^2 and y^2 instead
_Q_AXIS = 1e-6

# Chebyshev nodes per axis for the smooth image sums of kernel_weight_table;
# 16 leaves ~6e-13 of max|W| on a (63, 65) table, 20 stays below 7e-14
_CHEB_NODES = 20


def cauchy_density(t: float, x) -> np.ndarray | float:
    """p_t(x) = t / (pi (t^2 + x^2)), the 1-stable transition density."""
    if not t > 0:
        raise InvalidInputError("t must be positive")
    x = np.asarray(x, dtype=float)
    out = t / (math.pi * (t * t + x * x))
    return float(out) if out.ndim == 0 else out


def cauchy_density_dt(t: float, x) -> np.ndarray | float:
    """d/dt p_t(x) = (x^2 - t^2) / (pi (t^2 + x^2)^2)."""
    if not t > 0:
        raise InvalidInputError("t must be positive")
    x = np.asarray(x, dtype=float)
    out = (x * x - t * t) / (math.pi * (t * t + x * x) ** 2)
    return float(out) if out.ndim == 0 else out


def _g_of_q(q, x2, y2):
    """(atanh(q) - q) / q^2 for q = (x2 - y2)/(x2 + y2), odd in q.

    The direct expression cancels badly for small q, but there the odd
    series q/3 + q^3/5 + q^5/7 + ... converges geometrically, so the two
    branches overlap with uniform near-machine accuracy.  Near |q| = 1 (the
    coordinate axes) the rounded q loses atanh(q) = (ln x2 - ln y2)/2, so
    that is taken from x2 and y2.
    """
    q = np.asarray(q, dtype=float)
    out = np.empty_like(q)
    small = np.abs(q) <= _Q_SERIES
    qs = q[small]
    q2 = qs * qs
    acc = np.full_like(qs, 1.0 / (2 * _G_TERMS + 1))
    for m in range(_G_TERMS - 1, 0, -1):
        acc *= q2
        acc += 1.0 / (2 * m + 1)
    out[small] = acc * qs
    axis = 1.0 - np.abs(q) < _Q_AXIS
    big = ~small & ~axis
    qb = q[big]
    out[big] = (np.arctanh(qb) - qb) / (qb * qb)
    qa = q[axis]
    atanh = 0.5 * (np.log(np.broadcast_to(x2, q.shape)[axis])
                   - np.log(np.broadcast_to(y2, q.shape)[axis]))
    out[axis] = (atanh - qa) / (qa * qa)
    return out


def kernel_closed_form(x, y):
    """K(x, y) in closed form; array-valued over broadcast inputs.

    With S = x^2 + y^2 and q = (x^2 - y^2)/S the kernel is exactly
    (atanh(q) - q) / (pi^2 S q^2), evaluated through a cancellation-free
    branch pair; the swap antisymmetry and the vanishing on the diagonal
    are automatic (the bracket is odd in q).  The kernel is log-singular on
    the coordinate axes and critically singular at the origin; evaluation
    exactly on those lines raises.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x2, y2 = x * x, y * y
    s = x2 + y2
    if np.any(s == 0):
        raise SingularPointError("K is singular at the origin")
    if s.size and (np.any(x2 == 0) or np.any(y2 == 0)):
        raise SingularPointError("K is log-singular on the coordinate axes")
    q = (x2 - y2) / s
    out = _g_of_q(q, x2, y2) / (PI2 * s)
    return float(out) if out.ndim == 0 else out


def _integrand(t, x2, y2):
    return t * (x2 - t * t) / ((t * t + x2) ** 2 * (t * t + y2))


def kernel_numeric(x: float, y: float, tol: float = 1e-10) -> float:
    """K(x, y) by adaptive quadrature of the semigroup time integral.

    Rescales to max(|x|, |y|) = 1 (the kernel is -2-homogeneous), splits at
    the sign change t = |x| and at t = |y|, and closes the range with the
    asymptotic tail - independent of the closed form, used as its oracle.
    """
    if x == 0.0 and y == 0.0:
        raise SingularPointError("K is singular at the origin")
    s = max(abs(x), abs(y))
    xb, yb = abs(x) / s, abs(y) / s
    x2, y2 = xb * xb, yb * yb
    big = 1e3
    val, err = integrate.quad(
        _integrand, 0.0, big, args=(x2, y2),
        points=[xb, yb, 1.0], limit=400, epsabs=tol * 0.5, epsrel=1e-13)
    # integrand = -t^-3 (1 - (3 x^2 + y^2)/t^2 + O(t^-4)) for large t
    tail = -1.0 / (2 * big * big) + (3 * x2 + y2) / (4 * big ** 4)
    if err > tol:
        raise ConvergenceError(
            f"kernel quadrature reached {err:.2e} > tol {tol:.2e}",
            estimate=(val + tail) / (PI2 * s * s), error_bound=err)
    return (val + tail) / (PI2 * s * s)


def kernel_truncated(eps: float, T: float, x: float, y: float,
                     tol: float = 1e-10) -> float:
    """Finite-window kernel: integral_eps^T (d/dt p_t)(x) p_t(y) dt."""
    if eps < 0 or T < eps:
        raise InvalidInputError("need 0 <= eps <= T")
    if eps == T:
        return 0.0
    pts = [p for p in sorted({abs(x), abs(y)}) if eps < p < T]
    val, err = integrate.quad(
        lambda t: cauchy_density_dt(t, x) * cauchy_density(t, y),
        eps, T, points=pts or None, limit=400, epsabs=tol * 0.5, epsrel=1e-13)
    if err > tol:
        raise ConvergenceError(
            f"truncated-kernel quadrature reached {err:.2e} > tol {tol:.2e}",
            estimate=val, error_bound=err)
    return val


# ---------------------------------------------------------------------------
# discrete principal-value convolution
# ---------------------------------------------------------------------------

def _axis_safe(values, cell):
    """Replace exact zeros by the transverse offset cell/(2e).

    The log singularity along an axis is integrable; sampling the cell at
    that offset reproduces the cell average of the log profile to leading
    order, which is what a midpoint rule should carry there.
    """
    off = cell / (2.0 * math.e)
    return np.where(values == 0.0, off, values)


def _auto_images(n: int) -> int:
    if n <= 128:
        return 3
    if n <= 256:
        return 4
    return 6


def _resolve_images(sizes, images):
    """The number of periodic images per side, ``_auto_images`` if None."""
    if images is None:
        return _auto_images(max(sizes))
    try:
        if (count := _int(images)) >= 0:
            return count
    except ValueError:
        pass
    raise InvalidInputError(f"images must be a nonnegative integer, got {images!r}")


def _chebyshev(points, a):
    """Chebyshev nodes of the first kind on [0, a], and the barycentric
    matrix B taking values at the nodes to the interpolant at ``points``."""
    k = np.arange(_CHEB_NODES)
    theta = (2 * k + 1) * (math.pi / (2 * _CHEB_NODES))
    nodes = 0.5 * a * (1.0 + np.cos(theta))
    diff = points[:, None] - nodes
    hit = diff == 0.0
    B = (-1.0) ** k * np.sin(theta) / np.where(hit, 1.0, diff)
    B /= B.sum(axis=1, keepdims=True)
    on_node = hit.any(axis=1)
    B[on_node] = hit[on_node]
    return nodes, B


def weight_table_meta(sizes, images=None) -> dict:
    """What ``kernel_weight_table`` resolves and spends on a grid of ``sizes``:
    images per side, Chebyshev nodes per axis, kernel evaluations and the
    table's bytes."""
    images = _resolve_images(sizes, images)
    h1, h2 = (n // 2 + 1 for n in sizes)
    k = 2 * images * _CHEB_NODES  # nodes of all nonzero images, per axis
    return {"images": images, "chebyshev_nodes": _CHEB_NODES,
            "kernel_evals": h1 * h2 + k * k + k * (h1 + h2),
            "table_bytes": 8 * sizes[0] * sizes[1]}


def kernel_weight_table(sizes, period, rho: float,
                        images: int | None = None) -> np.ndarray:
    """Midpoint-sampled, periodised kernel weights with the cutoff ball removed.

    Entry (i, j) approximates cellarea * sum_images K(offset + m L) over the
    images |m1|, |m2| <= ``images``, the cyclic convolution weights of the
    p.v. sum; offsets inside |y| <= rho are zeroed (symmetric exclusion).
    ``images`` grows with resolution by default so the periodisation tail
    refines together with the mesh.

    K depends on x^2 and y^2 and the image set is symmetric, so W is even in
    each index: it is built on the quadrant of offsets 0..n//2 (taken as
    |offset|) and read back through min(i, n - i).  On that quadrant it is
    the sum of three parts:

    - the centre image (0, 0), sampled directly, exact zeros replaced by
      ``_axis_safe``;
    - the off-axis images (m1 != 0 and m2 != 0), summed on a tensor grid of
      ``_CHEB_NODES`` Chebyshev nodes per axis on [0, L1/2] x [0, L2/2] and
      interpolated to the offsets.  The sum is analytic there, its nearest
      singular line being x = L1 (or y = L2), so the interpolant converges
      geometrically (Bernstein ellipse of radius 3 + sqrt(8));
    - the axis strips (m1 = 0, m2 != 0 and the swap), sampled exactly in the
      log-singular variable and interpolated in the other.

    The table agrees with the plain loop over all images to within 1e-12
    of max|W| (6.4e-14 at worst on the tested tables); what remains is
    roundoff and K's own branch switch near the axes.
    """
    if len(sizes) != 2 or len(period) != 2:
        raise InvalidInputError("kernel_weight_table needs 2-d sizes and period")
    if not rho >= 0:
        raise InvalidInputError("cutoff radius must be nonnegative")
    images = _resolve_images(sizes, images)
    n1, n2 = sizes
    L1, L2 = period
    h1, h2 = L1 / n1, L2 / n2
    off1 = np.fft.fftfreq(n1, d=1.0 / n1) * h1
    off2 = np.fft.fftfreq(n2, d=1.0 / n2) * h2
    x, y = np.abs(off1[: n1 // 2 + 1]), np.abs(off2[: n2 // 2 + 1])
    cx, Bx = _chebyshev(x, L1 / 2)
    cy, By = _chebyshev(y, L2 / 2)
    m = np.concatenate([np.arange(-images, 0), np.arange(1, images + 1)])
    # the nodes of every nonzero image, one row per image
    mx, my = cx + (m * L1)[:, None], cy + (m * L2)[:, None]
    x, y = _axis_safe(x, h1), _axis_safe(y, h2)
    centre = kernel_closed_form(x[:, None], y)
    off_axis = kernel_closed_form(mx[:, None, :, None],
                                  my[None, :, None, :]).sum(axis=(0, 1))
    # images on the x axis (m2 = 0) and on the y axis (m1 = 0)
    axis_x = kernel_closed_form(mx[:, :, None], y).sum(axis=0)
    axis_y = kernel_closed_form(x[:, None], my[:, None, :]).sum(axis=0)
    # one rank-2N product, by einsum's own loop: on two vCPUs, OpenBLAS's
    # threaded gemm took 16 ms for a 257 x 20 x 257 product, einsum 0.5 ms
    Q = centre + np.einsum("ik,kj->ij", np.hstack([Bx, axis_y]),
                           np.vstack([off_axis @ By.T + axis_x, By.T]))
    Q *= h1 * h2
    i1, i2 = np.arange(n1), np.arange(n2)
    W = Q[np.minimum(i1, n1 - i1)[:, None], np.minimum(i2, n2 - i2)]
    W[np.add.outer(off1 * off1, off2 * off2) <= rho * rho] = 0.0
    return W


def pv_convolve(f: GridFunction, rho: float, orientation: int = 1,
                images: int | None = None) -> GridFunction:
    """Apply the axis multiplier through its kernel: f/2 minus the p.v. sum.

    The cyclic convolution sum_{|y| > rho} K(y) f(x - y) h^2 is evaluated by
    FFT (exactly the same finite sum, up to roundoff); the f/2 term carries
    the kernel's point mass at the origin, which no shrinking-ball sum can
    see.  As rho -> 0 and the grid refines, the result approaches the
    spectral application of |xi_j| / (|xi_1| + |xi_2|) with j = orientation.
    """
    if orientation not in (1, 2):
        raise InvalidInputError("orientation must be 1 or 2")
    if f.d != 2:
        raise InvalidInputError("pv_convolve requires a 2-d grid")
    min_cell = min(L / n for L, n in zip(f.period, f.sizes))
    if rho < min_cell:
        raise InvalidInputError("cutoff radius is smaller than a grid cell")
    W = kernel_weight_table(f.sizes, f.period, rho, images)
    spectra = _Spectra(f)  # W is real: real f takes the real transforms
    conv = spectra.apply(np.fft.rfftn(W) if spectra.real else np.fft.fftn(W))
    half = 0.5 * f.samples  # orientation 2 swaps K's args: K(y, x) = -K(x, y)
    return f.with_samples(half + conv if orientation == 2 else half - conv)
