"""Grid kernels, vectorized with numpy.

These four routines dominate the runtime of every pipeline: mode synthesis,
pointwise retarder application, Stokes evaluation, and bilinear sampling.
"""

import numpy as np


def lg_samples(xg, yg, ell, w0):
    r2 = xg * xg + yg * yg
    amp = np.exp(-r2 / (w0 * w0))
    if ell:
        amp = amp * (np.sqrt(2.0 * r2) / w0) ** abs(ell)
    return amp * np.exp(1j * ell * np.arctan2(yg, xg))


def retarder_apply(eh, ev, two_beta, delta):
    c = np.cos(0.5 * delta)
    js = 1j * np.sin(0.5 * delta)
    cb = np.cos(two_beta)
    sb = np.sin(two_beta)
    oh = c * eh + js * (cb * eh + sb * ev)
    ov = c * ev + js * (sb * eh - cb * ev)
    return oh, ov


def stokes_from_hv(eh, ev):
    ih = np.abs(eh) ** 2
    iv = np.abs(ev) ** 2
    cross = eh * np.conj(ev)
    return ih + iv, ih - iv, 2.0 * cross.real, -2.0 * cross.imag


def bilinear_sample(values, xs, ys, x0, y0, dx, dy):
    ny, nx = values.shape
    fx = (xs - x0) / dx
    fy = (ys - y0) / dy
    ix = np.clip(np.floor(fx).astype(np.int64), 0, nx - 2)
    iy = np.clip(np.floor(fy).astype(np.int64), 0, ny - 2)
    u = fx - ix
    v = fy - iy
    return (values[iy, ix] * (1.0 - u) * (1.0 - v)
            + values[iy, ix + 1] * u * (1.0 - v)
            + values[iy + 1, ix] * (1.0 - u) * v
            + values[iy + 1, ix + 1] * u * v)
