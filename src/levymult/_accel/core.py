"""Ensemble kernels for the jump-martingale Monte Carlo.

The kernels read the lattice positions of all paths from one vectorised
walk.  The evolve and projection kernels merge each path's jumps,
checkpoints and end time u into one time-ordered event list, and evaluate
blocks of whole paths at once, with one decay e^{(u-t) psi} per event time t.

Parabolic extensions are O(P) mode sums,

    P_{t,u} f (x)  =  (1/P) sum_k fhat_k e^{(u-t) psi_k} e^{2 pi i k.x/n},

and on the product torus the DFT column factors by axis,
e^{2 pi i k.x/n} = prod_a e^{2 pi i k_a x_a/n_a}.  The factor of axis a is
an (E, n_a) array read from the N = lcm(n) roots of unity in ``phase``.
The evolve kernel reshapes its weights to (E, n_1, ..., n_d) and contracts
one axis at a time, so it never holds an (E, P) column.  The projection
kernel needs all P amplitudes: it forms the column before each event as the
outer product of the factors, and the column after a jump as that column
times omega, the column of the atom's step.

Compensator time integrals between consecutive events t1 < t2 are exact per
mode and reuse both events' decays,

    int_{t1}^{t2} e^{(u-v) psi} dv = (e^{(u-t1) psi} - e^{(u-t2) psi}) / psi,

so the only stochastic error in any check is the Monte Carlo one.
"""

from typing import NamedTuple

import numpy as np

BLOCK = 1 << 16  # events x modes per block: bounds memory whatever n_paths is


def walk(sizes, atom_steps, start, offsets, aidx):
    """Lattice coordinates (J, d) after every jump, each path started at
    ``start``: an integer cumsum of the steps, restarted at each path's
    first jump."""
    steps = atom_steps[aidx]
    reached = np.cumsum(steps, axis=0)
    first = np.repeat(offsets[:-1], np.diff(offsets))
    return (start + reached - (reached - steps)[first]) % sizes


def _factors(sizes, phase, coords):
    """Per-axis DFT factors e^{2 pi i k_a x_a/n_a}, one (E, n_a) array per
    axis a, for the points ``coords`` (E, d), read from the roots of unity."""
    n_roots = phase.shape[0]
    return [phase[(np.arange(n) * (n_roots // n) * coords[:, a, None])
                  % n_roots] for a, n in enumerate(sizes)]


def _outer(factors):
    """The flat columns prod_a factors[a][:, k_a], (E, P) in C order."""
    col = factors[0]
    for f in factors[1:]:
        col = (col[:, :, None] * f[:, None, :]).reshape(col.shape[0], -1)
    return col


def _contract(w, factors):
    """sum_k w[e, r, k] prod_a factors[a][e, k_a, c] -> (E, R, C) for the
    weight rows w (E, R, P), one axis at a time: the last by a batched
    matmul, the others by a dot each, so no (E, P) column is formed."""
    e, n_rows = w.shape[:2]
    out = w.reshape(e, -1, factors[-1].shape[1]) @ factors[-1]
    for f in factors[-2::-1]:
        out = np.einsum("ejkc,ekc->ejc",
                        out.reshape(e, -1, f.shape[1], f.shape[2]), f)
    return out.reshape(e, n_rows, -1)


class _Events(NamedTuple):
    off: np.ndarray  # (n_paths + 1,) event offsets of the paths
    path: np.ndarray
    t: np.ndarray
    kind: np.ndarray  # 0 jump, 1 + c checkpoint c, C + 1 the end time u
    atom: np.ndarray  # the jump's atom, -1 at the other events
    before: np.ndarray  # (E, d) coordinates before and after the event
    after: np.ndarray


def _events(sizes, atom_steps, start, u, offsets, times, aidx, checkpoints):
    """Every path's jumps, checkpoints and end time u, in time order."""
    n_paths = offsets.shape[0] - 1
    tail = np.append(checkpoints, u)
    ids = np.arange(n_paths)
    path = np.concatenate([np.repeat(ids, np.diff(offsets)),
                           np.repeat(ids, tail.shape[0])])
    t = np.concatenate([times, np.tile(tail, n_paths)])
    kind = np.concatenate([np.zeros(times.shape[0], np.int64),
                           np.tile(np.arange(1, tail.shape[0] + 1), n_paths)])
    atom = np.concatenate([aidx, np.full(n_paths * tail.shape[0], -1)])
    # time order within each path; a jump precedes a checkpoint at its time
    order = np.lexsort((kind, t, path))
    path, t, kind, atom = path[order], t[order], kind[order], atom[order]
    off = offsets + np.arange(n_paths + 1) * tail.shape[0]
    # jumps stay in packed order, so a running count names the latest one;
    # index -1 is the start, for events before the path's first jump
    coords = np.vstack([walk(sizes, atom_steps, start, offsets, aidx),
                        start])
    last = np.cumsum(kind == 0) - 1
    first = offsets[path]
    before = np.where(kind == 0, last - 1, last)
    return _Events(off, path, t, kind, atom,
                   coords[np.where(before >= first, before, -1)],
                   coords[np.where(last >= first, last, -1)])


def _blocks(psi, u, decay_s, ev):
    """Per block of whole paths [p0, p1): its event slice, the decays
    e^{(u-t) psi} and their drops e^{(u-t_prev) psi} - e^{(u-t) psi} since
    the path's previous event (since s for its first)."""
    width = max(1, BLOCK // psi.shape[0])
    n_paths = ev.off.shape[0] - 1
    p0 = 0
    while p0 < n_paths:
        p1 = max(p0 + 1, int(np.searchsorted(ev.off, ev.off[p0] + width,
                                             "right")) - 1)
        sl = slice(ev.off[p0], ev.off[p1])
        dec = np.exp((u - ev.t[sl, None]) * psi)
        heads = ev.off[p0:p1] - ev.off[p0]
        drop = np.empty_like(dec)
        np.subtract(dec[:-1], dec[1:], out=drop[1:])
        drop[heads] = decay_s - dec[heads]
        yield p0, p1, sl, dec, drop
        p0 = p1


def _jump_table(sizes, phase, atom_steps, atom_phi):
    """phi_a (omega_a - 1) per atom a, omega_a the column of its step, and a
    last row of zeros, which index -1 reads at the events that are no jump:
    the column after an event is the column before it times omega."""
    omega = _outer(_factors(sizes, phase, atom_steps))
    return np.vstack([atom_phi[:, None] * (omega - 1.0),
                      np.zeros(omega.shape[1])])


def _rate(psi, sphi):
    """sphi / psi, the compensator per unit drop of the decay: the panel
    int_{t1}^{t2} e^{(u-v) psi} dv is the drop over psi.  Where psi is 0
    every atom's step is a whole period of the mode, so sphi is 0 too."""
    return sphi / np.where(psi == 0.0, 1.0, psi)


def evolve_ensemble(sizes, psi, fhat, sphi, phase, atom_steps, atom_phi, fvals,
                    x0, s, u, counts, offsets, times, aidx, checkpoints):
    """The pair (F, G) along every path from x0.

    Returns f_cp, g_cp (n_paths, C) at the checkpoints; per path F_u, G_u,
    qv_f, qv_g, the number of jumps with |dF| > |dG| and lemma_residual =
    max_t |F_t + pf0 - G_t| over jump times and u (zero up to roundoff when
    phi == 1); and pf0 = G_s = P_{s,u}f(x0), shared by all paths.
    """
    n_modes = psi.shape[0]
    n_cp = checkpoints.shape[0]
    start = np.array(np.unravel_index(x0, tuple(sizes)))
    ev = _events(sizes, atom_steps, start, u, offsets, times, aidx,
                 checkpoints)
    decay_s = np.exp((u - s) * psi)
    pf0 = (fhat * decay_s * _outer(_factors(sizes, phase, start[None]))[0]
           ).sum() / n_modes
    fhat_rate = fhat * _rate(psi, sphi)
    g_before = np.empty(ev.t.shape[0], np.complex128)
    g_after = np.empty_like(g_before)
    comp = np.empty_like(g_before)
    for _, _, sl, dec, drop in _blocks(psi, u, decay_s, ev):
        # both weight rows, fhat dec and fhat sphi panel, against the columns
        # before and after the event in one small matmul per event (the panel
        # row is used with the column before only); a separate matrix-vector
        # product for the panel ran slower on two BLAS threads than on one
        w = np.empty((dec.shape[0], 2, n_modes), np.complex128)
        np.multiply(fhat, dec, out=w[:, 0])
        np.multiply(fhat_rate, drop, out=w[:, 1])
        g = _contract(w, [np.stack(pair, axis=-1) for pair in zip(
            _factors(sizes, phase, ev.before[sl]),
            _factors(sizes, phase, ev.after[sl]))]) / n_modes
        g_before[sl], g_after[sl], comp[sl] = g[:, 0, 0], g[:, 0, 1], g[:, 1, 0]
    # dG, and so dF, is exactly 0 off the jumps
    dg = g_after - g_before
    df = np.append(atom_phi, 0.0)[ev.atom] * dg
    ag = dg.real * dg.real + dg.imag * dg.imag
    af = df.real * df.real + df.imag * df.imag
    # F along each path: a cumsum per row, so no path's roundoff depends on
    # the paths before it
    n_paths = ev.off.shape[0] - 1
    local = np.arange(ev.t.shape[0]) - ev.off[ev.path]
    rows = np.zeros((n_paths, int(np.diff(ev.off).max(initial=0))),
                    np.complex128)
    rows[ev.path, local] = df - comp
    f_ev = np.cumsum(rows, axis=1)[ev.path, local]
    end = ev.kind == n_cp + 1
    f_u = f_ev[end]
    g_u = fvals[np.ravel_multi_index(ev.after[end].T, tuple(sizes))]
    cp = (ev.kind > 0) & ~end
    f_cp = np.zeros((n_paths, n_cp), np.complex128)
    g_cp = np.zeros_like(f_cp)
    f_cp[ev.path[cp], ev.kind[cp] - 1] = f_ev[cp]
    g_cp[ev.path[cp], ev.kind[cp] - 1] = g_after[cp]
    firsts = ev.off[:-1]
    residual = np.where(ev.kind == 0, np.abs(f_ev + pf0 - g_after), 0.0)
    lemma = np.maximum(np.maximum.reduceat(residual, firsts),
                       np.abs(f_u + pf0 - g_u))
    return (f_cp, g_cp, f_u, g_u, np.add.reduceat(af, firsts),
            abs(pf0) ** 2 + np.add.reduceat(ag, firsts),
            np.add.reduceat(af > ag, firsts), lemma, pf0)


def projection_ensemble(sizes, psi, sphi, phase, atom_steps, atom_phi,
                        s, u, counts, offsets, times, aidx):
    """Fourier rows R of H(w) = F_u(w - X_u), one per path from the origin,
    for the f with fhat = 1 (a boundary function f has the rows fhat * R):

    R_k = (jump part - compensator part)_k * e^{-2 pi i k.X_u/n}.
    """
    start = np.zeros(sizes.shape[0], np.int64)
    ev = _events(sizes, atom_steps, start, u, offsets, times, aidx,
                 np.empty(0))
    jump = _jump_table(sizes, phase, atom_steps, atom_phi)
    rate = _rate(psi, sphi)
    rows = np.zeros((counts.shape[0], psi.shape[0]), np.complex128)
    for p0, p1, sl, dec, drop in _blocks(psi, u, np.exp((u - s) * psi), ev):
        col = _outer(_factors(sizes, phase, ev.before[sl]))
        # (phi dec (omega - 1) - sphi panel) col, col_after = col omega
        amp = jump[ev.atom[sl]]
        amp *= dec
        amp -= rate * drop
        amp *= col
        firsts = ev.off[p0:p1 + 1] - ev.off[p0]
        # each path's last event is u, where the column is that of X_u
        rows[p0:p1] = (np.add.reduceat(amp, firsts[:-1])
                       * np.conj(col[firsts[1:] - 1]))
    return rows


def levy_ensemble(counts, values):
    """Per-path sums of the per-jump ``values`` (packed in path order), each
    path's jumps added in time order, as a per-path loop would add them."""
    path = np.repeat(np.arange(counts.shape[0]), counts)
    return np.bincount(path, weights=values, minlength=counts.shape[0])
