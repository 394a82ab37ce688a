"""Ensemble kernels for the jump-martingale Monte Carlo.

The kernels read the lattice positions of all paths from one vectorised
walk, and merge each path's jumps, checkpoints and end time u into one
time-ordered event list.  Parabolic extensions are O(P) mode sums,

    P_{t,u} g (x)  =  (1/P) sum_k ghat_k e^{(u-t) psi_k} e^{2 pi i k.x/n}.

The evolve kernel reads them off grid tables instead.  With tau = u - t,
e^{tau psi} is interpolated in tau at K Chebyshev nodes tau_c of the first
kind (the Chebyshev propagator of Tal-Ezer and Kosloff, J. Chem. Phys. 81,
1984), so P_{t,u} g (x) = sum_c B_c(tau) ifftn(ghat e^{tau_c psi})[x] with
B the barycentric weights: K values gathered at the event's lattice point
and no exponential per event.  K follows from the Chebyshev coefficients of
e^{tau psi}, at most 2 (b/2)^K / K! past degree K - 1 for b = max|psi| L/2
on a window of length L; a long window is split into equal pieces of at
most ``MAX_NODES`` nodes, and one piece's tables are alive at a time.

The projection kernel needs all P amplitudes, with one decay e^{(u-t) psi}
per event.  On the product torus the DFT column factors by axis,
e^{2 pi i k.x/n} = prod_a e^{2 pi i k_a x_a/n_a}; the factor of axis a is
an (E, n_a) array read from the N = lcm(n) roots of unity in ``phase``.  The
kernel forms the column before each event as the outer product of the
factors, and the column after a jump as that column times omega, the column
of the atom's step.  It runs over blocks of whole paths of about ``BLOCK``
events x modes, writes every per-event array of a block into buffers that
the next block reuses, and hands out each block's rows as it makes them
(``projection_blocks``), so a caller that folds them holds no (n, P) array.
The kernels hold their whole ensemble's event list; callers bound it by
passing paths in chunks, which the per-path random streams make
bit-identical to one call.

Compensator time integrals between consecutive events t1 < t2 are exact per
mode,

    int_{t1}^{t2} e^{(u-v) psi} dv = (e^{(u-t1) psi} - e^{(u-t2) psi}) / psi,

so with the tables H_c = ifftn(ghat sphi/psi e^{tau_c psi}) the evolve
kernel's compensator is a difference of two interpolated values.  When
phi == 1, H = G - ghat_0/P node by node, so F_t + G_s - G_t still telescopes
to roundoff.  The only stochastic error in any check is the Monte Carlo one.
"""

import math
from typing import NamedTuple

import numpy as np

# events x modes per kernel block, and expected events per chunk of paths
# (``stochastic.chunk_paths``): bounds memory whatever n_paths is
BLOCK = 1 << 16
MAX_NODES = 32  # Chebyshev nodes per piece of the evolve kernel's tau-window
_TAIL = 1e-17  # bound on the first Chebyshev coefficient left out


def walk(sizes, atom_steps, start, offsets, aidx):
    """Lattice coordinates (J, d) after every jump, each path started at
    ``start``: an integer cumsum of the steps, restarted at each path's
    first jump."""
    steps = atom_steps[aidx]
    reached = np.cumsum(steps, axis=0)
    first = np.repeat(offsets[:-1], np.diff(offsets))
    return (start + reached - (reached - steps)[first]) % sizes


def chebyshev(points, a, n_nodes):
    """``n_nodes`` Chebyshev nodes of the first kind on [0, a], and the
    barycentric matrix B taking values at the nodes to the interpolant at
    ``points``; a point on a node reads that node's value."""
    k = np.arange(n_nodes)
    theta = (2 * k + 1) * (math.pi / (2 * n_nodes))
    nodes = 0.5 * a * (1.0 + np.cos(theta))
    diff = points[:, None] - nodes
    hit = diff == 0.0
    B = (-1.0) ** k * np.sin(theta) / np.where(hit, 1.0, diff)
    B /= B.sum(axis=1, keepdims=True)
    on_node = hit.any(axis=1)
    B[on_node] = hit[on_node]
    return nodes, B


def _node_count(b):
    """The fewest nodes K with 2 (b/2)^K / K! < 1e-17.  On a window
    [lo, lo + L], e^{tau psi} = e^{(lo + L/2) psi} e^{x L psi/2} for x in
    [-1, 1]; its Chebyshev coefficient of degree K is
    2 e^{(lo + L/2) psi} I_K(L psi/2), at most 2 (b/2)^K / K! in modulus
    when b >= L |psi|/2, since psi <= 0 and I_K(z) <= (z/2)^K / K! e^z."""
    k, term = 1, b
    while term >= _TAIL:
        k += 1
        term *= b / (2 * k)
    return k


def evolve_pieces(psi, span):
    """(pieces, K): the fewest equal pieces of the tau-window [0, span]
    whose node count K is at most ``MAX_NODES``, and that count."""
    psi_max = float(np.abs(psi).max())
    pieces = 1
    while (k := _node_count(psi_max * span / (2 * pieces))) > MAX_NODES:
        pieces += 1
    return pieces, k


def _factors(sizes, phase, coords):
    """Per-axis DFT factors e^{2 pi i k_a x_a/n_a}, one (E, n_a) array per
    axis a, for the points ``coords`` (E, d), read from the roots of unity."""
    n_roots = phase.shape[0]
    return [phase[(np.arange(n) * (n_roots // n) * coords[:, a, None])
                  % n_roots] for a, n in enumerate(sizes)]


def _outer(factors, out=None):
    """The flat columns prod_a factors[a][:, k_a], (E, P) in C order, the
    last product written into ``out`` if given."""
    col = factors[0]
    for i, f in enumerate(factors[1:], 2):
        dest = None
        if out is not None and i == len(factors):
            dest = out.reshape(col.shape[0], col.shape[1], f.shape[1])
        col = np.multiply(col[:, :, None], f[:, None, :], out=dest).reshape(
            col.shape[0], -1)
    if out is not None and len(factors) == 1:
        out[...] = col
        return out
    return col


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


def _capacity(n_modes, off):
    """Rows of the per-event block buffers: a block holds ``BLOCK // P``
    events, or the events of one longer path."""
    return max(1, BLOCK // n_modes, int(np.diff(off).max(initial=0)))


def _blocks(psi, u, decay_s, ev):
    """Per block of whole paths [p0, p1): its event slice, the decays
    e^{(u-t) psi} and their drops e^{(u-t_prev) psi} - e^{(u-t) psi} since
    the path's previous event (since s for its first).  The decays and
    drops are views of two buffers that the next block overwrites."""
    width = max(1, BLOCK // psi.shape[0])
    n_paths = ev.off.shape[0] - 1
    decays = np.empty((_capacity(psi.shape[0], ev.off), psi.shape[0]))
    drops = np.empty_like(decays)
    p0 = 0
    while p0 < n_paths:
        p1 = max(p0 + 1, int(np.searchsorted(ev.off, ev.off[p0] + width,
                                             "right")) - 1)
        sl = slice(ev.off[p0], ev.off[p1])
        n_ev = sl.stop - sl.start
        dec = np.multiply(u - ev.t[sl, None], psi, out=decays[:n_ev])
        np.exp(dec, out=dec)
        heads = ev.off[p0:p1] - ev.off[p0]
        drop = drops[:n_ev]
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


def _tables(sizes, psi, rows, nodes, out):
    """The grid tables ifftn(rows[r] e^{tau_c psi}) at the nodes tau_c, into
    ``out`` (P, R, K), one node at a time."""
    for c, tau in enumerate(nodes):
        decay = np.exp(tau * psi)
        for r, row in enumerate(rows):
            out[:, r, c] = np.fft.ifftn((row * decay).reshape(sizes)).ravel()
    return out


def _previous(tau, off, span):
    """Each event's tau_prev: that of its path's previous event, ``span`` =
    u - s for the path's first."""
    prev = np.empty_like(tau)
    prev[1:] = tau[:-1]
    prev[off[:-1]] = span
    return prev


def evolve_ensemble(sizes, psi, fhat, sphi, phase, atom_steps, atom_phi, fvals,
                    x0, s, u, counts, offsets, times, aidx, checkpoints):
    """The pair (F, G) along every path from x0.

    Returns f_cp, g_cp (n_paths, C) at the checkpoints; per path F_u, G_u,
    qv_f, qv_g, the number of jumps with |dF| > |dG| and lemma_residual =
    max_t |F_t + pf0 - G_t| over jump times and u (zero up to roundoff when
    phi == 1); and pf0 = G_s = P_{s,u}f(x0), shared by all paths.

    G and the compensator's H are read off node tables (see the module
    docstring): with B the barycentric weights at tau = u - t,
    g = B(tau_e) . G[x] before and after event e, and the compensator since
    the path's previous event is (B(tau_prev) - B(tau_e)) . H[x_before].
    """
    n_modes = psi.shape[0]
    n_cp = checkpoints.shape[0]
    shape = tuple(sizes)
    ev = _events(sizes, atom_steps, np.array(np.unravel_index(x0, shape)), u,
                 offsets, times, aidx, checkpoints)
    span = u - s
    pieces, k = evolve_pieces(psi, span)
    step = span / pieces
    tau = u - ev.t
    tau_prev = _previous(tau, ev.off, span)
    # an event's interval [tau, tau_prev] spans the pieces own .. top
    own = np.minimum(tau // step, pieces - 1)
    top = np.minimum(tau_prev // step, pieces - 1)
    x_before = np.ravel_multi_index(ev.before.T, shape)
    x_after = np.ravel_multi_index(ev.after.T, shape)
    spectra = (fhat, fhat * _rate(psi, sphi))
    nodes = chebyshev(np.empty(0), step, k)[0]
    table = np.empty((n_modes, 2, k), np.complex128)
    g_before = np.empty(ev.t.shape[0], np.complex128)
    g_after = np.empty_like(g_before)
    comp = np.zeros_like(g_before)
    width = max(1, BLOCK // k)
    # from the last piece to the first: an event's G values are written
    # last in its own piece, and H is summed over the pieces its interval
    # spans, with tau and tau_prev clipped to each
    for j in range(pieces - 1, -1, -1):
        lo = j * step
        _tables(shape, psi, spectra, lo + nodes, table)
        if j == pieces - 1:
            pf0 = table[x0, 0] @ chebyshev(np.array([span - lo]), step, k)[1][0]
        idx = np.flatnonzero((own <= j) & (j <= top))
        for e0 in range(0, idx.shape[0], width):
            e = idx[e0:e0 + width]
            b = chebyshev(np.maximum(tau[e], lo) - lo, step, k)[1]
            b_prev = chebyshev(np.minimum(tau_prev[e], lo + step) - lo,
                               step, k)[1]
            before = table[x_before[e]]
            g_before[e] = np.einsum("ek,ek->e", before[:, 0], b)
            g_after[e] = np.einsum("ek,ek->e", table[x_after[e], 0], b)
            comp[e] += np.einsum("ek,ek->e", before[:, 1], b_prev - b)
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
    g_u = fvals[x_after[end]]
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


def projection_blocks(sizes, psi, sphi, phase, atom_steps, atom_phi,
                      s, u, counts, offsets, times, aidx):
    """The rows of ``projection_ensemble`` block by block of whole paths:
    (p0, p1, rows) for the paths [p0, p1).  ``rows`` and every per-event
    array are views of buffers that the next block overwrites, so memory
    does not grow with the ensemble beyond its event list."""
    start = np.zeros(sizes.shape[0], np.int64)
    ev = _events(sizes, atom_steps, start, u, offsets, times, aidx,
                 np.empty(0))
    jump = _jump_table(sizes, phase, atom_steps, atom_phi)
    rate = _rate(psi, sphi)
    cols = np.empty((_capacity(psi.shape[0], ev.off), psi.shape[0]),
                    np.complex128)
    amps = np.empty_like(cols)
    row_buf = np.empty_like(cols)
    for p0, p1, sl, dec, drop in _blocks(psi, u, np.exp((u - s) * psi), ev):
        n_ev = sl.stop - sl.start
        # (phi dec (omega - 1) - sphi panel) col, col_after = col omega;
        # "wrap" reads index -1, the zero row, and needs no scratch copy
        amp = np.take(jump, ev.atom[sl], axis=0, out=amps[:n_ev],
                      mode="wrap")
        amp *= dec
        amp -= np.multiply(rate, drop, out=cols[:n_ev])
        col = _outer(_factors(sizes, phase, ev.before[sl]), cols[:n_ev])
        amp *= col
        firsts = ev.off[p0:p1 + 1] - ev.off[p0]
        # each path's last event is u, where the column is that of X_u
        rows = np.add.reduceat(amp, firsts[:-1], axis=0,
                               out=row_buf[:p1 - p0])
        last = np.take(col, firsts[1:] - 1, axis=0, out=amps[:p1 - p0],
                       mode="wrap")
        rows *= np.conj(last, out=last)
        yield p0, p1, rows


def projection_ensemble(sizes, psi, sphi, phase, atom_steps, atom_phi,
                        s, u, counts, offsets, times, aidx):
    """Fourier rows R of H(w) = F_u(w - X_u), one per path from the origin,
    for the f with fhat = 1 (a boundary function f has the rows fhat * R):

    R_k = (jump part - compensator part)_k * e^{-2 pi i k.X_u/n}.
    """
    rows = np.empty((counts.shape[0], psi.shape[0]), np.complex128)
    for p0, p1, block in projection_blocks(sizes, psi, sphi, phase,
                                           atom_steps, atom_phi, s, u,
                                           counts, offsets, times, aidx):
        rows[p0:p1] = block
    return rows


def levy_ensemble(counts, values):
    """Per-path sums of the per-jump ``values`` (packed in path order), each
    path's jumps added in time order, as a per-path loop would add them."""
    path = np.repeat(np.arange(counts.shape[0]), counts)
    return np.bincount(path, weights=values, minlength=counts.shape[0])
