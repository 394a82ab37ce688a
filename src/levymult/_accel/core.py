"""Ensemble kernels for the jump-martingale Monte Carlo.

The evolve and projection kernels walk one path at a time over packed jump
data (``counts``, ``offsets``, ``times``, ``aidx``); the Lévy-system sums
evaluate their functional once over every jump of the ensemble.

Positions are flat indices into the cyclic lattice; ``phase[k, x]`` holds
e^{+2 pi i k.x / n}, so parabolic extensions become O(P) mode sums:

    P_{v,u} f (x)  =  (1/P) sum_k fhat_k e^{(u-v) psi_k} phase[k, x].

Compensator time integrals are exact per mode,

    int_{v1}^{v2} e^{(u-v) psi} dv = (e^{(u-v1) psi} - e^{(u-v2) psi}) / psi,

so the only stochastic error in any check is the Monte Carlo one.
"""

import numpy as np

BIG_TIME = 1e300


def _flat(coords, sizes):
    idx = 0
    for a in range(sizes.shape[0]):
        idx = idx * sizes[a] + (coords[a] % sizes[a])
    return idx


def _panel_accumulate(comp_fourier, psi, phase, flat, u, v1, v2):
    """comp_fourier += phase[:, flat] * integral_{v1}^{v2} e^{(u-v) psi} dv."""
    safe = np.where(psi == 0.0, 1.0, psi)
    ik = np.where(psi == 0.0, v2 - v1,
                  (np.exp((u - v1) * psi) - np.exp((u - v2) * psi)) / safe)
    comp_fourier += ik * phase[:, flat]


def _point_eval(psi, fhat, phase, flat, u, v):
    """P_{v,u} f at the flat lattice point (complex scalar)."""
    vec = fhat * np.exp((u - v) * psi) * phase[:, flat]
    return vec.sum() / psi.shape[0]


def evolve_one(sizes, psi, fhat, sphi, phase, atom_steps, atom_phi, fvals,
               x0, s, u, times, aidx, checkpoints, f_cp, g_cp):
    """Run one path; fill per-checkpoint rows, return terminal aggregates.

    Returns (F_u, G_u, qv_f, qv_g, violations, lemma_residual, pf0) where
    lemma_residual is max_t |F_t + P_{s,u}f(x0) - G_t| over jump times and u
    (zero up to roundoff when phi == 1) and pf0 = P_{s,u}f(x0).
    """
    d = sizes.shape[0]
    n_modes = psi.shape[0]
    coords = np.empty(d, np.int64)
    rem = x0
    for a in range(d - 1, -1, -1):
        coords[a] = rem % sizes[a]
        rem //= sizes[a]
    flat = x0

    comp_fourier = np.zeros(n_modes, np.complex128)
    jsum = 0.0 + 0.0j
    qv_f = 0.0
    qv_g = 0.0
    viol = 0
    lemma = 0.0
    pf0 = _point_eval(psi, fhat, phase, x0, u, s)
    qv_g += pf0.real * pf0.real + pf0.imag * pf0.imag

    n_jumps = times.shape[0]
    n_cp = checkpoints.shape[0]
    jp = 0
    cp = 0
    v_prev = s
    while jp < n_jumps or cp < n_cp:
        t_jump = times[jp] if jp < n_jumps else BIG_TIME
        t_cp = checkpoints[cp] if cp < n_cp else BIG_TIME
        if t_jump <= t_cp:
            _panel_accumulate(comp_fourier, psi, phase, flat, u, v_prev, t_jump)
            v_prev = t_jump
            a = aidx[jp]
            old_flat = flat
            for ax in range(d):
                coords[ax] = (coords[ax] + atom_steps[a, ax]) % sizes[ax]
            flat = _flat(coords, sizes)
            pf_new = _point_eval(psi, fhat, phase, flat, u, t_jump)
            pf_old = _point_eval(psi, fhat, phase, old_flat, u, t_jump)
            dg = pf_new - pf_old
            df = atom_phi[a] * dg
            jsum += df
            ag = dg.real * dg.real + dg.imag * dg.imag
            af = df.real * df.real + df.imag * df.imag
            qv_g += ag
            qv_f += af
            if af > ag:
                viol += 1
            comp = (fhat * sphi * comp_fourier).sum() / n_modes
            f_here = jsum - comp
            g_here = pf_new
            res = f_here + pf0 - g_here
            mag = np.sqrt(res.real * res.real + res.imag * res.imag)
            if mag > lemma:
                lemma = mag
            jp += 1
        else:
            _panel_accumulate(comp_fourier, psi, phase, flat, u, v_prev, t_cp)
            v_prev = t_cp
            comp = (fhat * sphi * comp_fourier).sum() / n_modes
            f_cp[cp] = jsum - comp
            g_cp[cp] = _point_eval(psi, fhat, phase, flat, u, t_cp)
            cp += 1
    _panel_accumulate(comp_fourier, psi, phase, flat, u, v_prev, u)
    comp = (fhat * sphi * comp_fourier).sum() / n_modes
    f_u = jsum - comp
    g_u = fvals[flat]  # P_{u,u} f -- exact boundary value
    res = f_u + pf0 - g_u
    mag = np.sqrt(res.real * res.real + res.imag * res.imag)
    if mag > lemma:
        lemma = mag
    return f_u, g_u, qv_f, qv_g, viol, lemma, pf0


def projection_one(sizes, psi, fhat, sphi, phase, atom_steps, atom_phi,
                   s, u, times, aidx, row):
    """Fourier row of H(w) = F_u(w - X_u) for one path started at the origin.

    row_k = (jump part - compensator part)_k * conj(phase[k, X_u]).
    """
    d = sizes.shape[0]
    n_modes = psi.shape[0]
    coords = np.zeros(d, np.int64)
    flat = 0
    jump_f = np.zeros(n_modes, np.complex128)
    comp_fourier = np.zeros(n_modes, np.complex128)
    v_prev = s
    for jp in range(times.shape[0]):
        t = times[jp]
        _panel_accumulate(comp_fourier, psi, phase, flat, u, v_prev, t)
        v_prev = t
        a = aidx[jp]
        old_flat = flat
        for ax in range(d):
            coords[ax] = (coords[ax] + atom_steps[a, ax]) % sizes[ax]
        flat = _flat(coords, sizes)
        decay = np.exp((u - t) * psi)
        jump_f += atom_phi[a] * fhat * decay * (phase[:, flat] - phase[:, old_flat])
    _panel_accumulate(comp_fourier, psi, phase, flat, u, v_prev, u)
    amp = jump_f - fhat * sphi * comp_fourier
    row += amp * np.conj(phase[:, flat])


# ---------------------------------------------------------------------------
# ensemble drivers
# ---------------------------------------------------------------------------

def evolve_ensemble(sizes, psi, fhat, sphi, phase, atom_steps, atom_phi, fvals,
                    x0, s, u, counts, offsets, times, aidx, checkpoints):
    n_paths = counts.shape[0]
    n_cp = checkpoints.shape[0]
    f_cp = np.zeros((n_paths, n_cp), np.complex128)
    g_cp = np.zeros((n_paths, n_cp), np.complex128)
    f_u = np.zeros(n_paths, np.complex128)
    g_u = np.zeros(n_paths, np.complex128)
    qv_f = np.zeros(n_paths, np.float64)
    qv_g = np.zeros(n_paths, np.float64)
    viol = np.zeros(n_paths, np.int64)
    lemma = np.zeros(n_paths, np.float64)
    for m in range(n_paths):
        lo, hi = offsets[m], offsets[m + 1]
        out = evolve_one(sizes, psi, fhat, sphi, phase, atom_steps, atom_phi,
                         fvals, x0, s, u, times[lo:hi], aidx[lo:hi],
                         checkpoints, f_cp[m], g_cp[m])
        f_u[m], g_u[m], qv_f[m], qv_g[m], viol[m], lemma[m] = out[:6]
    return f_cp, g_cp, f_u, g_u, qv_f, qv_g, viol, lemma


def projection_ensemble(sizes, psi, fhat, sphi, phase, atom_steps, atom_phi,
                        s, u, counts, offsets, times, aidx):
    n_paths = counts.shape[0]
    rows = np.zeros((n_paths, psi.shape[0]), np.complex128)
    for m in range(n_paths):
        lo, hi = offsets[m], offsets[m + 1]
        projection_one(sizes, psi, fhat, sphi, phase, atom_steps, atom_phi,
                       s, u, times[lo:hi], aidx[lo:hi], rows[m])
    return rows


def levy_ensemble(sizes, h, atom_steps, s, counts, offsets, times, aidx,
                  fid, p1, p2):
    """Per-path sums over the jumps of F(S_i, X_{S_i-}, X_{S_i}).

    The shipped bounded functionals F(v, y, y+z):

    0: 1
    1: indicator that the jump is atom number p1
    2: jump coordinate z_j, j = p1 (1-based)
    3: (v - s) * z_j
    4: cos(2 pi y_j / p2) * z_j   (p2 = lattice period along j)
    """
    n_paths = counts.shape[0]
    path = np.repeat(np.arange(n_paths), counts)
    if fid == 0:
        values = np.ones(times.shape[0])
    elif fid == 1:
        values = (aidx == int(p1)).astype(np.float64)
    else:
        j = int(p1) - 1
        steps = atom_steps[aidx, j]
        z = steps * h
        if fid == 2:
            values = z
        elif fid == 3:
            values = (times - s) * z
        else:
            # coordinate j before each jump: an exclusive cumsum of the
            # steps, restarted at each path's first jump
            before = np.cumsum(steps) - steps
            n = sizes[j]
            y = ((before - before[offsets[path]] + n // 2) % n - n // 2) * h
            values = np.cos(2.0 * np.pi * y / p2) * z
    # bincount adds in jump order, as a per-path loop would
    return np.bincount(path, weights=values, minlength=n_paths)
