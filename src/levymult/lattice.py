"""Periodic lattice state space for the jump-martingale construction.

Boundary functions live on a cyclic lattice Z_{n1} (x Z_{n2}) with spacing h.
Jumps are integer steps, so convolution by the transition measure is exact:
the cyclic convolution semigroup diagonalises under the DFT with eigenvalues
e^{t psi_k}, where

    psi_k = sum_a w_a (cos(2 pi k . z_a / n) - 1)

is the characteristic exponent evaluated at the lattice frequencies.  This
matches the truncated-series transition measure wrapped onto the torus term
by term, with no truncation error at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .measures import (
    DiscreteLevyMeasure,
    JumpModulator,
    _atom_list,
    _lattice_spacing,
    _lattice_steps,
)

__all__ = ["PeriodicLattice"]


@dataclass
class PeriodicLattice:
    """Geometry + spectral tables shared by every stochastic check.

    atoms/weights describe the jump measure in integer lattice steps; ``phi``
    holds the modulator values aligned with the atom list.  The lattice need
    not be symmetric: the Levy-system check runs on drifting walks too, and
    the projection check states its own symmetry rule.
    """

    sizes: tuple
    h: float
    atom_steps: np.ndarray  # (A, d) int64
    weights: np.ndarray  # (A,)
    phi: np.ndarray  # (A,) complex

    def __post_init__(self):
        sizes = tuple(int(n) for n in np.atleast_1d(self.sizes))
        if len(sizes) not in (1, 2):
            raise InvalidInputError("lattice dimension must be 1 or 2")
        if any(n < 2 for n in sizes):
            raise InvalidInputError("lattice sizes must be at least 2")
        pts, w = _atom_list(self.atom_steps, self.weights, "lattice")
        steps = pts.astype(np.int64)
        if np.any(steps != pts):
            raise InvalidInputError("lattice steps must be integers")
        if steps.shape[1] != len(sizes):
            raise InvalidInputError("atom step dimension mismatch")
        phi = np.asarray(self.phi, dtype=complex).ravel()
        if len(phi) != len(steps):
            raise InvalidInputError("atoms, weights and phi must align")
        if not np.all(np.abs(phi) <= 1 + 1e-12):
            raise InvalidInputError("|phi| must not exceed 1 on the atoms")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "h", _lattice_spacing(self.h))
        object.__setattr__(self, "atom_steps", steps)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "phi", phi)
        self._build()

    @classmethod
    def from_measure(cls, measure: DiscreteLevyMeasure,
                     modulator: JumpModulator, sizes, h: float = 1.0):
        """Wrap a discrete measure with its atoms on the lattice of spacing h
        onto the torus."""
        steps = _lattice_steps(measure, h)
        phi = modulator.validate_on(measure)
        return cls(sizes, h, steps, measure.weights.copy(), phi)

    # -- derived tables ------------------------------------------------------
    def _build(self):
        sizes = self.sizes
        self.d = len(sizes)
        self.n_points = int(np.prod(sizes))
        ks = [np.arange(n) for n in sizes]
        kg = np.meshgrid(*ks, indexing="ij")
        # psi_k on the flat mode index
        psi = np.zeros(sizes)
        sphi = np.zeros(sizes, dtype=complex)
        for step, w, ph in zip(self.atom_steps, self.weights, self.phi):
            angle = sum(2 * np.pi * kg[a] * step[a] / sizes[a]
                        for a in range(self.d))
            psi += w * (np.cos(angle) - 1.0)
            sphi += w * ph * (np.exp(1j * angle) - 1.0)
        self.psi = psi.ravel()
        self.sphi = sphi.ravel()  # sum_a w_a phi_a (e^{i 2 pi k.z/n} - 1)
        # the N = lcm(sizes) roots of unity: the DFT column e^{2 pi i k.x/n}
        # of a point x is the product over the axes a of the factors
        # e^{2 pi i k_a x_a/n_a} = phase[(k_a (N/n_a) x_a) mod N], O(n_a) each
        n_roots = math.lcm(*sizes)
        self.phase = np.exp(2j * np.pi * np.arange(n_roots) / n_roots)
        self.cum_weights = np.cumsum(self.weights) / self.weights.sum()

    @property
    def total_rate(self) -> float:
        return float(self.weights.sum())

    # -- helpers -------------------------------------------------------------
    def column(self, flat: int) -> np.ndarray:
        """The DFT column e^{2 pi i k.x/n} of the point x over the flat k."""
        x = np.unravel_index(int(flat), self.sizes)
        k = np.indices(self.sizes).reshape(self.d, -1)
        return np.exp(2j * np.pi * sum((k[a] * x[a] % n) / n
                                       for a, n in enumerate(self.sizes)))

    def fft(self, f) -> np.ndarray:
        return np.fft.fftn(np.asarray(f, dtype=complex).reshape(self.sizes)).ravel()

    def ifft(self, spec) -> np.ndarray:
        return np.fft.ifftn(np.asarray(spec, dtype=complex).reshape(self.sizes)).ravel()

    def parabolic(self, f, dt: float) -> np.ndarray:
        """P_{t, t+dt} f  =  f * p_dt as a flat array (exact on the torus)."""
        if dt < 0:
            raise InvalidInputError("dt must be nonnegative")
        return self.ifft(self.fft(f) * np.exp(dt * self.psi))
