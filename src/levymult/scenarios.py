"""Shipped verification scenarios for the stochastic checks.

Each scenario pins a lattice, jump measure, modulator and boundary function;
the verification battery (CLI ``verify`` and the acceptance suite) runs the
same list, so results are comparable across machines given the seed.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidInputError
from .grid import read_grid
from .lattice import PeriodicLattice
from .measures import _cnum, _int, _reading, measure_from_dict, modulator_from_dict
from .stochastic import Scenario

__all__ = ["bump_profile", "shipped_scenarios", "scenario_by_name",
           "scenario_from_dict"]


def bump_profile(n: int, center: float, width: float) -> np.ndarray:
    """Periodic Gaussian profile on n lattice points, unit peak."""
    idx = np.arange(n)
    d = np.remainder(idx - center + n / 2, n) - n / 2
    return np.exp(-0.5 * (d / width) ** 2)


def _lat(atoms, weights, phi, sizes, h=1.0):
    return PeriodicLattice(sizes, h,
                           np.asarray(atoms, dtype=np.int64),
                           np.asarray(weights, dtype=float),
                           np.asarray(phi, dtype=complex))


def shipped_scenarios() -> list[Scenario]:
    out = []

    # plain symmetric walk, phi == 1: F is the centred parabolic martingale
    lat = _lat([[1], [-1]], [1.0, 1.0], [1.0, 1.0], (32,))
    f = bump_profile(32, 16.0, 3.0)
    out.append(Scenario("walk_phi1", lat, f, 16, (0.0, 1.0),
                        checkpoints=(0.3, 0.7)))

    # same walk, sign-flipped modulator
    lat = _lat([[1], [-1]], [1.0, 1.0], [-1.0, -1.0], (32,))
    out.append(Scenario("walk_phi_neg", lat, f, 16, (0.0, 1.0),
                        checkpoints=(0.3, 0.7)))

    # two jump sizes with a +- sign pattern and a rougher boundary function
    lat = _lat([[1], [-1], [2], [-2]], [1.0, 1.0, 0.5, 0.5],
               [1.0, 1.0, -1.0, -1.0], (32,))
    f2 = bump_profile(32, 10.0, 2.0) - 0.6 * bump_profile(32, 22.0, 4.0)
    out.append(Scenario("two_scale_signs", lat, f2, 8, (0.0, 1.0),
                        checkpoints=(0.25, 0.5, 0.75)))

    # damped modulator, |phi| = 1/2
    lat = _lat([[1], [-1], [2], [-2]], [1.0, 1.0, 0.5, 0.5],
               [0.5, 0.5, -0.5, -0.5], (32,))
    out.append(Scenario("two_scale_half", lat, f2, 8, (0.0, 1.0),
                        checkpoints=(0.5,)))

    # planar lattice, jumps along the axes, first-axis modulator
    lat = _lat([[1, 0], [-1, 0], [0, 1], [0, -1]], [1.0] * 4,
               [1.0, 1.0, 0.0, 0.0], (16, 16))
    prof = (bump_profile(16, 8.0, 2.0)[:, None]
            * bump_profile(16, 8.0, 2.0)[None, :]).ravel()
    out.append(Scenario("plane_axis_phi", lat, prof,
                        int(np.ravel_multi_index((8, 8), (16, 16))),
                        (0.0, 0.8), checkpoints=(0.4,)))

    # mass-formula scenario: |nu| = 4, ||f||_1 = 1, unit window
    f_unit = bump_profile(32, 16.0, 3.0)
    f_unit = f_unit / f_unit.sum()
    lat = _lat([[1], [-1]], [2.0, 2.0], [1.0, 1.0], (32,))
    out.append(Scenario("mass_rate4", lat, f_unit, 16, (0.0, 1.0),
                        checkpoints=(0.5,)))

    return out


def scenario_by_name(name: str) -> Scenario:
    for scn in shipped_scenarios():
        if scn.name == name:
            return scn
    raise KeyError(name)


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a scenario from its JSON document.

    Fields: name, measure, modulator, sizes, h (optional, default 1.0),
    f (inline list of lattice values, or {"grid": path} referencing a stored
    grid function), x0 (flat index), window [s, u], checkpoints (optional).
    """
    with _reading("scenario"):
        measure = measure_from_dict(doc["measure"])
        modulator = modulator_from_dict(doc["modulator"])
        sizes = tuple(_int(n) for n in doc["sizes"])
        h = float(doc.get("h", 1.0))
        lat = PeriodicLattice.from_measure(measure, modulator, sizes, h)
        fspec = doc["f"]
        if isinstance(fspec, dict):
            g = read_grid(fspec["grid"])
            if tuple(g.sizes) != sizes:
                raise InvalidInputError("grid file size does not match sizes")
            f = g.samples.ravel()
        else:
            f = np.asarray([_cnum(v) for v in fspec])
        s, u = doc["window"]
        cps = tuple(float(t) for t in doc.get("checkpoints", ()))
        return Scenario(str(doc["name"]), lat, f, _int(doc["x0"]),
                        (float(s), float(u)), cps)
