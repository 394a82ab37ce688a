"""Jump-modulated Fourier multipliers of symmetric Levy processes.

Builds multiplier symbols from symmetric jump measures and jump modulators,
applies them spectrally to periodic grids, materialises the Cauchy-semigroup
singular kernel in the plane, and verifies the underlying jump-martingale
construction by Monte Carlo.
"""

from .exceptions import (
    ConvergenceError,
    InvalidInputError,
    SingularPointError,
    UnsupportedMeasureError,
)
from .measures import (
    DiscreteLevyMeasure,
    JumpModulator,
    TransitionMeasure,
    TruncatedStableMeasure,
    char_exponent,
    char_exponent_stable_closed_form,
    levy_khinchin_check,
    modulated_exponent,
    stable_power_coefficient,
    transition_measure,
)
from .symbols import (
    BeurlingAhlforsSymbol,
    ConstantSymbol,
    FiniteTimeSymbol,
    FirstOrderRieszSymbol,
    GeneralSymbol,
    MultiplierSymbol,
    PowerSymbol,
    ProductSymbol,
    Riesz2Symbol,
    RieszComboSymbol,
    RieszPairSymbol,
    directional_limit,
    power_symbol_gradient,
    symbol_from_dict,
    symbol_to_dict,
)
from .grid import GridFunction, PStar, lp_norm, read_grid, write_grid
from .multiplier import apply_multiplier, norm_ratio_sweep
from .corpus import CorpusConfig, build_corpus
from .kernel import (
    cauchy_density,
    cauchy_density_dt,
    kernel_closed_form,
    kernel_numeric,
    kernel_truncated,
    pv_convolve,
)
from .lattice import PeriodicLattice
from .stochastic import (
    MartingalePair,
    PoissonPath,
    Scenario,
    burkholder_bound_check,
    evolve_ensemble,
    evolve_martingales,
    l1_mass_check,
    levy_system_check,
    martingale_property_check,
    projection_identity_check,
    sample_path,
    subordination_check,
)

__version__ = "0.1.0"
