"""Thermodynamic formalism for expanding circle maps.

Numerics for transfer operators of degree-d covering maps of the circle:
pressure and equilibrium states, conformal measures, spectral gaps, linear
response in the potential and in the map, correlation decay, central limit
parameters, free-energy curves, and local large-deviation rate functions.
"""

from .errors import (
    CircthermoError, ConfigError, HypothesisError, ResourceLimitError,
    SchemeQualityError, SmoothnessError, SolverError,
)
from .maps import (
    BranchMap, HypothesisAux, HypothesisReport, ParamFamily, Potential,
    check_hypotheses, constant, constant_family, doubling,
    grid_potential, linear_map, log_derivative_weight, manneville_pomeau,
    perturbed_doubling, perturbed_doubling_family, translated_doubling,
    translated_doubling_family, trig_polynomial, wrap, zero_potential,
)
from .operator import (
    DiscretizedOperator, Discretization, Grid, GridFunction, OperatorSetup,
    apply_transfer_point, apply_transfer_tree, build_operator, discretize,
)
from .spectral import (
    SpectralTriple, gap_estimate, leading_triple, resolvent_solve,
)
from .thermo import (
    ThermoReport, equilibrium_state, pressure, pressure_oracle_periodic,
    pressure_oracle_tree,
)
from .response import (
    ResponseReport, d_conformal_expectation, d_density_d_potential,
    d_equilibrium_expectation, d_lambda_d_potential, d_maxentropy_expectation,
    d_pressure_d_dynamics, d_pressure_d_potential, d_transfer_d_dynamics,
    d_transfer_n_d_dynamics,
)
from .stats import (
    CltParameters, CorrelationSeries, DeviationExperiment,
    DeviationProbability, FreeEnergyCurve, RateFunction, clt_parameters,
    correlation, d_correlation_d_dynamics, deviation_probability, free_energy,
    ldp_monte_carlo, rate_continuity_scan, rate_function,
)

__version__ = "0.1.0"
