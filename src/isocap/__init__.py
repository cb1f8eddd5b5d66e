"""Iso-p-capacitary and isoperimetric masses of rotationally symmetric
3-manifolds: p-capacities, weak inverse mean curvature flow, Hawking and
Huisken masses, and the numerical verification of their equivalence."""

from .capacity import (CapacityResult, FluxHolderReport, PotentialCurve,
                       capacitary_potential, one_capacity, p_capacity,
                       verify_flux_holder)
from .errors import (BadExponent, ConfigError, DomainError, EvalError,
                     InsufficientData, IsocapError, NoBracket,
                     NonConvergence, NonIntegrableThroat, ParabolicMetric,
                     ProfileSyntaxError, UnknownIdentifier)
from .flow import (FlowTrack, GerochReport, Jump, SmoothSegment,
                   flow_to_csv, geroch_check, outward_hull, weak_imcf,
                   willmore_limit)
from .geometry import (Gauge, HypothesisReport, RadialMetric,
                       SphereData, check_hypotheses, cylinder, expr_metric,
                       find_minimal_spheres, flat, mass_profile_metric,
                       metric_from_spec, scaled, schwarzschild, sphere_data,
                       spheres, table_metric, tanh_step_mass_metric,
                       to_geodesic, validate_metric)
from .masses import (BmxResult, EquivalenceVerdict, IsoperimetricReport,
                     MassReport, asymptotic_isoperimetric_check,
                     bmx_bound_check, equivalence_report, huisken_mass,
                     mass_report_to_csv, mass_report_to_json,
                     quasilocal_mass, total_mass, total_masses)
from .numerics import (DEFAULT_CFG, ToleranceConfig, extrapolate_limit,
                       find_root, integrate)
from .profiles import ProfileExpr, eval_d2, parse
from .specfun import F21Params, expansion_check, gauss_2f1

__version__ = "0.1.0"
