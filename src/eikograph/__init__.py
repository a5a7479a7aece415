"""Solver and verification toolkit for |∇u| = f on metric graphs."""

from .cost import Constant, CostField, Linear, Samples
from .ekeland import EkelandRecord, ekeland_maximize, ekeland_point
from .errors import (CoercivityProbeFailed, EikographError, GraphFormatError, HamiltonianRejection,
                     ImproperHamiltonian, InputError, NonmonotoneHamiltonian, NoSubsolution,
                     PreconditionError, ProfileError, RecordError, UnreachableError, VerificationError)
from .graph import (Curve, DistanceField, EdgeInterior, EdgeRec, Germ,
                    MetricGraph, Vertex, VertexRec, random_curve)
from .hamiltonian import Hamiltonian, catalog, kruzkov, reduce_to_eikonal, solve_general
from .io import (dump_json, dump_value_function, edge_csv, graph_to_dict,
                 load_graph, load_value_function, point_from_obj, point_to_obj)
from .one_dim import (MonotoneReport, Profile1D, check_subsolution_monotone,
                      check_supersolution_monotone, limit_profile, logcosh,
                      profile_csv, render_svg, uniform_grid, viscous_solution,
                      weak_solution_zoo, zoo_zero_set)
from .optical import OpticalMap, StoredSolution, optical_length
from .slopes import (DistanceTestFunction, MongeReport, SlopeEstimate,
                     distance_test_slope, monge_samples_csv,
                     semiconcave_slope_check, slopes, verify_monge)
from .solver import (BoundaryData, ValueFunction, boundary_modulus,
                     check_compatibility, solve, verify_dpp, verify_suboptimality)
from .spaces import FiniteMetricSpace, parse_value_vector

__version__ = "0.1.0"

__all__ = [
    "BoundaryData", "CoercivityProbeFailed", "Constant", "CostField", "Curve",
    "DistanceField", "DistanceTestFunction", "EdgeInterior", "EdgeRec", "EikographError",
    "EkelandRecord", "FiniteMetricSpace", "Germ", "GraphFormatError",
    "Hamiltonian", "HamiltonianRejection", "ImproperHamiltonian", "InputError", "Linear",
    "MetricGraph", "MongeReport", "MonotoneReport", "NoSubsolution", "NonmonotoneHamiltonian",
    "OpticalMap",
    "PreconditionError", "Profile1D", "ProfileError", "RecordError", "Samples", "SlopeEstimate",
    "StoredSolution", "UnreachableError", "ValueFunction", "VerificationError",
    "Vertex", "VertexRec", "boundary_modulus", "catalog",
    "check_compatibility", "check_subsolution_monotone",
    "check_supersolution_monotone", "distance_test_slope",
    "dump_json", "dump_value_function", "edge_csv",
    "ekeland_maximize", "ekeland_point", "graph_to_dict",
    "kruzkov", "limit_profile", "load_graph", "load_value_function", "logcosh",
    "monge_samples_csv", "optical_length", "parse_value_vector",
    "point_from_obj", "point_to_obj", "profile_csv", "random_curve", "reduce_to_eikonal",
    "render_svg", "semiconcave_slope_check", "slopes", "solve",
    "solve_general", "uniform_grid", "verify_dpp", "verify_monge",
    "verify_suboptimality", "viscous_solution", "weak_solution_zoo", "zoo_zero_set",
]
