"""Exact chamber structure and inflation planning for the normalized
symplectic cone of one-point blow-ups of irrational ruled surfaces."""

from .cone import (ChamberId, FigureModel, NormalizedClass, Wall, active_walls,
                   area, chamber_of, figure_data, is_valid, normalized,
                   validity_violations)
from .discrepancies import detected_discrepancies
from .gromov import (Decomposition, gromov_invariant, gromov_nonzero_criterion,
                     section_decompositions, virtual_dim_k)
from .inflation import (InflationStep, RawClass, inflate, normalize,
                        pd_area_vector, t_range)
from .lattice import (B, E, F, ClassVector, SurfaceParams, adjunction_genus,
                      canonical_class, codim, pair, parse_class)
from .planner import (InflationPlan, PlanError, plan, plan_left_open,
                      plan_left_stratum, plan_right, plan_vertical,
                      stratum_left_parameter, verify_stability)
from .rationals import format_rational, parse_rational
from .strata import (OPEN_LABEL, StratumLabel, label_for, negative_classes,
                     stratum_labels, wide_negative_classes)

__version__ = "0.1.0"

__all__ = [
    "B", "E", "F", "ChamberId", "ClassVector", "Decomposition", "FigureModel",
    "InflationPlan", "InflationStep", "NormalizedClass", "OPEN_LABEL",
    "PlanError", "RawClass", "StratumLabel", "SurfaceParams", "Wall",
    "active_walls", "adjunction_genus", "area", "canonical_class",
    "chamber_of", "codim", "detected_discrepancies", "figure_data",
    "format_rational", "gromov_invariant", "gromov_nonzero_criterion",
    "inflate", "is_valid", "label_for", "negative_classes", "normalize",
    "normalized", "pair", "parse_class", "parse_rational", "pd_area_vector",
    "plan", "plan_left_open", "plan_left_stratum", "plan_right",
    "plan_vertical", "section_decompositions", "stratum_labels",
    "stratum_left_parameter", "t_range", "validity_violations",
    "verify_stability", "virtual_dim_k", "wide_negative_classes",
]
