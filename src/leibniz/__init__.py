"""Exact Leibniz brackets, Leibniz algebroids, and their dynamics.

Public surface, by module:

- :mod:`leibniz.poly` — sparse exact-rational polynomials on charts with
  base and fiber coordinates;
- :mod:`leibniz.brackets` — 2-contravariant tensor fields, their brackets,
  vector fields, and derivation/annihilation certificates;
- :mod:`leibniz.algebroid` — fiber-linear structures (structure functions
  plus two anchors), their dual-chart tensors, section brackets, the
  constructed symmetric partner, and the flows they generate;
- :mod:`leibniz.dynamics` — ``OdeSystem(chart, vf)`` for any structure's
  vector field, deterministic integrators, observables, export;
- :mod:`leibniz.catalog` — built-in example systems with transcribed
  reference flows and exact verification reports;
- :mod:`leibniz.cli` — the ``leibniz`` command (list / verify / simulate /
  export / plot).
"""

from .algebroid import (
    AlgebroidStructure,
    Prop4DualTensor,
    Section,
    algebroid_vf,
    classify_algebroid,
    lambda_from_structure,
    lift_section,
    metriplectic_algebroid_vf,
    prop4_construct_dual_tensor,
    section_bracket,
    structure_from_json,
    structure_to_json,
    theorem1_check,
)
from .brackets import (
    MetriplecticPair,
    TensorField2,
    almost_leibniz_vf,
    annihilator_check,
    annihilator_residuals,
    hamiltonian_vf,
    prop2_equivalence_check,
)
from .catalog import (
    CatalogEntry,
    VerifyReport,
    catalog_build,
    catalog_list,
    catalog_verify,
    entry_certifications,
)
from .dynamics import (
    IntegratorConfig,
    OdeSystem,
    Trajectory,
    integrate,
    lie_derivative,
    observe,
    trajectory_from_json,
    trajectory_to_csv,
    trajectory_to_json,
)
from .poly import Chart, Poly, embed, grad, parse_poly, restrict

__all__ = [
    # poly
    "Chart",
    "Poly",
    "parse_poly",
    "embed",
    "restrict",
    "grad",
    # brackets
    "TensorField2",
    "MetriplecticPair",
    "hamiltonian_vf",
    "almost_leibniz_vf",
    "annihilator_check",
    "annihilator_residuals",
    "prop2_equivalence_check",
    # algebroid
    "AlgebroidStructure",
    "Section",
    "Prop4DualTensor",
    "lambda_from_structure",
    "lift_section",
    "section_bracket",
    "algebroid_vf",
    "metriplectic_algebroid_vf",
    "theorem1_check",
    "classify_algebroid",
    "prop4_construct_dual_tensor",
    "structure_to_json",
    "structure_from_json",
    # dynamics
    "OdeSystem",
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "lie_derivative",
    "observe",
    "trajectory_to_csv",
    "trajectory_to_json",
    "trajectory_from_json",
    # catalog
    "CatalogEntry",
    "VerifyReport",
    "catalog_list",
    "catalog_build",
    "catalog_verify",
    "entry_certifications",
]

__version__ = "0.1.0"
