"""Combinatorics of monomial-labelled multigraphs: alignment tests,
thickness-function chart atlases, blowup rewriting, and stratified
families over normal-crossings bases."""

from .labels import (
    GeneratorSet,
    LaurentMonomial,
    Monomial,
    Valuation,
    power_equivalent,
    primitive_part,
    primitive_root,
)
from .graph import (
    Edge,
    GraphMorphism,
    LabelledGraph,
    WitnessNotFoundError,
    circuit_partition,
    circuit_witness,
    compose,
    contract,
    first_betti,
    specialise,
)
from .alignment import (
    AlignmentReport,
    ClassAlignment,
    check_alignment,
    is_aligned,
    is_irregularly_aligned,
    strong_alignment_level,
)
from .atlas import (
    Atlas,
    ChartPresentation,
    FibreReport,
    ThicknessFunction,
    TraitFactorisation,
    bezout,
    build_atlas,
    chart,
    closed_fibre,
    enumerate_thickness,
    is_thickness_function,
    overlap,
    overlap_edges,
    trait_factorisation,
    verify_chart_substitution,
)
from .resolution import (
    ResolutionStep,
    ResolutionTrace,
    RewriteRecord,
    blowup_step,
    delta,
    resolve,
)
from .strata import (
    ControllingReport,
    StratifiedFamily,
    specialisation_map,
    stratify,
    verify_controlling,
)

__all__ = [name for name in dir() if not name.startswith("_")]
