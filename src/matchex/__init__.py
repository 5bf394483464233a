"""Multigraph maximum-matching toolkit.

Build counterexample families, verify exposed-pair common-neighbor
properties by exhaustive enumeration and structural certificates, and
hunt random regular graphs for new counterexamples.
"""

from .families import (
    FAMILIES,
    DegreeProfile,
    FamilySpec,
    FamilyStats,
    build_B,
    build_F,
    build_G,
    build_H,
    build_family,
    expected_stats,
)
from .hunt import (
    HuntConfig,
    HuntItem,
    HuntSummary,
    GenerationError,
    derive_item_seed,
    format_summary,
    hunt,
    random_regular_graph,
)
from .matching import (
    EnumerationStats,
    GallaiEdmonds,
    Matching,
    MatchingAnalysis,
    TutteBergeWitness,
    analyze,
    tutte_berge_witness,
    visit_maximum_matchings,
)
from .multigraph import (
    Copy,
    Hub,
    MGFParseError,
    Multigraph,
    Pair,
    Plain,
    VertexLabel,
    export_dot,
    parse_mgf,
    serialize_mgf,
)
from .verify import (
    DEFAULT_CAP,
    HubClass,
    MatchingWitness,
    PairMode,
    StrongCertificate,
    Verdict,
    VerificationReport,
    WeakCertificate,
    conjecture_holds,
    hub_classes_from_labels,
    is_counterexample,
    strong_counterexample_certificate,
    weak_counterexample_certificate,
)

__version__ = "0.1.0"
