"""Triangular biembeddings of complete graphs: rotation systems, current
graphs, the K_{24s+13} family, and self-complementary doublings."""

from .currents import (
    CurrentGraph,
    CurrentGraphReport,
    circuit_log,
    current_classes,
    derive_embedding,
    parse_current_graph_file,
    serialize_current_graph,
    validate_current_graph,
)
from .embeddings import (
    FaceSet,
    RotationReport,
    RotationSystem,
    SurfaceStats,
    Violation,
    parse_rotation_file,
    serialize_rotation,
    surface_stats,
    trace_faces,
    validate_rotation,
)
from .family import (
    CurrentPair,
    FamilyParameter,
    build_pair,
    current_sets,
    family_genus,
    search_pair,
    verify_family,
    verify_pair,
)
from .graphs import (
    DifferenceSet,
    Graph,
    Permutation,
    complement,
    is_antimorphism,
    is_connected,
    make_circulant,
    make_complete,
    make_graph,
    parse_graph_file,
    serialize_graph,
)
from .selfcomp import (
    AntimorphismForm,
    SeedNeighborhood,
    build_from_seed,
    load_bundled_table,
    relabel,
    search_triangular,
    standard_antimorphism,
    verify_table,
)
from .verify import (
    BiembeddingReport,
    HalfStats,
    bichromatic_upper_bound,
    biembedding_edge_bound,
    bigenus_lower_bound,
    render_report,
    verify_biembedding,
    with_stages,
)

__version__ = "0.1.0"
