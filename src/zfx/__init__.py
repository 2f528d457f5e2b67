"""Exact zero forcing profiles, distance-hereditary structure, canonical
split decompositions, and path-extremality verification on small-graph
corpora."""

from .errors import (
    CapacityError,
    Graph6ParseError,
    InvariantViolation,
    TraceError,
    TreeError,
)
from .forcing import ZfProfile, closure, is_forcing, zf_profile
from .extremal import (
    ExtremalVerdict,
    attach_pendants,
    audit_leaf_recurrence,
    check_path_extremal,
    check_pendant_extension,
    path_z,
    path_zprime,
    twin_shortcut,
)
from .dh import EliminationTrace, TraceStep, dh_metric_oracle, recognize_dh, replay_trace
from .graphs import (
    Graph,
    GraphKind,
    are_isomorphic,
    bits,
    canonical_form,
    classify_kind,
    enumerate_graphs,
    find_leaf,
    find_twin_pair,
    graph_from_edges,
    induced_subgraph,
    is_connected,
    make_complete,
    make_cycle,
    make_path,
    make_star,
    mask_of,
    parse_graph6,
    write_graph6,
)
from .splitdec import (
    Bag,
    DecompositionSummary,
    GraphLabelledTree,
    PrimeCoreResult,
    Split,
    classify_leaf_bag,
    decompose,
    dump_tree,
    extract_prime_core,
    find_split,
    peel,
    pick_peelable_bag,
    reconstruct,
    summarize,
    twin_from_leaf_bag,
    validate_reduced,
)
from .kernels import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"
