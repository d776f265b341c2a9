"""Induced-subgraph order toolkit.

Graphs, the induced-subgraph quasi-order and its labelled refinement,
clique-width-preserving operations, k-uniform templates, antichain
families, decomposition certificates, and the bigenic classification
tables, each with executable verification.
"""

from .graphs import (
    Graph,
    Graph6Error,
    GraphSpecError,
    biclique,
    build,
    complement,
    complete_graph,
    connected_components,
    cycle_graph,
    decode_graph6,
    delete_vertices,
    disjoint_union,
    empty_graph,
    encode_graph6,
    from_json_dict,
    induced,
    is_bipartite,
    path_graph,
    subdivided_claw,
    to_json_dict,
)
from .order import (
    FreeResult,
    LabelledGraph,
    QuasiOrder,
    SearchBudget,
    SearchBudgetExceeded,
    induced_embed,
    in_class_S,
    is_free,
    is_linear_forest,
    labelled_embed,
)
from .ops import (
    BipartiteComplement,
    DeleteVertex,
    OpScript,
    OpScriptError,
    SubgraphComplement,
    apply_script,
    bipartite_complement,
    split_labels,
    subgraph_complement,
)
from .uniform import (
    UniformTemplate,
    UniformWitness,
    complement_template,
    expand_template,
    is_k_uniform,
    restrict_witness,
    transport_bipartite,
    transport_complement,
    uniformicity,
    verify_witness,
    witness_for_expansion,
)
from .antichains import (
    FAMILIES,
    FamilyReport,
    family_member,
    gen_thm51,
    gen_thm52,
    reconstruct_thm52,
    thm51_parts,
    thm52_parts,
    verify_family,
)
from .structure import (
    DecompositionReport,
    RouteError,
    decompose_c4,
    decompose_c5,
    decompose_k5,
    route,
)
from .classifier import (
    ClassPair,
    ClassStatus,
    audit_open_lists,
    classify,
    classify_cw,
    classify_wqo,
    equivalent_pairs,
)

__version__ = "0.1.0"
