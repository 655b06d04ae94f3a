"""edgesep: certified balanced edge separators for minor-free graphs.

Pipeline: partition the line graph of a bounded-degree K_t-minor-free graph
into a clique-rooted bounded-treewidth graph of small parts, blow the
partition's tree-decomposition up to the line graph, and read weighted
balanced edge separators and isoperimetric witnesses off one bag.  Inputs
containing a K_t minor yield an explicit branch-set certificate instead.
"""

from . import formats, generators
from .errors import FormatError, IncidentError, OracleLimitError, ParameterError
from .graphs import (EdgeSet, Graph, LineView, VertexSet, bfs_layers,
                     components, edges_between, induced_edge_ids, line_graph,
                     max_degree, neighborhood, validate_model)
from .oracles import (LemmaCheckReport, OracleLimits, edge_lemma_contract_check,
                      exact_isoperimetric, exact_treewidth, has_kt_minor,
                      min_balanced_edge_separator)
from .partition import (KtCertificate, Params, PartitionResult, RootedInstance,
                        RootedPartition, check_instance, induction_step,
                        line_graph_tree_decomposition,
                        partition_line_graph, validate_certificate,
                        validate_embedding, validate_partition)
from .separator import (EdgeSeparatorResult, IsoperimetricWitness,
                        balanced_edge_separator, isoperimetric_witness,
                        separator_from_partition, uniform_weights)
from .tree_or_sep import (TreeOrSeparator, edge_tree_or_separator,
                          minimalize_edge_separator, vertex_tree_or_separator)
from .treedecomp import (Decomposition, TreeDecomposition, attach_vertex, glue,
                         product_blowup, validate_decomposition, width)

__version__ = "0.1.0"
