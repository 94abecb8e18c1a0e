"""Edge colorings with properly colored walks: constructions, verification,
and exact search."""

from .graphs import (ColoringMismatchError, ColoringResult, Digraph,
                     EdgeColoring, Graph, GraphFormatError, Walk,
                     bowtie_digraph, complete, cycle, cycle_with_feet,
                     directed_cycle, emit_graph, family_names, generate,
                     parse_coloring, parse_graph, path_graph, random_connected,
                     star, theta, two_triangles_shared_vertex)
from .decompose import (CoreComponent, CoreContraction, Decomposition,
                        bipartition, blocks, bridgeless_core, bridges,
                        contract_core_graph, cycle_connector, decomposition,
                        disjoint_odd_cycles, meets_two_bridge_rule,
                        rotate_cycle, shortest_odd_cycle, two_disjoint_paths)
from .orient import PathAnchoredOrientation, path_anchored_orientation, robbins_orientation
from .verify import (path_reachable, path_reachable_directed, verify_all_pairs,
                     verify_all_pairs_directed, walk_reachable,
                     walk_reachable_directed)
from .construct import (ConditionViolation, CycleFeetShape, ThetaSubgraph,
                        TwoOddLayout, classify_cycle_feet, color_bipartite2,
                        color_bridgeless2, color_cycle_feet2,
                        color_spanning_odd_cycle2, color_theta_block2,
                        color_tree, color_two_odd_cycles2, color_unicyclic3,
                        layout_from_cycles, pw_auto, reduce_theta)
from .exact import (BudgetExceededError, ExactResult, canonical_colorings,
                    connected_bipartite_graphs, connected_graphs,
                    exact_directed, exact_pp, exact_pw, exact_pw_pp,
                    labeled_trees)

__version__ = "0.1.0"
