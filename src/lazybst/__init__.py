"""Static binary search trees tuned for lazy-finger search.

A lazy finger starts each search where the previous one ended.  This
package builds the trees that are optimal for that model (and for the
classic start-at-the-root model), evaluates workloads against them,
computes the entropy quantities that bound their cost, and generates
the adversarial and stochastic workloads the bounds are about.
"""

from .cost import CostReport, cost_from_frequencies, run_lazy_finger, run_root_finger
from .entropy import WeightVector, conditional_entropy, df_bound, entropy, \
    weights_from_tree
from .errors import InvalidInputError, MalformedInputError, ToolError, UsageError
from .model import NO_NODE, SearchSequence, SearchStats, StaticTree, build_balanced, \
    build_tree, validate_tree
from .multitree import MultiTree, SuccessorTree, build_multitree, node_count, probe, \
    run_multitree
from .optimize import OptResult, mehlhorn_build, optimal_lazy_dp, optimal_root_dp, \
    treap_build
from .seqgen import GeneratorSpec, frequencies_from_sequence, generate

__version__ = "0.1.0"

__all__ = [
    "CostReport", "GeneratorSpec", "InvalidInputError", "MalformedInputError",
    "MultiTree", "NO_NODE", "OptResult", "SearchSequence", "SearchStats",
    "StaticTree", "SuccessorTree", "ToolError", "UsageError", "WeightVector",
    "build_balanced", "build_multitree", "build_tree", "conditional_entropy",
    "cost_from_frequencies", "df_bound", "entropy", "frequencies_from_sequence",
    "generate", "mehlhorn_build", "node_count", "optimal_lazy_dp", "optimal_root_dp",
    "probe", "run_lazy_finger", "run_multitree", "run_root_finger", "treap_build", "validate_tree", "weights_from_tree",
]
