"""Divisor theory on ribbon graphs: spanning-tree/break-divisor bijections,
two Picard-group actions on spanning trees, planar duality, and a theorem
verification suite."""

import sys

from .bernardi import (
    Tour,
    alpha_left,
    alpha_right,
    bernardi_act,
    bernardi_beta,
    bernardi_tour,
    beta_table,
    shift_difference_check,
)
from .breakdiv import (
    BreakDivisor,
    break_representative,
    enumerate_break_divisors,
    is_break_divisor,
    is_compatible,
)
from .divisors import (
    PicardGroup,
    are_equivalent,
    laplacian_of,
    parse_divisor,
    picard_group,
    q_reduce,
    tree_count_determinant,
)
from .duality import (
    DualCorrespondence,
    dual_graph,
    dual_tree,
    duality_square_check,
    psi_class,
)
from .errors import TorsorError
from .ribbon import (
    Dart,
    FaceDecomposition,
    RibbonGraph,
    fundamental_cycle,
    parse_ribbon_graph,
    spanning_trees,
    trace_faces,
)
from .rotor import (
    all_cycles_reversible,
    cycle_is_reversible,
    rotor_act,
    rotor_move,
    rotors_from_tree,
    simple_cycles,
    unicycle_orbit,
)
from .suite import (
    SuiteReport,
    compare_bernardi_vertices,
    compare_torsors,
    run_theorem_suite,
    search_conjecture,
)


def clear_caches() -> None:
    """Empty every module-level cache of the package: the ``lru_cache`` and
    ``rotation_free`` caches.  The next call then computes from scratch, as in
    a new process.  The graph intern table holds no strong references and is
    left alone, so a graph still referenced before the reset is the one an
    equal constructor call returns after it."""
    prefix = __name__ + "."
    for name, module in list(sys.modules.items()):
        if name.startswith(prefix):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


__all__ = [
    "Dart",
    "RibbonGraph",
    "FaceDecomposition",
    "Tour",
    "BreakDivisor",
    "PicardGroup",
    "DualCorrespondence",
    "SuiteReport",
    "TorsorError",
    "parse_ribbon_graph",
    "parse_divisor",
    "trace_faces",
    "spanning_trees",
    "fundamental_cycle",
    "laplacian_of",
    "q_reduce",
    "are_equivalent",
    "picard_group",
    "tree_count_determinant",
    "is_compatible",
    "is_break_divisor",
    "enumerate_break_divisors",
    "break_representative",
    "bernardi_tour",
    "bernardi_beta",
    "alpha_right",
    "alpha_left",
    "bernardi_act",
    "beta_table",
    "shift_difference_check",
    "rotors_from_tree",
    "rotor_move",
    "rotor_act",
    "unicycle_orbit",
    "cycle_is_reversible",
    "simple_cycles",
    "all_cycles_reversible",
    "dual_graph",
    "dual_tree",
    "psi_class",
    "duality_square_check",
    "compare_bernardi_vertices",
    "compare_torsors",
    "run_theorem_suite",
    "search_conjecture",
    "clear_caches",
]

__version__ = "1.0.0"
