"""graphspine: exact systole geometry of finite metric graphs.

Enumerate systoles, test well-roundedness and the fill predicates, run the
spine retraction flow exactly, measure systole-preserving deformation spaces,
and check combinatorial maps, all in exact rational arithmetic.
"""

from .errors import GraphSpineError
from .graphs import (
    Cycle,
    Edge,
    MetricGraph,
    are_isomorphic,
    contract_forest,
    cycle_length,
    cycle_vertices,
    normalize_volume,
    parse_graph,
    rank,
    require_outer_space,
    serialize_graph,
)
from .cycles import (
    all_systoles,
    cycles_up_to_length,
    minimum_cycles,
)
from .homology import (
    LatticeVerdict,
    build_basis,
    cycle_class,
    is_well_rounded,
    smith_normal_form,
    systole_lattice,
)
from .fill import (
    Membership,
    SystoleProfile,
    SystoleSupport,
    classify_membership,
    geometrically_fills,
    systole_profile,
    systole_support,
    topologically_fills,
)
from .flow import (
    Event,
    FlowState,
    Trajectory,
    next_event,
    retract_to_spine,
)
from .deformation import (
    DeformationRecord,
    VcdRecord,
    local_deformation_dimension,
    systole_equality_system,
    vcd_witness,
)
from .maps import (
    CombinatorialMap,
    euler_relations,
    flag_transitivity,
    map_type_check,
    parse_map,
    serialize_map,
    systoles_equal_faces,
    trace_faces,
)
from .datasets import DATASET_NAMES, bundled_dataset, bundled_graph, dataset_properties

__version__ = "0.1.0"
