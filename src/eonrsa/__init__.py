"""Throughput-maximizing routing and spectrum allocation for elastic optical
networks, solved by nested column generation over configuration columns."""

from .errors import (
    CapExceeded,
    ConflictDetected,
    EonRsaError,
    InvalidConfiguration,
    InvariantViolation,
    LimitsExceeded,
    ParseError,
    UnknownId,
    UnknownNode,
)
from .guardband import derived_pricing_requests
from .instance import (
    Instance,
    Request,
    aggregate_per_node_pair,
    generate_icton_style,
    generate_inoc_style,
    load_instance,
    save_instance,
)
from .lpsolver import LpSolution, MipSolution, Model, SolveStatus
from .master import (
    Configuration,
    Lightpath,
    MasterDuals,
    PricingRequest,
    ProvisioningPlan,
    RestrictedMaster,
    validate_configuration,
)
from .oracle import OracleSolution, oracle_max_reduced_cost, oracle_solve, verify_plan
from .pricing import PricingResult, price_slot
from .solver import Metrics, SolveConfig, SolveReport, certify, report_metrics, solve
from .topology import (
    BUILTIN_TOPOLOGIES,
    Path,
    Topology,
    builtin_topology,
    enumerate_simple_paths,
    shortest_path,
)

__version__ = "0.1.0"
