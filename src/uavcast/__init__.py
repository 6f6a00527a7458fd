"""Clustered UAV multicast: geometry, link analysis, and protocol simulation.

A macro base station multicasts to a swarm of UAVs deployed as a Poisson
cluster process.  The package provides the closed-form distance
distributions and performance metrics for that geometry, a simulation of
a cluster-based packet recovery protocol (plus ACK
retransmission and random-network-coding baselines), and studies that
validate the analysis against simulation.
"""

from .analysis import (
    average_ase,
    average_delay,
    coverage_probability,
    request_success_probability,
    transmission_success_probability,
)
from .channel import (
    LinkKind,
    PathLossParams,
    RadioParams,
    db_to_linear,
    decode_probability,
    mean_received_power,
    path_loss_db,
)
from .config import ScenarioConfig
from .distributions import (
    ClusterGeometry,
    DistanceDistribution,
    empirical_distance_check,
    offset_support,
    pdf_bs_member_distance,
    pdf_member_pair_distance,
    pdf_offset_distance,
    sampler_self_check,
)
from .errors import IntegrityError, NumericError, ParameterError, UavcastError
from .experiments import (
    MetricRow,
    MetricTable,
    design_radius,
    replay_drops,
    replay_epoch,
    run_ase_study,
    run_delay_study,
    run_design_insight_study,
    run_validation_study,
)
from .geometry import (
    cluster_peer_count,
    write_topology_csv,
)
from .protocol import (
    Event,
    EventKind,
    SchemeOutcome,
    SimParams,
    run_epochs,
    write_event_log,
)

__version__ = "0.1.0"
