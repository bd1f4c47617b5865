"""Executable model of a programmable switch data plane.

The package is layered: bit-exact packet formats at the bottom, the
two pipelines and the traffic manager engines above them, a
whole-switch step machine with an explicit decision oracle, bundled
applications, and a relational checker that audits recorded traces.
"""

from .packet_format import (
    BitString, Environment, ExtractStatus, Format, HeaderType, TypedValue,
    UNBOUNDED, advance, encode, extract, format_width, match_report, matches,
    reconstruct, seq,
)
from .headers import (
    ETHERNET, INTRINSIC_META, IPV4, PORT_META, SAMPLE_HEADER, SAMPLE_MARKER,
    TCP, UDP, build_packet, sampled_packet_format, standard_packet_format,
)
from .pipeline import (
    Components, EgressIndication, MirrorId, ParsedData, TmMeta,
    egress_pipeline, ingress_pipeline,
)
from .engines import (
    EgressMeta, L1Node, McConfig, PktGenConfig, PktGenState, QacAlwaysReady,
    QacMinimal, multicast_engine, replication_engine, resolve_lag,
)
from .switch import (
    Arrival, FifoDrainOracle, Oracle, RandomOracle, ReplayOracle, SwitchConfig,
    SwitchQueues, SwitchState, Trace, TraceStep, make_oracle, process_packet,
    Run, run, write_trace,
)
from .apps import (
    AppBundle, FirewallConfig, IdentityConfig, SamplerConfig, app_from_config, firewall_app,
    identity_app, initial_switch_state, sampler_app, switch_config,
)
from .checker import (
    ALL_CLAUSES, CLAUSES, PreconditionUnmet, Verdict, check_step, check_trace,
    dense_flow_check, firewall_freshness_check, format_acceptance_check,
    langsec_check, langsec_trace_check, normal_packet_relation,
    parser_oblivious_check, sampler_spec_check, sampler_trace_check,
    special_packet_relation,
)

__version__ = "0.1.0"
