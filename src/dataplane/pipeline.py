"""Pipeline component interface and the ingress/egress compositions.

A pipeline is three components run back to back: parser, match-action
control, deparser.  Components are deterministic state-transition
functions; each owns one slot of the pipeline's state triple and must
not touch the other slots.

Determinism is load-bearing twice.  The byte-identical replay of
`dataplane check` relies on it, and so does the checker: it takes a
step's recorded pipeline call as its own recomputation when the
function, components and arguments are the same.  A component whose
result depends on anything but its arguments (a clock, a global, a
random source) would make both unsound.  Components also keep state,
so unlike the engines (see `engines`) their results are not tabled:
only a step's own recorded call stands in for a rerun.  A component
may memoise a pure helper of its own, as the firewall does its hash
positions.

Data shapes (apps register functions with exactly these signatures):

  ingress parser    (p: BitString, s) -> (ParsedData | None, s')
  ingress control   ((t, in_port, slots: dict), s) -> ((TmMeta, slots'), s')
  ingress deparser  (slots: dict, s) -> (h3: BitString, s')
  egress parser     ((em: EgressMeta, p: BitString), s) -> (ParsedData | None, s')
  egress control    ((em: EgressMeta, slots: dict), s) -> (slots', s')
  egress deparser   (slots: dict, s) -> ((EgressIndication, h3: BitString), s')

The payload never reaches a control or deparser: whatever the parser
returned as ``ParsedData.payload`` is appended verbatim to the deparsed
headers, so both pipelines emit ``h3 + payload``.  Resubmission is
modelled only as egress recirculation and the mirror table is empty, so
ingress emits neither an indication nor a mirror session.
"""

from __future__ import annotations

from typing import Callable, Optional

from .packet_format import BitString, TypedValue
from .records import record


class EgressParseFailure(Exception):
    """The egress parser rejected a packet.  Unreachable for packets our
    own ingress produced; kept as a loud diagnostic."""


@record
class ParsedData:
    """Parser output: named header slots plus the unparsed payload.
    A header slot is valid exactly when its name is present."""

    slots: dict[str, TypedValue]
    payload: BitString


@record
class TmMeta:
    """Traffic manager intent produced by the ingress control.

    No field has a default: every control must initialize all of them
    explicitly.  drop=1 makes downstream engines ignore the forwarding
    fields entirely.
    """

    ucast_egress_port: Optional[int]
    copy_to_cpu: int
    mcast_grp_a: int
    mcast_grp_b: int
    level1_exclusion_id: int
    level2_exclusion_id: int
    rid: int
    drop: int

    def __post_init__(self) -> None:
        if self.ucast_egress_port is not None and not 0 <= self.ucast_egress_port < 512:
            raise ValueError(f"ucast_egress_port out of 9-bit range: {self.ucast_egress_port}")
        for name, width in (("copy_to_cpu", 1), ("mcast_grp_a", 16), ("mcast_grp_b", 16),
                            ("level1_exclusion_id", 16), ("level2_exclusion_id", 9),
                            ("rid", 16), ("drop", 1)):
            v = getattr(self, name)
            if not 0 <= v < (1 << width):
                raise ValueError(f"{name} out of {width}-bit range: {v}")


@record
class EgressIndication:
    recirculate: int = 0

    def __post_init__(self) -> None:
        if self.recirculate not in (0, 1):
            raise ValueError(f"recirculate must be 0 or 1: {self.recirculate}")


ComponentFn = Callable  # step(d_in, s) -> (d_out, s')


@record
class Components:
    """The six component functions of one application."""

    in_parser: ComponentFn
    in_control: ComponentFn
    in_deparser: ComponentFn
    e_parser: ComponentFn
    e_control: ComponentFn
    e_deparser: ComponentFn


def ingress_pipeline(comps: Components, t: int, in_port: Optional[int],
                     p: BitString, state: tuple
                     ) -> tuple[Optional[tuple[TmMeta, BitString]], tuple]:
    """Run parser -> control -> deparser on one arriving packet.

    Returns (None, state') when the parser rejects; the control and
    deparser state slots are then returned untouched.  The tick and
    arrival port bypass the parser and feed the control directly.
    """
    s_ip, s_ic, s_id = state
    parsed, s_ip2 = comps.in_parser(p, s_ip)
    if parsed is None:
        return None, (s_ip2, s_ic, s_id)
    (tm, slots2), s_ic2 = comps.in_control((t, in_port, parsed.slots), s_ic)
    h3, s_id2 = comps.in_deparser(slots2, s_id)
    return (tm, h3 + parsed.payload), (s_ip2, s_ic2, s_id2)


def egress_pipeline(comps: Components, em, p_e: BitString, state: tuple
                    ) -> tuple[tuple[EgressIndication, BitString], tuple]:
    """Run the egress chain on one scheduled packet.

    ``em`` is the scheduler metadata (an engines.EgressMeta); the parser
    and control both see it.  Raises EgressParseFailure on parser
    reject.
    """
    s_ep, s_ec, s_ed = state
    parsed, s_ep2 = comps.e_parser((em, p_e), s_ep)
    if parsed is None:
        raise EgressParseFailure(f"egress parser rejected a {len(p_e)}-bit packet")
    slots2, s_ec2 = comps.e_control((em, parsed.slots), s_ec)
    (ind, h3), s_ed2 = comps.e_deparser(slots2, s_ed)
    return (ind, h3 + parsed.payload), (s_ep2, s_ec2, s_ed2)
