//! The differential-test scenario model: a randomized kernel
//! configuration plus an interleaved sequence of traffic bursts and
//! netlink churn, with a JSON round-trip so shrunk failures can be
//! checked in as self-contained regression fixtures.

use linuxfp_ebpf::hook::HookPoint;
use linuxfp_json::{json, Value};
use linuxfp_platforms::Scenario;

/// Which interface a burst enters through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// The upstream (traffic-source facing) interface.
    Up,
    /// The downstream (next-hop facing) interface — reply traffic.
    Down,
    /// The bridge port station A sits behind; a scenario with a burst
    /// through either port gets a two-port bridge beside the router.
    BridgeA,
    /// The bridge port station B sits behind.
    BridgeB,
}

/// One packet of a burst, described by intent rather than bytes so the
/// builder can address it to whichever kernel is under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketSpec {
    /// A routed UDP flow to an allowed destination.
    Forward {
        /// Flow selector (picks the destination prefix and source port).
        flow: u64,
        /// Total frame length, 60..=1496.
        len: u16,
    },
    /// A UDP flow into the blacklist (fast-path drop when filtering).
    Blocked {
        /// Which blacklist rule's prefix to hit.
        rule: u32,
    },
    /// A UDP frame addressed to the DUT itself (slow-path delivery).
    ToHost {
        /// Source port.
        sport: u16,
    },
    /// An inside client's flow (masquerade workload).
    Client {
        /// Client selector (maps to 10.0.1.2..).
        client: u8,
        /// Flow selector.
        flow: u64,
    },
    /// A query to the ipvs virtual service.
    Vip {
        /// Source port (distinct ports are distinct flows).
        sport: u16,
    },
    /// A flow to the DNAT'd public destination.
    Dnat {
        /// Source port.
        sport: u16,
    },
    /// A reply from a routed server to a masqueraded flow.
    Reply {
        /// The flow whose destination sends the reply.
        server_flow: u64,
        /// Offset into the deterministic masquerade port sequence.
        port_off: u16,
    },
    /// A routed TCP SYN.
    Tcp {
        /// Flow selector.
        flow: u64,
    },
    /// A routed ICMP echo request.
    Icmp {
        /// Echo identifier (also picks the destination).
        id: u16,
    },
    /// A deliberately malformed frame (see [`MALFORMED_KINDS`]).
    Malformed {
        /// Index into [`MALFORMED_KINDS`].
        kind: u8,
        /// Flow selector for the template frame.
        flow: u64,
    },
    /// A routed TCP segment carrying an HTTP-ish payload (see
    /// [`HTTP_VARIANTS`] for the payload taxonomy).
    Http {
        /// Flow selector (picks the destination and source port).
        flow: u64,
        /// Index into [`HTTP_VARIANTS`].
        variant: u8,
    },
    /// A bridged UDP frame from the station behind the burst's ingress
    /// port to the station behind the other port.
    Station {
        /// Flow selector (picks the UDP source port).
        flow: u64,
    },
}

/// The HTTP payload taxonomy, by `Http::variant` index: a well-formed
/// allowed request, a request every L7 deny policy matches, a request
/// line split across segments, binary garbage, and an empty payload.
pub const HTTP_VARIANTS: &[&str] = &["allowed", "blocked", "split", "garbage", "empty"];

/// The malformed-frame taxonomy, by `Malformed::kind` index.
pub const MALFORMED_KINDS: &[&str] = &[
    "runt",
    "truncated-ipv4",
    "non-ipv4-ethertype",
    "bad-ip-version",
    "ttl-one",
    "bad-ipv4-checksum",
    "fragment",
];

/// One configuration change applied mid-stream through the same
/// standard APIs the controller watches over netlink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// `iptables -A FORWARD -d <blacklist[rule]> -j DROP`.
    IptAppend {
        /// Blacklist prefix index.
        rule: u32,
    },
    /// `iptables -F FORWARD`.
    IptFlush,
    /// `ip route add` for a prefix beyond the base set.
    RouteAdd {
        /// Prefix index offset past `base.prefixes`.
        i: u32,
    },
    /// `ip route del` for one of the base prefixes.
    RouteDel {
        /// Base prefix index (mod `base.prefixes`).
        i: u32,
    },
    /// `iptables -t nat -A PREROUTING ... -j DNAT` for a fresh port.
    NatAppendDnat {
        /// Public destination port to claim.
        dport: u16,
    },
    /// `iptables -t nat -F`.
    NatFlush,
    /// `ipset add blacklist <prefix[i]>` (ipset scenarios only).
    IpsetAdd {
        /// Blacklist prefix index.
        i: u32,
    },
    /// `ipvsadm -a` adding one more backend to the virtual service.
    IpvsAddBackend {
        /// Backend selector (maps to 10.0.2.13..).
        i: u8,
    },
    /// `ip route replace` of a base prefix with its existing next hop: a
    /// semantics-free netlink event (FRR resyncing over FPM does this
    /// constantly) that still invalidates every derived fast-path state.
    RouteReplace {
        /// Base prefix index (mod `base.prefixes`).
        i: u32,
    },
    /// `ipset flush blacklist` (ipset scenarios only): every member gone
    /// in one event, previously-blocked flows start forwarding.
    IpsetFlush,
    /// Shrinks the conntrack table capacity (`nf_conntrack_max`), so new
    /// tracked flows evict the least-recently-seen entries.
    CtCap {
        /// The new capacity (small, to force eviction pressure).
        cap: u32,
    },
    /// A scratch route added and deleted back-to-back: net configuration
    /// unchanged, but the controller resynthesizes and swaps the FPM
    /// program twice.
    FpmSwap,
    /// Appends one L7 deny policy for a `/blocked/<i>` URL prefix.
    L7Append {
        /// Blocked-prefix index.
        i: u32,
    },
    /// Flushes the L7 policy table (and every pinned connection
    /// verdict) in one event.
    L7Flush,
}

/// One step of a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Inject a burst of frames through one interface.
    Burst {
        /// Ingress side.
        dir: Dir,
        /// The frames, in order.
        packets: Vec<PacketSpec>,
    },
    /// Reconfigure both kernels, then let the controller react.
    Churn(ChurnOp),
    /// Advance virtual time on both kernels.
    Advance {
        /// Nanoseconds to advance.
        ns: u64,
    },
    /// Run periodic slow-path housekeeping on both kernels.
    Housekeeping,
}

/// A complete differential scenario: what to configure and what to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffScenario {
    /// Human-readable label (seed tag or fixture name).
    pub name: String,
    /// The generator seed this scenario came from (0 for hand-written).
    pub seed: u64,
    /// The base router/gateway configuration.
    pub base: Scenario,
    /// Hook point for the LinuxFP side.
    pub hook: HookPoint,
    /// Whether an ipvs virtual service (VIP + 3 backends) is configured.
    pub ipvs: bool,
    /// Whether a DNAT rule for the public service destination is
    /// configured at start-of-day.
    pub dnat: bool,
    /// RSS shards both kernels steer over (`net.linuxfp.rss_shards`).
    pub shards: u32,
    /// Whether fast paths deploy optimized (`net.linuxfp.opt`).
    pub opt: bool,
    /// The interleaved traffic / churn / time steps.
    pub ops: Vec<Op>,
}

// ---------------------------------------------------------------------
// JSON round-trip (fixture format)
// ---------------------------------------------------------------------

fn dir_str(d: Dir) -> &'static str {
    match d {
        Dir::Up => "up",
        Dir::Down => "down",
        Dir::BridgeA => "bridge_a",
        Dir::BridgeB => "bridge_b",
    }
}

fn packet_json(p: &PacketSpec) -> Value {
    let (kind, a, b) = match *p {
        PacketSpec::Forward { flow, len } => ("forward", flow, u64::from(len)),
        PacketSpec::Blocked { rule } => ("blocked", u64::from(rule), 0),
        PacketSpec::ToHost { sport } => ("to_host", u64::from(sport), 0),
        PacketSpec::Client { client, flow } => ("client", u64::from(client), flow),
        PacketSpec::Vip { sport } => ("vip", u64::from(sport), 0),
        PacketSpec::Dnat { sport } => ("dnat", u64::from(sport), 0),
        PacketSpec::Reply {
            server_flow,
            port_off,
        } => ("reply", server_flow, u64::from(port_off)),
        PacketSpec::Tcp { flow } => ("tcp", flow, 0),
        PacketSpec::Icmp { id } => ("icmp", u64::from(id), 0),
        PacketSpec::Malformed { kind, flow } => ("malformed", u64::from(kind), flow),
        PacketSpec::Http { flow, variant } => ("http", flow, u64::from(variant)),
        PacketSpec::Station { flow } => ("station", flow, 0),
    };
    json!({"kind": kind, "a": a, "b": b})
}

fn churn_json(c: &ChurnOp) -> Value {
    let (kind, a) = match *c {
        ChurnOp::IptAppend { rule } => ("ipt_append", u64::from(rule)),
        ChurnOp::IptFlush => ("ipt_flush", 0),
        ChurnOp::RouteAdd { i } => ("route_add", u64::from(i)),
        ChurnOp::RouteDel { i } => ("route_del", u64::from(i)),
        ChurnOp::NatAppendDnat { dport } => ("nat_append_dnat", u64::from(dport)),
        ChurnOp::NatFlush => ("nat_flush", 0),
        ChurnOp::IpsetAdd { i } => ("ipset_add", u64::from(i)),
        ChurnOp::IpvsAddBackend { i } => ("ipvs_add_backend", u64::from(i)),
        ChurnOp::RouteReplace { i } => ("route_replace", u64::from(i)),
        ChurnOp::IpsetFlush => ("ipset_flush", 0),
        ChurnOp::CtCap { cap } => ("ct_cap", u64::from(cap)),
        ChurnOp::FpmSwap => ("fpm_swap", 0),
        ChurnOp::L7Append { i } => ("l7_append", u64::from(i)),
        ChurnOp::L7Flush => ("l7_flush", 0),
    };
    json!({"kind": kind, "a": a})
}

impl DiffScenario {
    /// Renders the scenario as a pretty-printed JSON fixture.
    pub fn to_json(&self) -> String {
        linuxfp_json::to_string_pretty(&self.to_json_value())
    }

    /// The fixture document as a JSON value, for callers that attach
    /// extra keys (e.g. the `trace` of a captured divergence) before
    /// serializing. [`DiffScenario::from_json`] ignores unknown keys, so
    /// decorated fixtures still round-trip.
    pub fn to_json_value(&self) -> Value {
        let ops: Vec<Value> = self
            .ops
            .iter()
            .map(|op| match op {
                Op::Burst { dir, packets } => {
                    let pkts: Vec<Value> = packets.iter().map(packet_json).collect();
                    json!({"burst": {"dir": dir_str(*dir), "packets": pkts}})
                }
                Op::Churn(c) => json!({"churn": churn_json(c)}),
                Op::Advance { ns } => json!({"advance_ns": *ns}),
                Op::Housekeeping => json!({"housekeeping": true}),
            })
            .collect();
        let doc = json!({
            "name": self.name.as_str(),
            "seed": self.seed,
            "base": {
                "prefixes": self.base.prefixes,
                "filter_rules": self.base.filter_rules,
                "use_ipset": self.base.use_ipset,
                "masquerade": self.base.masquerade,
                "l7_policies": self.base.l7_policies,
            },
            "hook": match self.hook { HookPoint::Xdp => "xdp", HookPoint::Tc => "tc" },
            "ipvs": self.ipvs,
            "dnat": self.dnat,
            "shards": self.shards,
            "opt": self.opt,
            "ops": ops,
        });
        doc
    }

    /// Parses a fixture produced by [`DiffScenario::to_json`].
    pub fn from_json(text: &str) -> Result<DiffScenario, String> {
        let doc = linuxfp_json::from_str(text).map_err(|e| e.to_string())?;
        let obj = doc.as_object().ok_or("fixture root must be an object")?;
        let base_v = doc.get("base").ok_or("missing base")?;
        let base = Scenario {
            prefixes: field_u64(base_v, "prefixes")? as u32,
            filter_rules: field_u64(base_v, "filter_rules")? as u32,
            use_ipset: field_bool(base_v, "use_ipset")?,
            masquerade: field_bool(base_v, "masquerade")?,
            // Absent in fixtures checked in before the L7 subsystem.
            l7_policies: base_v["l7_policies"].as_u64().unwrap_or(0) as u32,
        };
        let hook = match doc["hook"].as_str() {
            Some("xdp") => HookPoint::Xdp,
            Some("tc") => HookPoint::Tc,
            other => return Err(format!("bad hook {other:?}")),
        };
        let ops_v = doc["ops"].as_array().ok_or("missing ops array")?;
        let mut ops = Vec::with_capacity(ops_v.len());
        for (i, op_v) in ops_v.iter().enumerate() {
            ops.push(parse_op(op_v).map_err(|e| format!("op {i}: {e}"))?);
        }
        Ok(DiffScenario {
            name: doc["name"].as_str().unwrap_or("unnamed").to_string(),
            seed: obj.get("seed").and_then(Value::as_u64).unwrap_or(0),
            base,
            hook,
            ipvs: field_bool(&doc, "ipvs")?,
            dnat: field_bool(&doc, "dnat")?,
            // Absent in fixtures recorded before scenarios carried their
            // mode: those ran in the default one.
            shards: obj.get("shards").and_then(Value::as_u64).unwrap_or(1) as u32,
            opt: obj.get("opt").and_then(Value::as_bool).unwrap_or(true),
            ops,
        })
    }
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v[key]
        .as_u64()
        .ok_or_else(|| format!("missing number {key}"))
}

fn field_bool(v: &Value, key: &str) -> Result<bool, String> {
    v[key]
        .as_bool()
        .ok_or_else(|| format!("missing bool {key}"))
}

fn parse_op(v: &Value) -> Result<Op, String> {
    if let Some(burst) = v.get("burst") {
        let dir = match burst["dir"].as_str() {
            Some("up") => Dir::Up,
            Some("down") => Dir::Down,
            Some("bridge_a") => Dir::BridgeA,
            Some("bridge_b") => Dir::BridgeB,
            other => return Err(format!("bad dir {other:?}")),
        };
        let pkts = burst["packets"].as_array().ok_or("burst without packets")?;
        let packets = pkts
            .iter()
            .map(parse_packet)
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Op::Burst { dir, packets });
    }
    if let Some(churn) = v.get("churn") {
        return Ok(Op::Churn(parse_churn(churn)?));
    }
    if let Some(ns) = v.get("advance_ns").and_then(Value::as_u64) {
        return Ok(Op::Advance { ns });
    }
    if v.get("housekeeping").is_some() {
        return Ok(Op::Housekeeping);
    }
    Err(format!("unrecognized op {v}"))
}

fn parse_packet(v: &Value) -> Result<PacketSpec, String> {
    let a = field_u64(v, "a")?;
    let b = v["b"].as_u64().unwrap_or(0);
    match v["kind"].as_str() {
        Some("forward") => Ok(PacketSpec::Forward {
            flow: a,
            len: b as u16,
        }),
        Some("blocked") => Ok(PacketSpec::Blocked { rule: a as u32 }),
        Some("to_host") => Ok(PacketSpec::ToHost { sport: a as u16 }),
        Some("client") => Ok(PacketSpec::Client {
            client: a as u8,
            flow: b,
        }),
        Some("vip") => Ok(PacketSpec::Vip { sport: a as u16 }),
        Some("dnat") => Ok(PacketSpec::Dnat { sport: a as u16 }),
        Some("reply") => Ok(PacketSpec::Reply {
            server_flow: a,
            port_off: b as u16,
        }),
        Some("tcp") => Ok(PacketSpec::Tcp { flow: a }),
        Some("icmp") => Ok(PacketSpec::Icmp { id: a as u16 }),
        Some("malformed") => Ok(PacketSpec::Malformed {
            kind: a as u8,
            flow: b,
        }),
        Some("http") => Ok(PacketSpec::Http {
            flow: a,
            variant: b as u8,
        }),
        Some("station") => Ok(PacketSpec::Station { flow: a }),
        other => Err(format!("bad packet kind {other:?}")),
    }
}

fn parse_churn(v: &Value) -> Result<ChurnOp, String> {
    let a = v["a"].as_u64().unwrap_or(0);
    match v["kind"].as_str() {
        Some("ipt_append") => Ok(ChurnOp::IptAppend { rule: a as u32 }),
        Some("ipt_flush") => Ok(ChurnOp::IptFlush),
        Some("route_add") => Ok(ChurnOp::RouteAdd { i: a as u32 }),
        Some("route_del") => Ok(ChurnOp::RouteDel { i: a as u32 }),
        Some("nat_append_dnat") => Ok(ChurnOp::NatAppendDnat { dport: a as u16 }),
        Some("nat_flush") => Ok(ChurnOp::NatFlush),
        Some("ipset_add") => Ok(ChurnOp::IpsetAdd { i: a as u32 }),
        Some("ipvs_add_backend") => Ok(ChurnOp::IpvsAddBackend { i: a as u8 }),
        Some("route_replace") => Ok(ChurnOp::RouteReplace { i: a as u32 }),
        Some("ipset_flush") => Ok(ChurnOp::IpsetFlush),
        Some("ct_cap") => Ok(ChurnOp::CtCap { cap: a as u32 }),
        Some("fpm_swap") => Ok(ChurnOp::FpmSwap),
        Some("l7_append") => Ok(ChurnOp::L7Append { i: a as u32 }),
        Some("l7_flush") => Ok(ChurnOp::L7Flush),
        other => Err(format!("bad churn kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DiffScenario {
        DiffScenario {
            name: "sample".to_string(),
            seed: 7,
            base: Scenario::nat_gateway(),
            hook: HookPoint::Tc,
            ipvs: true,
            dnat: true,
            shards: 4,
            opt: false,
            ops: vec![
                Op::Burst {
                    dir: Dir::Up,
                    packets: vec![
                        PacketSpec::Forward { flow: 3, len: 60 },
                        PacketSpec::Client { client: 1, flow: 2 },
                        PacketSpec::Malformed { kind: 5, flow: 0 },
                        PacketSpec::Http {
                            flow: 1,
                            variant: 3,
                        },
                    ],
                },
                Op::Churn(ChurnOp::RouteDel { i: 1 }),
                Op::Churn(ChurnOp::L7Append { i: 4 }),
                Op::Churn(ChurnOp::L7Flush),
                Op::Churn(ChurnOp::RouteReplace { i: 0 }),
                Op::Churn(ChurnOp::IpsetFlush),
                Op::Churn(ChurnOp::CtCap { cap: 32 }),
                Op::Churn(ChurnOp::FpmSwap),
                Op::Advance { ns: 1_000_000 },
                Op::Housekeeping,
                Op::Burst {
                    dir: Dir::BridgeB,
                    packets: vec![PacketSpec::Station { flow: 9 }],
                },
                Op::Burst {
                    dir: Dir::Down,
                    packets: vec![PacketSpec::Reply {
                        server_flow: 2,
                        port_off: 0,
                    }],
                },
            ],
        }
    }

    #[test]
    fn fixture_round_trips() {
        // A non-default mode (4 shards, optimizer off) survives the trip.
        let s = sample();
        let text = s.to_json();
        let back = DiffScenario::from_json(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn fixture_without_a_mode_runs_in_the_default_one() {
        let mut doc = sample().to_json_value();
        if let Value::Object(obj) = &mut doc {
            obj.remove("shards");
            obj.remove("opt");
        }
        let back = DiffScenario::from_json(&linuxfp_json::to_string_pretty(&doc)).unwrap();
        assert_eq!((back.shards, back.opt), (1, true));
    }

    #[test]
    fn malformed_fixture_is_rejected() {
        assert!(DiffScenario::from_json("{}").is_err());
        assert!(DiffScenario::from_json("not json").is_err());
        let mut s = sample().to_json();
        s = s
            .replace("\"xdp\"", "\"afxdp\"")
            .replace("\"tc\"", "\"afxdp\"");
        assert!(DiffScenario::from_json(&s).is_err());
    }
}
