//! Executes one [`DiffScenario`] on a Linux-only kernel and a LinuxFP
//! kernel side by side and reports the first observable divergence.
//!
//! Compared after every burst: the exact transmitted frames (bytes and
//! egress device), local deliveries, and drop-reason sequences. Compared
//! at the end: the housekeeping reports, the telemetry conservation
//! ledger (`hits + fallbacks == injected`), and buffer-pool growth
//! during a steady-state replay of the traffic.

use crate::scenario::{ChurnOp, DiffScenario, Dir, Op, PacketSpec};
use linuxfp_json::Value;
use linuxfp_netstack::device::IfIndex;
use linuxfp_netstack::ipvs::Scheduler;
use linuxfp_netstack::l7::{L7Action, L7Policy};
use linuxfp_netstack::nat::{NatChain, NatRule, NatTarget};
use linuxfp_netstack::netfilter::{ChainHook, IptRule};
use linuxfp_netstack::stack::{Kernel, RxOutcome};
use linuxfp_packet::ipv4::{IpProto, Prefix};
use linuxfp_packet::tcp::TcpFlags;
use linuxfp_packet::{builder, Batch, BufferPool, MacAddr};
use linuxfp_platforms::scenario::{Scenario, NEXT_HOP, SINK_MAC, SOURCE_MAC};
use linuxfp_platforms::{LinuxFpPlatform, LinuxPlatform};
use linuxfp_sim::Nanos;
use linuxfp_telemetry::trace::TraceRing;
use linuxfp_telemetry::Registry;
use std::net::Ipv4Addr;

/// The ipvs virtual service address used by scenarios with `ipvs: true`.
pub const VIP: Ipv4Addr = Ipv4Addr::new(10, 96, 0, 10);
/// The routed "public" destination claimed by DNAT scenarios.
pub const DNAT_PUBLIC: Ipv4Addr = Ipv4Addr::new(10, 10, 0, 99);
/// Where DNAT sends it (inside the second routed prefix).
pub const DNAT_TARGET: Ipv4Addr = Ipv4Addr::new(10, 10, 1, 7);
/// Inside clients with pre-resolved ARP (reply traffic can reach them).
pub const CLIENTS: u8 = 10;
/// The stations behind bridge ports A and B: their MAC and IPv4
/// addresses.
const STATIONS: [(u64, Ipv4Addr); 2] = [
    (0xA1, Ipv4Addr::new(192, 168, 7, 1)),
    (0xA2, Ipv4Addr::new(192, 168, 7, 2)),
];

/// One observable divergence between the two kernels.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index of the op where behavior split (ops.len() for end-of-run
    /// checks: ledger, pool growth, steady-state replay).
    pub op: usize,
    /// Short machine-readable class: `output`, `housekeeping`, `ledger`,
    /// `pool-growth`.
    pub kind: &'static str,
    /// Whether the divergence appeared during the steady-state replay
    /// pass (bursts only, configuration frozen) rather than the first
    /// full pass.
    pub steady: bool,
    /// Human-readable explanation.
    pub detail: String,
}

/// The result of running one scenario.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Total frames injected (both passes, both directions).
    pub packets: usize,
    /// The first divergence found, if any.
    pub divergence: Option<Divergence>,
}

impl RunOutcome {
    /// Whether the two kernels behaved identically.
    pub fn transparent(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Flattened observable behavior of a burst.
#[derive(Debug, PartialEq)]
struct Observed {
    transmissions: Vec<(u32, Vec<u8>)>,
    deliveries: Vec<(u32, Vec<u8>)>,
    drops: Vec<String>,
}

/// Collapses drop reasons into layer-independent classes. A policy drop
/// surfaces as `nf input drop`/`nf forward drop` on the slow path but as
/// `xdp drop`/`tc drop` when the synthesized filter stage rejects the
/// same packet at the hook — the same decision, taken earlier. Everything
/// else (malformed, no route, ttl, exhaustion) compares verbatim.
fn canonical_drop(reason: &str) -> &str {
    match reason {
        "xdp drop" | "tc drop" | "nf input drop" | "nf forward drop" | "l7 policy deny" => {
            "policy drop"
        }
        other => other,
    }
}

fn observe<'a>(outcomes: impl Iterator<Item = &'a RxOutcome>) -> Observed {
    let mut obs = Observed {
        transmissions: Vec::new(),
        deliveries: Vec::new(),
        drops: Vec::new(),
    };
    for out in outcomes {
        for (dev, frame) in out.transmissions() {
            obs.transmissions.push((dev.as_u32(), frame.to_vec()));
        }
        for (dev, frame) in out.deliveries() {
            obs.deliveries.push((dev.as_u32(), frame.to_vec()));
        }
        for reason in out.drops() {
            obs.drops.push(canonical_drop(reason).to_string());
        }
    }
    obs
}

fn summarize_mismatch(expect: &Observed, got: &Observed) -> String {
    if expect.drops != got.drops {
        return format!("drops: linux {:?} vs linuxfp {:?}", expect.drops, got.drops);
    }
    if expect.transmissions.len() != got.transmissions.len() {
        return format!(
            "tx count: linux {} vs linuxfp {}",
            expect.transmissions.len(),
            got.transmissions.len()
        );
    }
    for (i, (a, b)) in expect
        .transmissions
        .iter()
        .zip(&got.transmissions)
        .enumerate()
    {
        if a != b {
            let hex = |f: &[u8]| {
                f.iter()
                    .take(48)
                    .map(|b| format!("{b:02x}"))
                    .collect::<String>()
            };
            return format!(
                "tx {i}: dev {} ({} bytes) vs dev {} ({} bytes), first differing byte {:?}\n  linux   {}\n  linuxfp {}",
                a.0,
                a.1.len(),
                b.0,
                b.1.len(),
                a.1.iter().zip(&b.1).position(|(x, y)| x != y),
                hex(&a.1),
                hex(&b.1)
            );
        }
    }
    "deliveries differ".to_string()
}

/// Recomputes the IPv4 header checksum in place (minimal 20-byte header).
fn fix_ipv4_csum(frame: &mut [u8]) {
    frame[24] = 0;
    frame[25] = 0;
    let mut sum: u32 = 0;
    for i in (14..34).step_by(2) {
        sum += u32::from(u16::from_be_bytes([frame[i], frame[i + 1]]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    let csum = !(sum as u16);
    frame[24..26].copy_from_slice(&csum.to_be_bytes());
}

/// Builds the bytes for one packet spec entering through `dir`,
/// addressed to the right MAC for its ingress side.
fn build_frame(
    spec: &PacketSpec,
    dir: Dir,
    base: &Scenario,
    up_mac: MacAddr,
    down_mac: MacAddr,
) -> Vec<u8> {
    let src_host = Ipv4Addr::new(10, 0, 1, 100);
    match *spec {
        PacketSpec::Forward { flow, len } => {
            base.frame(up_mac, flow, usize::from(len.clamp(60, 1496)))
        }
        PacketSpec::Blocked { rule } => builder::udp_packet(
            SOURCE_MAC,
            up_mac,
            src_host,
            base.blocked_dst(rule),
            1000 + (rule % 5000) as u16,
            4791,
            b"blocked",
        ),
        PacketSpec::ToHost { sport } => builder::udp_packet(
            SOURCE_MAC,
            up_mac,
            src_host,
            Ipv4Addr::new(10, 0, 1, 1),
            sport,
            4791,
            b"for the host",
        ),
        PacketSpec::Client { client, flow } => {
            base.client_frame(up_mac, 2 + client % CLIENTS, flow, 60)
        }
        PacketSpec::Vip { sport } => {
            builder::udp_packet(SOURCE_MAC, up_mac, src_host, VIP, sport, 53, b"query")
        }
        PacketSpec::Dnat { sport } => builder::udp_packet(
            SOURCE_MAC,
            up_mac,
            src_host,
            DNAT_PUBLIC,
            sport,
            8080,
            b"dnat",
        ),
        PacketSpec::Reply {
            server_flow,
            port_off,
        } => builder::udp_packet(
            SINK_MAC,
            down_mac,
            base.allowed_dst(server_flow),
            Ipv4Addr::new(10, 0, 2, 1),
            4791,
            32768 + port_off,
            b"reply",
        ),
        PacketSpec::Tcp { flow } => builder::tcp_packet(
            SOURCE_MAC,
            up_mac,
            src_host,
            base.allowed_dst(flow),
            2000 + (flow % 512) as u16,
            80,
            TcpFlags {
                syn: true,
                ..TcpFlags::default()
            },
            b"",
        ),
        PacketSpec::Icmp { id } => builder::icmp_echo_request(
            SOURCE_MAC,
            up_mac,
            src_host,
            base.allowed_dst(u64::from(id)),
            id,
            1,
        ),
        PacketSpec::Http { flow, variant } => {
            let payload: Vec<u8> = match variant % 5 {
                0 => Scenario::http_request(flow),
                1 => base.blocked_http_request(flow),
                2 => b"GET /api/v1/items".to_vec(), // line split mid-URL
                3 => vec![0x16, 0x03, 0x01, 0x00, 0x2a, 0x00, 0xff],
                _ => Vec::new(), // bare ACK
            };
            base.http_frame(up_mac, flow, &payload)
        }
        PacketSpec::Station { flow } => {
            let [mut from, mut to] = STATIONS;
            if dir == Dir::BridgeB {
                (from, to) = (to, from);
            }
            builder::udp_packet(
                MacAddr::from_index(from.0),
                MacAddr::from_index(to.0),
                from.1,
                to.1,
                1024 + (flow % 512) as u16,
                4791,
                b"bridged",
            )
        }
        PacketSpec::Malformed { kind, flow } => {
            let mut frame = base.frame(up_mac, flow, 60);
            match kind % 7 {
                0 => frame.truncate(10),                           // runt: not even ethernet
                1 => frame.truncate(20),                           // IPv4 cut mid-header
                2 => frame[12..14].copy_from_slice(&[0x86, 0xDD]), // says IPv6
                3 => frame[14] = 0x65,                             // version 6, IHL 5
                4 => {
                    frame[22] = 1; // TTL 1: slow path answers Time Exceeded
                    fix_ipv4_csum(&mut frame);
                }
                5 => frame[25] ^= 0xFF, // corrupt header checksum
                _ => {
                    frame[20] = 0x00; // fragment offset 8
                    frame[21] = 0x01;
                    fix_ipv4_csum(&mut frame);
                }
            }
            frame
        }
    }
}

/// Extra configuration beyond the base scenario, applied identically to
/// both kernels via the same standard APIs. A scenario with a burst
/// through a bridge port gets a two-port bridge beside the router;
/// returns its ports, A's then B's.
fn configure_extras(
    k: &mut Kernel,
    ds: &DiffScenario,
    up: IfIndex,
    down: IfIndex,
) -> Option<[IfIndex; 2]> {
    let now = k.now();
    // Pre-resolve the inside clients so reply traffic (and masquerade
    // reverse flows) never parks frames behind ARP resolution.
    for c in 0..CLIENTS {
        k.neigh.learn(
            Ipv4Addr::new(10, 0, 1, 2 + c),
            MacAddr::from_index(0xC0 + u64::from(c)),
            up,
            now,
        );
    }
    if ds.ipvs {
        assert!(k.ipvsadm_add_service(VIP, 53, IpProto::Udp, Scheduler::RoundRobin));
        for i in 0..3u8 {
            let backend = Ipv4Addr::new(10, 0, 2, 10 + i);
            k.neigh
                .learn(backend, MacAddr::from_index(0xB0 + u64::from(i)), down, now);
            assert!(k.ipvsadm_add_backend(VIP, 53, IpProto::Udp, backend, 53));
        }
    }
    if ds.dnat {
        k.iptables_nat_append(
            NatChain::Prerouting,
            NatRule {
                dst: Some(Prefix::new(DNAT_PUBLIC, 32)),
                dport: Some(8080),
                proto: Some(IpProto::Udp),
                ..NatRule::any(NatTarget::Dnat {
                    to: DNAT_TARGET,
                    to_port: Some(80),
                })
            },
        );
    }
    let bridged = ds.ops.iter().any(|op| {
        matches!(
            op,
            Op::Burst {
                dir: Dir::BridgeA | Dir::BridgeB,
                ..
            }
        )
    });
    bridged.then(|| {
        let ports = ["brport_a", "brport_b"].map(|name| k.add_physical(name).expect("fresh name"));
        let br = k.add_bridge("br0").expect("fresh name");
        for port in ports {
            k.brctl_addif(br, port).expect("bridge port");
        }
        for dev in [ports[0], ports[1], br] {
            k.ip_link_set_up(dev).expect("device exists");
        }
        ports
    })
}

/// Applies one churn op to a kernel. Errors (duplicate route, missing
/// set) are ignored: both kernels share identical state, so both fail or
/// succeed identically.
fn apply_churn(k: &mut Kernel, c: &ChurnOp, base: &Scenario, down: IfIndex) {
    match *c {
        ChurnOp::IptAppend { rule } => k.iptables_append(
            ChainHook::Forward,
            IptRule::drop_dst(Scenario::blacklist_prefix(rule)),
        ),
        ChurnOp::IptFlush => k.iptables_flush(ChainHook::Forward),
        ChurnOp::RouteAdd { i } => {
            let _ = k.ip_route_add(
                Scenario::route_prefix(base.prefixes + i),
                Some(NEXT_HOP),
                None,
            );
        }
        ChurnOp::RouteDel { i } => {
            let _ = k.ip_route_del(Scenario::route_prefix(i % base.prefixes.max(1)), None);
        }
        ChurnOp::NatAppendDnat { dport } => {
            k.iptables_nat_append(
                NatChain::Prerouting,
                NatRule {
                    dst: Some(Prefix::new(DNAT_PUBLIC, 32)),
                    dport: Some(dport),
                    proto: Some(IpProto::Udp),
                    ..NatRule::any(NatTarget::Dnat {
                        to: DNAT_TARGET,
                        to_port: Some(80),
                    })
                },
            );
        }
        ChurnOp::NatFlush => k.iptables_nat_flush(),
        ChurnOp::IpsetAdd { i } => {
            let _ = k.ipset_add("blacklist", Scenario::blacklist_prefix(i));
        }
        ChurnOp::IpvsAddBackend { i } => {
            let backend = Ipv4Addr::new(10, 0, 2, 13 + i % 64);
            let now = k.now();
            k.neigh
                .learn(backend, MacAddr::from_index(0xD0 + u64::from(i)), down, now);
            let _ = k.ipvsadm_add_backend(VIP, 53, IpProto::Udp, backend, 53);
        }
        // Re-adding an existing prefix with its existing next hop is how
        // `ip route replace` (or an FRR resync) looks on the wire: no
        // semantic change, one netlink event, full fast-path rebuild.
        ChurnOp::RouteReplace { i } => {
            let _ = k.ip_route_add(
                Scenario::route_prefix(i % base.prefixes.max(1)),
                Some(NEXT_HOP),
                None,
            );
        }
        ChurnOp::IpsetFlush => {
            let _ = k.ipset_flush("blacklist");
        }
        ChurnOp::CtCap { cap } => {
            k.conntrack.max_entries = cap.clamp(8, 4096) as usize;
        }
        // Scratch prefix far past anything the traffic can hit: the add
        // and delete cancel out, leaving only the two redeployments.
        ChurnOp::FpmSwap => {
            let scratch = Scenario::route_prefix(240);
            let _ = k.ip_route_add(scratch, Some(NEXT_HOP), None);
            let _ = k.ip_route_del(scratch, None);
        }
        ChurnOp::L7Append { i } => {
            // Small modulus so appends overlap the prefixes blocked
            // traffic actually requests (including `/blocked/0`, the
            // target when no base policies exist).
            k.l7_policy_append(L7Policy::prefix(
                format!("/blocked/{}", i % 8).as_bytes(),
                L7Action::Deny,
            ));
        }
        ChurnOp::L7Flush => k.l7_policy_flush(),
    }
}

/// One kernel under test: its ingress devices, their addresses and its
/// buffer pool.
struct Side {
    pool: BufferPool,
    up: IfIndex,
    down: IfIndex,
    /// The bridge ports, A's then B's, if the scenario bursts through
    /// them.
    bridge: Option<[IfIndex; 2]>,
    up_mac: MacAddr,
    down_mac: MacAddr,
}

impl Side {
    /// Configures `k` for `ds` beyond its base scenario: the extras, and
    /// the deploy-time half of the scenario's mode. The optimizer runs
    /// when the controller deploys, so `net.linuxfp.opt` must precede its
    /// first poll. With the optimizer off every fast path loads in its
    /// naive synthesized form, which must behave byte-identically (per
    /// program, `crates/ebpf/tests/opt_parity.rs` checks the same).
    fn prepare(k: &mut Kernel, ds: &DiffScenario) -> Side {
        let up = k.ifindex("ens1f0").expect("scenario upstream");
        let down = k.ifindex("ens1f1").expect("scenario downstream");
        let bridge = configure_extras(k, ds, up, down);
        if !ds.opt {
            k.sysctl_set("net.linuxfp.opt", 0)
                .expect("opt sysctl exists");
        }
        let mac = |dev| k.device(dev).expect("configured").mac;
        Side {
            pool: BufferPool::new(),
            up,
            down,
            bridge,
            up_mac: mac(up),
            down_mac: mac(down),
        }
    }

    /// The frames of a burst through `dir`.
    fn frames(&self, ds: &DiffScenario, dir: Dir, specs: &[PacketSpec]) -> Vec<Vec<u8>> {
        specs
            .iter()
            .map(|s| build_frame(s, dir, &ds.base, self.up_mac, self.down_mac))
            .collect()
    }

    fn inject(&self, kernel: &mut Kernel, dir: Dir, frames: &[Vec<u8>]) -> Vec<RxOutcome> {
        let port = |i: usize| self.bridge.expect("configured for bridge bursts")[i];
        let dev = match dir {
            Dir::Up => self.up,
            Dir::Down => self.down,
            Dir::BridgeA => port(0),
            Dir::BridgeB => port(1),
        };
        let mut batch = Batch::with_capacity(frames.len());
        for frame in frames {
            let mut buf = self.pool.acquire();
            buf.extend_from_slice(frame);
            batch.push(buf);
        }
        kernel.inject_batch(dev, &mut batch).outcomes
    }
}

/// The per-packet half of the scenario's mode: both kernels steer over
/// `net.linuxfp.rss_shards` from the next frame on. Steering only
/// partitions caches and charges coherence costs, never verdicts, and the
/// RSS hash reads only L3/L4 fields, so the kernels' differing MACs
/// cannot split a flow.
fn set_shards(k: &mut Kernel, ds: &DiffScenario) {
    if ds.shards > 1 {
        k.sysctl_set("net.linuxfp.rss_shards", i64::from(ds.shards))
            .expect("rss_shards sysctl exists");
    }
}

/// Runs the scenario on both kernels, in its datapath mode
/// ([`DiffScenario::shards`], [`DiffScenario::opt`]), and reports the
/// first divergence.
pub fn run(ds: &DiffScenario) -> RunOutcome {
    let registry = Registry::new();
    let mut linux = LinuxPlatform::new(ds.base);
    let mut lfp = LinuxFpPlatform::with_telemetry(ds.base, ds.hook, registry.clone());

    let side_l = Side::prepare(linux.kernel_mut(), ds);
    let side_f = Side::prepare(lfp.kernel_mut(), ds);
    assert_eq!(side_l.up_mac, side_f.up_mac, "same seed, same MACs");
    lfp.poll_controller();
    set_shards(linux.kernel_mut(), ds);
    set_shards(lfp.kernel_mut(), ds);

    let mut packets = 0usize;
    let exec = |linux: &mut LinuxPlatform,
                lfp: &mut LinuxFpPlatform,
                op_index: usize,
                op: &Op,
                bursts_only: bool,
                packets: &mut usize|
     -> Option<Divergence> {
        match op {
            Op::Burst {
                dir,
                packets: specs,
            } => {
                let frames = side_l.frames(ds, *dir, specs);
                *packets += frames.len();
                let out_l = side_l.inject(linux.kernel_mut(), *dir, &frames);
                let out_f = side_f.inject(lfp.kernel_mut(), *dir, &frames);
                let expect = observe(out_l.iter());
                let got = observe(out_f.iter());
                if expect != got {
                    let pass = if bursts_only { " (steady pass)" } else { "" };
                    return Some(Divergence {
                        op: op_index,
                        kind: "output",
                        steady: bursts_only,
                        detail: format!("{}{pass}", summarize_mismatch(&expect, &got)),
                    });
                }
            }
            Op::Churn(c) if !bursts_only => {
                apply_churn(linux.kernel_mut(), c, &ds.base, side_l.down);
                apply_churn(lfp.kernel_mut(), c, &ds.base, side_f.down);
                lfp.poll_controller();
            }
            Op::Advance { ns } if !bursts_only => {
                linux.kernel_mut().advance(Nanos::from_nanos(*ns));
                lfp.kernel_mut().advance(Nanos::from_nanos(*ns));
                // The testbed's pktgen keeps ARP warm: without this,
                // neighbor expiry parks frames behind re-resolution and
                // the parked buffers read as pool growth.
                warm_neighbors(linux.kernel_mut(), ds, &side_l);
                warm_neighbors(lfp.kernel_mut(), ds, &side_f);
            }
            Op::Housekeeping if !bursts_only => {
                let a = linux.kernel_mut().run_housekeeping();
                let b = lfp.kernel_mut().run_housekeeping();
                if a != b {
                    return Some(Divergence {
                        op: op_index,
                        kind: "housekeeping",
                        steady: false,
                        detail: format!("linux {a:?} vs linuxfp {b:?}"),
                    });
                }
            }
            _ => {}
        }
        None
    };

    for (i, op) in ds.ops.iter().enumerate() {
        if let Some(d) = exec(&mut linux, &mut lfp, i, op, false, &mut packets) {
            return RunOutcome {
                packets,
                divergence: Some(d),
            };
        }
    }

    // Steady state: with the pools warmed by the full run, replaying the
    // traffic (bursts only — configuration stays put) must not allocate.
    // Neighbor entries may have aged out across the scenario's time
    // jumps; the testbed's pktgen keeps ARP warm, so re-learn them (on
    // both kernels identically) rather than letting re-resolution park
    // frames and grow the pools.
    warm_neighbors(linux.kernel_mut(), ds, &side_l);
    warm_neighbors(lfp.kernel_mut(), ds, &side_f);
    let warm_l = side_l.pool.stats().allocated;
    let warm_f = side_f.pool.stats().allocated;
    for (i, op) in ds.ops.iter().enumerate() {
        if let Some(d) = exec(&mut linux, &mut lfp, i, op, true, &mut packets) {
            return RunOutcome {
                packets,
                divergence: Some(d),
            };
        }
    }
    let grown_l = side_l.pool.stats().allocated - warm_l;
    let grown_f = side_f.pool.stats().allocated - warm_f;
    if grown_l != 0 || grown_f != 0 {
        return RunOutcome {
            packets,
            divergence: Some(Divergence {
                op: ds.ops.len(),
                kind: "pool-growth",
                steady: false,
                detail: format!(
                    "buffer pool grew after warm-up: linux +{grown_l}, linuxfp +{grown_f}"
                ),
            }),
        };
    }

    // Conservation ledger on the accelerated side: every injected frame
    // was decided exactly once, by the fast path or the slow path.
    let hits = registry.counter_total("linuxfp_fp_hits_total");
    let fallbacks = registry.counter_total("linuxfp_slowpath_fallbacks_total");
    let injected = registry.counter_total("linuxfp_packets_injected_total");
    if injected != packets as u64 || hits + fallbacks != injected {
        return RunOutcome {
            packets,
            divergence: Some(Divergence {
                op: ds.ops.len(),
                kind: "ledger",
                steady: false,
                detail: format!(
                    "hits {hits} + fallbacks {fallbacks} != injected {injected} \
                     (expected {packets})"
                ),
            }),
        };
    }
    // And one level down: every packet that entered a hook either hit the
    // microflow verdict cache or was counted a miss (ineligible packets
    // included). A gap here means a packet was served from the cache
    // without the ledger knowing — exactly the kind of silent shortcut
    // the differential test exists to catch.
    let fc_hits = registry.counter_total("linuxfp_flowcache_hits_total");
    let fc_misses = registry.counter_total("linuxfp_flowcache_misses_total");
    if fc_hits + fc_misses != injected {
        return RunOutcome {
            packets,
            divergence: Some(Divergence {
                op: ds.ops.len(),
                kind: "ledger",
                steady: false,
                detail: format!(
                    "flowcache hits {fc_hits} + misses {fc_misses} != injected {injected}"
                ),
            }),
        };
    }

    RunOutcome {
        packets,
        divergence: None,
    }
}

/// Replays `ds` with the flight recorder forced to 1-in-1 sampling on
/// *both* kernels and returns the per-packet trace of the first packet
/// whose solo behavior differs in the diverging burst — the span pair
/// explains *where* in the datapath the two kernels parted ways, not
/// just that they did.
///
/// Only `output` divergences have a meaningful per-packet trace;
/// anything else (ledger, pool growth, housekeeping) returns `None`.
/// The replay runs in the scenario's own mode, like [`run`]. The
/// returned JSON is embedded in shrunk repro fixtures under a `trace`
/// key, which [`DiffScenario::from_json`] ignores on replay.
pub fn divergence_trace(ds: &DiffScenario, div: &Divergence) -> Option<Value> {
    if div.kind != "output" || div.op >= ds.ops.len() {
        return None;
    }
    let registry = Registry::new();
    let mut linux = LinuxPlatform::new(ds.base);
    let mut lfp = LinuxFpPlatform::with_telemetry(ds.base, ds.hook, registry.clone());
    let ring_l = linux.kernel_mut().enable_flight_recorder(4096, 1);
    let ring_f = lfp.kernel_mut().enable_flight_recorder(4096, 1);

    let side_l = Side::prepare(linux.kernel_mut(), ds);
    let side_f = Side::prepare(lfp.kernel_mut(), ds);
    lfp.poll_controller();
    set_shards(linux.kernel_mut(), ds);
    set_shards(lfp.kernel_mut(), ds);

    let replay = |linux: &mut LinuxPlatform,
                  lfp: &mut LinuxFpPlatform,
                  op_index: usize,
                  op: &Op,
                  bursts_only: bool|
     -> Option<Value> {
        match op {
            Op::Burst {
                dir,
                packets: specs,
            } => {
                let frames = side_l.frames(ds, *dir, specs);
                let out_l = side_l.inject(linux.kernel_mut(), *dir, &frames);
                let out_f = side_f.inject(lfp.kernel_mut(), *dir, &frames);
                if op_index == div.op && bursts_only == div.steady {
                    // The first packet whose *solo* observation differs;
                    // if the burst only diverges in aggregate (e.g. a
                    // reordering), fall back to its first packet.
                    let packet = out_l
                        .iter()
                        .zip(&out_f)
                        .position(|(a, b)| {
                            observe(std::iter::once(a)) != observe(std::iter::once(b))
                        })
                        .unwrap_or(0);
                    // With 1-in-1 sampling every injected packet pushed
                    // exactly one span, so the burst occupies the last
                    // `frames.len()` slots of each ring.
                    let span_json = |ring: &TraceRing| -> Value {
                        let spans = ring.recent();
                        spans
                            .get(spans.len().saturating_sub(frames.len()) + packet)
                            .map(|s| s.to_json())
                            .unwrap_or(Value::Null)
                    };
                    let mut doc = linuxfp_json::Map::new();
                    doc.insert("op".to_string(), Value::from(div.op as u64));
                    doc.insert("steady".to_string(), Value::from(div.steady));
                    doc.insert("packet".to_string(), Value::from(packet as u64));
                    doc.insert("linux".to_string(), span_json(&ring_l));
                    doc.insert("linuxfp".to_string(), span_json(&ring_f));
                    return Some(Value::Object(doc));
                }
            }
            Op::Churn(c) if !bursts_only => {
                apply_churn(linux.kernel_mut(), c, &ds.base, side_l.down);
                apply_churn(lfp.kernel_mut(), c, &ds.base, side_f.down);
                lfp.poll_controller();
            }
            Op::Advance { ns } if !bursts_only => {
                linux.kernel_mut().advance(Nanos::from_nanos(*ns));
                lfp.kernel_mut().advance(Nanos::from_nanos(*ns));
                warm_neighbors(linux.kernel_mut(), ds, &side_l);
                warm_neighbors(lfp.kernel_mut(), ds, &side_f);
            }
            Op::Housekeeping if !bursts_only => {
                linux.kernel_mut().run_housekeeping();
                lfp.kernel_mut().run_housekeeping();
            }
            _ => {}
        }
        None
    };

    for (i, op) in ds.ops.iter().enumerate() {
        if let Some(v) = replay(&mut linux, &mut lfp, i, op, false) {
            return Some(v);
        }
    }
    if div.steady {
        warm_neighbors(linux.kernel_mut(), ds, &side_l);
        warm_neighbors(lfp.kernel_mut(), ds, &side_f);
        for (i, op) in ds.ops.iter().enumerate() {
            if let Some(v) = replay(&mut linux, &mut lfp, i, op, true) {
                return Some(v);
            }
        }
    }
    None
}

/// Replays the scenario, in its own mode, on the accelerated (LinuxFP)
/// kernel alone with the flight recorder at 1-in-`every` sampling and
/// returns every span it records, in arrival order. This is the
/// `linuxfp_trace` explain path: any corpus fixture can be turned into
/// per-packet traces without touching the comparison machinery. On an
/// N-shard datapath spans carry the owning shard chosen by RSS steering
/// and a `coherence` stage attributing the cross-core penalties each
/// packet paid for shared state another shard (or the control plane)
/// wrote.
pub fn trace_scenario(ds: &DiffScenario, every: u64) -> Vec<linuxfp_telemetry::trace::TraceSpan> {
    let registry = Registry::new();
    let mut lfp = LinuxFpPlatform::with_telemetry(ds.base, ds.hook, registry);
    let ring = lfp.kernel_mut().enable_flight_recorder(65536, every.max(1));
    let side = Side::prepare(lfp.kernel_mut(), ds);
    lfp.poll_controller();
    set_shards(lfp.kernel_mut(), ds);
    for op in &ds.ops {
        match op {
            Op::Burst {
                dir,
                packets: specs,
            } => {
                let frames = side.frames(ds, *dir, specs);
                side.inject(lfp.kernel_mut(), *dir, &frames);
            }
            Op::Churn(c) => {
                apply_churn(lfp.kernel_mut(), c, &ds.base, side.down);
                lfp.poll_controller();
            }
            Op::Advance { ns } => {
                lfp.kernel_mut().advance(Nanos::from_nanos(*ns));
                warm_neighbors(lfp.kernel_mut(), ds, &side);
            }
            Op::Housekeeping => {
                lfp.kernel_mut().run_housekeeping();
            }
        }
    }
    ring.recent()
}

/// Re-learns every neighbor the scenario ever resolved, at the current
/// clock: the fixed testbed peers, the inside clients, the configured
/// ipvs backends, and any backends added by churn ops.
fn warm_neighbors(k: &mut Kernel, ds: &DiffScenario, side: &Side) {
    let (up, down, now) = (side.up, side.down, k.now());
    k.neigh.learn(NEXT_HOP, SINK_MAC, down, now);
    k.neigh
        .learn(Ipv4Addr::new(10, 0, 1, 100), SOURCE_MAC, up, now);
    for c in 0..CLIENTS {
        k.neigh.learn(
            Ipv4Addr::new(10, 0, 1, 2 + c),
            MacAddr::from_index(0xC0 + u64::from(c)),
            up,
            now,
        );
    }
    if ds.ipvs {
        for i in 0..3u8 {
            k.neigh.learn(
                Ipv4Addr::new(10, 0, 2, 10 + i),
                MacAddr::from_index(0xB0 + u64::from(i)),
                down,
                now,
            );
        }
    }
    for op in &ds.ops {
        if let Op::Churn(ChurnOp::IpvsAddBackend { i }) = op {
            k.neigh.learn(
                Ipv4Addr::new(10, 0, 2, 13 + i % 64),
                MacAddr::from_index(0xD0 + u64::from(*i)),
                down,
                now,
            );
        }
    }
}
