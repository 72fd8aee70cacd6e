//! The LinuxFP platform: the same kernel as the Linux baseline with the
//! controller attached — standard configuration, transparent fast paths.

use crate::platform::{Platform, PlatformTraits, Scheduling};
use crate::scenario::Scenario;
use linuxfp_core::controller::{Controller, ControllerConfig};
use linuxfp_ebpf::hook::HookPoint;
use linuxfp_netstack::device::IfIndex;
use linuxfp_netstack::stack::{BatchOutcome, Kernel, RxOutcome};
use linuxfp_packet::Batch;
use linuxfp_telemetry::Registry;

/// Linux accelerated by LinuxFP-synthesized fast paths.
#[derive(Debug)]
pub struct LinuxFpPlatform {
    kernel: Kernel,
    controller: Controller,
    upstream: IfIndex,
    hook: HookPoint,
}

impl LinuxFpPlatform {
    /// Configures a fresh kernel for the scenario (standard APIs only)
    /// and attaches the controller on the XDP hook.
    pub fn new(scenario: Scenario) -> Self {
        LinuxFpPlatform::with_hook(scenario, HookPoint::Xdp)
    }

    /// Like [`LinuxFpPlatform::new`] but attaching to a specific hook
    /// (TC is what the paper uses for the Kubernetes scenario and
    /// Table VII's comparison).
    pub fn with_hook(scenario: Scenario, hook: HookPoint) -> Self {
        LinuxFpPlatform::build(scenario, hook, None)
    }

    /// Like [`LinuxFpPlatform::with_hook`] but with observability on: the
    /// registry is wired into the kernel slow path (packet/drop counters),
    /// the dispatchers (fast-path hit/fallback and VM counters) and the
    /// controller (reconcile latency, verifier tallies).
    pub fn with_telemetry(scenario: Scenario, hook: HookPoint, registry: Registry) -> Self {
        LinuxFpPlatform::build(scenario, hook, Some(registry))
    }

    fn build(scenario: Scenario, hook: HookPoint, telemetry: Option<Registry>) -> Self {
        let mut kernel = Kernel::new(100); // same seed as the baseline
        let (upstream, _) = scenario.configure_kernel(&mut kernel);
        if let Some(registry) = &telemetry {
            kernel.set_telemetry(registry.clone());
        }
        let cfg = ControllerConfig {
            hook,
            telemetry,
            ..ControllerConfig::default()
        };
        let (controller, report) =
            Controller::attach(&mut kernel, cfg).expect("initial deployment succeeds");
        assert!(report.changed, "scenario must produce a fast path");
        LinuxFpPlatform {
            kernel,
            controller,
            upstream,
            hook,
        }
    }

    /// The upstream device's MAC.
    pub fn dut_mac(&self) -> linuxfp_packet::MacAddr {
        self.kernel.device(self.upstream).expect("configured").mac
    }

    /// The controller (e.g. to inspect the graph or installed programs).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Polls the controller (after reconfiguring the kernel in tests).
    pub fn poll_controller(&mut self) -> Option<linuxfp_core::ReactionReport> {
        self.controller
            .poll(&mut self.kernel)
            .expect("redeploy succeeds")
    }

    /// Access to the underlying kernel.
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }
}

impl Platform for LinuxFpPlatform {
    fn traits(&self) -> PlatformTraits {
        PlatformTraits {
            name: "LinuxFP",
            kernel_resident: true,
            standard_linux_api: true,
            transparent_acceleration: true,
            dedicated_cores: false,
            scheduling: Scheduling::XdpResident,
        }
    }

    fn process_batch(&mut self, batch: &mut Batch) -> BatchOutcome {
        self.kernel.inject_batch(self.upstream, batch)
    }

    fn process(&mut self, frame: Vec<u8>) -> RxOutcome {
        self.kernel.receive(self.upstream, frame)
    }
}

/// A LinuxFP variant whose hook point is reported in the name — used by
/// the XDP-vs-TC comparison (paper Table VII).
impl LinuxFpPlatform {
    /// Descriptive name including the hook.
    pub fn hook_name(&self) -> &'static str {
        match self.hook {
            HookPoint::Xdp => "LinuxFP (XDP)",
            HookPoint::Tc => "LinuxFP (TC)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linux::LinuxPlatform;
    use crate::scenario::SINK_MAC;
    use linuxfp_packet::{EthernetFrame, Ipv4Header};

    #[test]
    fn forwards_identically_to_linux_but_faster() {
        let s = Scenario::router();
        let mut linux = LinuxPlatform::new(s);
        let mut lfp = LinuxFpPlatform::new(s);
        assert_eq!(linux.dut_mac(), lfp.dut_mac(), "same seed, same MACs");
        let mac = lfp.dut_mac();

        let out_l = linux.process(s.frame(mac, 7, 60));
        let out_f = lfp.process(s.frame(mac, 7, 60));
        // Identical output packet...
        assert_eq!(out_l.transmissions(), out_f.transmissions());
        let eth = EthernetFrame::parse(out_f.transmissions()[0].1).unwrap();
        assert_eq!(eth.dst, SINK_MAC);
        let ip = Ipv4Header::parse(&out_f.transmissions()[0].1[14..]).unwrap();
        assert_eq!(ip.ttl, 63);
        assert!(ip.verify_checksum(&out_f.transmissions()[0].1[14..]));
        // ...at lower cost (no sk_buff on the fast path).
        assert_eq!(out_f.cost.stage_count("skb_alloc"), 0);
        assert!(out_f.cost.total_ns() < out_l.cost.total_ns());
    }

    #[test]
    fn speedup_matches_the_paper_band() {
        // Paper: LinuxFP is 77% faster than Linux for forwarding.
        let s = Scenario::router();
        let mut linux = LinuxPlatform::new(s);
        let mut lfp = LinuxFpPlatform::new(s);
        let ml = linux.dut_mac();
        let mf = lfp.dut_mac();
        let tl = linux.service_time_ns(&mut |i, buf| s.fill_frame(ml, i, 60, buf));
        let tf = lfp.service_time_ns(&mut |i, buf| s.fill_frame(mf, i, 60, buf));
        let speedup = tl / tf;
        assert!(
            (1.55..2.0).contains(&speedup),
            "speedup {speedup:.2} outside the ~1.77 band (linux {tl:.0}ns, linuxfp {tf:.0}ns)"
        );
    }

    #[test]
    fn tc_hook_is_slower_than_xdp_but_still_works() {
        let s = Scenario::router();
        let mut xdp = LinuxFpPlatform::with_hook(s, HookPoint::Xdp);
        let mut tc = LinuxFpPlatform::with_hook(s, HookPoint::Tc);
        assert_eq!(xdp.hook_name(), "LinuxFP (XDP)");
        assert_eq!(tc.hook_name(), "LinuxFP (TC)");
        let mx = xdp.dut_mac();
        let mt = tc.dut_mac();
        let tx = xdp.service_time_ns(&mut |i, buf| s.fill_frame(mx, i, 60, buf));
        let tt = tc.service_time_ns(&mut |i, buf| s.fill_frame(mt, i, 60, buf));
        // Paper Table VII: XDP ≈ 2x TC for forwarding.
        let ratio = tt / tx;
        assert!((1.7..2.4).contains(&ratio), "TC/XDP ratio {ratio:.2}");
    }

    #[test]
    fn gateway_blocked_traffic_dropped_on_fast_path() {
        let s = Scenario::gateway();
        let mut p = LinuxFpPlatform::new(s);
        let frame = linuxfp_packet::builder::udp_packet(
            crate::scenario::SOURCE_MAC,
            p.dut_mac(),
            std::net::Ipv4Addr::new(10, 0, 1, 100),
            s.blocked_dst(7),
            1,
            2,
            b"",
        );
        let out = p.process(frame);
        assert!(out.transmissions().is_empty());
        assert_eq!(out.drops(), vec!["xdp drop"]);
        assert_eq!(out.cost.stage_count("skb_alloc"), 0);
    }

    #[test]
    fn reconfiguration_is_transparent() {
        // Start as a plain router; add iptables rules at runtime; the
        // controller swaps in a filter-enabled fast path.
        let s = Scenario::router();
        let mut p = LinuxFpPlatform::new(s);
        let mac = p.dut_mac();
        assert!(p.poll_controller().is_none());
        p.kernel_mut().iptables_append(
            linuxfp_netstack::netfilter::ChainHook::Forward,
            linuxfp_netstack::netfilter::IptRule::drop_dst(Scenario::blacklist_prefix(0)),
        );
        let report = p.poll_controller().expect("netfilter event");
        assert!(report.changed);
        assert_eq!(report.fpm_count, 4, "router+filter on both interfaces");
        // Blocked traffic now drops on the fast path.
        let blocked = linuxfp_packet::builder::udp_packet(
            crate::scenario::SOURCE_MAC,
            mac,
            std::net::Ipv4Addr::new(10, 0, 1, 100),
            Scenario::blacklist_prefix(0).nth_host(1),
            1,
            2,
            b"",
        );
        let out = p.process(blocked);
        assert_eq!(out.drops(), vec!["xdp drop"]);
    }

    #[test]
    fn nat_gateway_translates_identically_but_faster() {
        let s = Scenario::nat_gateway();
        let mut linux = LinuxPlatform::new(s);
        let mut lfp = LinuxFpPlatform::new(s);
        let mac = lfp.dut_mac();
        // Same mixed client sequence: masquerade allocations and
        // established-flow rewrites stay byte-identical across paths.
        for i in 0..9u64 {
            let client = 2 + (i % 3) as u8;
            let out_l = linux.process(s.client_frame(mac, client, i % 2, 60));
            let out_f = lfp.process(s.client_frame(mac, client, i % 2, 60));
            assert_eq!(out_l.transmissions(), out_f.transmissions(), "frame {i}");
        }
        // An established flow translates entirely on the fast path. Its
        // next repeat is its second sighting since the last binding, so
        // it is recorded; the one after that is served by the microflow
        // verdict cache without even the bpf_nat_lookup.
        let out = lfp.process(s.client_frame(mac, 2, 0, 60));
        assert_eq!(out.cost.stage_count("skb_alloc"), 0, "must stay fast");
        let out = lfp.process(s.client_frame(mac, 2, 0, 60));
        assert_eq!(out.cost.stage_count("skb_alloc"), 0, "must stay fast");
        assert_eq!(out.cost.stage_count("flowcache_hit"), 1, "cached repeat");
        assert_eq!(out.cost.stage_count("nat_lookup"), 0, "no helper on hit");
    }

    #[test]
    fn api_gateway_l7_verdicts_identical_but_faster() {
        use linuxfp_telemetry::trace::{PuntReason, TraceEvent};

        let s = Scenario::api_gateway();
        let registry = Registry::new();
        let mut linux = LinuxPlatform::new(s);
        let mut lfp = LinuxFpPlatform::with_telemetry(s, HookPoint::Xdp, registry.clone());
        let mac = lfp.dut_mac();
        let ring = lfp.kernel_mut().enable_flight_recorder(4096, 1);

        // A mixed request stream: allowed GETs, denied /blocked/ GETs,
        // binary garbage (fast path must punt, slow path forwards),
        // bare ACKs, and follow-up segments on decided connections.
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for i in 0..24u64 {
            frames.push(match i % 6 {
                0 | 1 => s.http_frame(mac, i, &Scenario::http_request(i)),
                2 => s.http_frame(mac, i, &s.blocked_http_request(i)),
                3 => s.http_frame(mac, i, &[0x16, 0x03, 0x01, 0x00, 0x2a]),
                4 => s.http_frame(mac, i, b""),
                // Same flow as the i%6==2 deny two frames earlier: the
                // pinned verdict must drop this innocuous payload too.
                _ => s.http_frame(mac, i - 3, &Scenario::http_request(i)),
            });
        }
        let injected = frames.len() as u64;
        let mut denies = 0;
        // Service ns per stream: (Linux, LinuxFP) summed over each i%6.
        let mut ns = [(0.0, 0.0); 6];
        for (i, frame) in frames.into_iter().enumerate() {
            let out_l = linux.process(frame.clone());
            let out_f = lfp.process(frame);
            ns[i % 6].0 += out_l.cost.total_ns();
            ns[i % 6].1 += out_f.cost.total_ns();
            assert_eq!(
                out_l.transmissions(),
                out_f.transmissions(),
                "frame {i} diverged"
            );
            if out_f.transmissions().is_empty() {
                assert!(out_l.transmissions().is_empty());
                denies += 1;
            }
        }
        // i%6∈{2,5} are denied (pinned verdict covers the follow-up).
        assert_eq!(denies, 8, "deny verdicts");

        // Per request: an allowed GET judged in the hook beats the same
        // GET on Linux, and a punted one pays the fast-path attempt on
        // top of the slow path.
        let offloaded = (ns[0].1 + ns[1].1) / 8.0;
        let stock = (ns[0].0 + ns[1].0) / 8.0;
        let punted = ns[3].1 / 4.0;
        assert!(
            offloaded < stock && stock < punted,
            "want offloaded {offloaded:.1} < Linux {stock:.1} < punted {punted:.1} ns"
        );

        // Conservation: every injected frame either hit a fast path or
        // fell back — none vanished.
        let hits = registry.counter_total("linuxfp_fp_hits_total");
        let fallbacks = registry.counter_total("linuxfp_slowpath_fallbacks_total");
        assert_eq!(
            hits + fallbacks,
            injected,
            "hits {hits} + falls {fallbacks}"
        );
        assert!(hits > 0, "l7 fast path never hit");

        // Unparseable payloads punt with the dedicated reason — and were
        // still forwarded byte-identically above.
        let l7_punts: usize = ring
            .recent()
            .iter()
            .flat_map(|span| span.events.iter())
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Punt {
                        reason: PuntReason::L7Unparseable
                    }
                )
            })
            .count();
        assert!(l7_punts > 0, "no L7Unparseable punts recorded");
    }

    #[test]
    fn traits_table() {
        let p = LinuxFpPlatform::new(Scenario::router());
        let t = p.traits();
        assert!(t.kernel_resident && t.standard_linux_api && t.transparent_acceleration);
        assert!(!t.dedicated_cores);
        assert_eq!(t.scheduling, Scheduling::XdpResident);
    }
}
