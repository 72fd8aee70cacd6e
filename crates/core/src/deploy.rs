//! The Fast Path Deployer: verify, load, attach dispatchers, and swap
//! data paths atomically.
//!
//! Per paper §IV-A2: replacing an attached XDP program can lose packets
//! for seconds, so LinuxFP attaches a constant dispatcher per interface
//! and swaps the *tail-call target* instead. The deployer owns one
//! [`Dispatcher`] per accelerated interface and hook, creates it on first
//! deployment, and afterwards only updates program-array slots.

use crate::synth::SynthesizedFp;
use linuxfp_ebpf::hook::{Dispatcher, HookPoint};
use linuxfp_ebpf::insn::Insn;
use linuxfp_ebpf::maps::MapStore;
use linuxfp_ebpf::opt::{self, OptStats};
use linuxfp_ebpf::program::LoadedProgram;
use linuxfp_ebpf::verifier::{Verified, VerifyError};
use linuxfp_netstack::device::IfIndex;
use linuxfp_netstack::stack::Kernel;
use linuxfp_netstack::NetError;
use linuxfp_telemetry::Registry;
use std::collections::HashMap;
use std::fmt;

/// Deployment failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The synthesized program failed verification — a controller bug;
    /// the old data path stays installed.
    Rejected {
        /// Interface whose program was rejected.
        ifname: String,
        /// The verifier error.
        error: VerifyError,
    },
    /// The target interface disappeared between synthesis and deploy.
    Device(String),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Rejected { ifname, error } => {
                write!(f, "program for {ifname} rejected by verifier: {error}")
            }
            DeployError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<NetError> for DeployError {
    fn from(e: NetError) -> Self {
        DeployError::Device(e.to_string())
    }
}

/// Summary of one deployment round.
#[derive(Debug, Clone, Default)]
pub struct DeployOutcome {
    /// `(interface name, program instruction count)` for each installed
    /// data path.
    pub installed: Vec<(String, usize)>,
    /// Interfaces whose data path was removed (configuration no longer
    /// needs one).
    pub removed: Vec<IfIndex>,
    /// How many programs actually changed (were verified, loaded and
    /// swapped); unchanged programs are left untouched.
    pub swapped: usize,
    /// Instructions removed by the bytecode optimizer across the
    /// programs swapped this round (0 with `net.linuxfp.opt=0`).
    pub opt_removed: usize,
    /// Distinct programs built (optimized and verified) this round:
    /// interfaces that synthesized identical instructions share one
    /// build.
    pub built: usize,
}

/// One distinct synthesized program and what building it produced.
struct Build<'a> {
    /// The synthesized instructions (the grouping key).
    source: &'a [Insn],
    /// The program every interface in the group loads.
    verified: Verified,
    /// Optimizer accounting (`None` with `net.linuxfp.opt=0`).
    stats: Option<OptStats>,
}

/// Owns the per-interface dispatchers and performs atomic swaps.
#[derive(Debug)]
pub struct Deployer {
    hook: HookPoint,
    maps: MapStore,
    dispatchers: HashMap<IfIndex, Dispatcher>,
    telemetry: Option<Registry>,
}

impl Deployer {
    /// Creates a deployer targeting the given hook point.
    pub fn new(hook: HookPoint, maps: MapStore) -> Self {
        Deployer {
            hook,
            maps,
            dispatchers: HashMap::new(),
            telemetry: None,
        }
    }

    /// Enables telemetry: dispatcher hit/fallback/VM counters, verifier
    /// accept/reject tallies, build/share counts and swap trace events
    /// land in `registry` (applies to existing and future dispatchers).
    pub fn set_telemetry(&mut self, registry: Registry) {
        registry.describe(
            "linuxfp_deploy_programs_total",
            "Programs per deploy round that were built (optimized and verified) or shared an identical interface's build",
        );
        registry.describe(
            "linuxfp_verifier_accepted_total",
            "Synthesized programs accepted by the in-kernel verifier",
        );
        registry.describe(
            "linuxfp_verifier_rejected_total",
            "Synthesized programs rejected by the in-kernel verifier",
        );
        registry.describe(
            "linuxfp_opt_insns_before_total",
            "Instructions entering the bytecode optimizer at deploy time",
        );
        registry.describe(
            "linuxfp_opt_insns_after_total",
            "Instructions leaving the bytecode optimizer at deploy time",
        );
        registry.describe(
            "linuxfp_fp_program_insns",
            "Deployed program size in instructions, per FPM pipeline",
        );
        registry.describe(
            "linuxfp_opt_insns_removed",
            "Instructions the optimizer removed from the deployed program, per FPM pipeline",
        );
        for dispatcher in self.dispatchers.values() {
            dispatcher.enable_telemetry(&registry);
        }
        self.telemetry = Some(registry);
    }

    /// The telemetry registry, if enabled.
    pub fn telemetry(&self) -> Option<&Registry> {
        self.telemetry.as_ref()
    }

    /// The hook point this deployer attaches to.
    pub fn hook(&self) -> HookPoint {
        self.hook
    }

    /// The shared map store (program arrays + any platform maps).
    pub fn maps(&self) -> &MapStore {
        &self.maps
    }

    /// Interfaces that currently have a data path installed.
    pub fn active_interfaces(&self) -> Vec<IfIndex> {
        let mut v: Vec<IfIndex> = self
            .dispatchers
            .iter()
            .filter(|(_, d)| d.installed().is_some())
            .map(|(i, _)| *i)
            .collect();
        v.sort();
        v
    }

    /// The installed program for an interface, if any.
    pub fn installed(&self, ifindex: IfIndex) -> Option<LoadedProgram> {
        self.dispatchers.get(&ifindex).and_then(|d| d.installed())
    }

    /// Deploys a full set of synthesized fast paths: builds (optimizes
    /// and verifies) each distinct program once, loads it on every
    /// interface that synthesized it, attaches dispatchers on first use,
    /// swaps slots, and uninstalls data paths for interfaces no longer in
    /// the set.
    ///
    /// # Errors
    ///
    /// On the first verification failure, before any program is
    /// swapped, or on a device failure; interfaces already swapped in
    /// this round keep their new program (each swap is individually
    /// atomic, as in the paper).
    pub fn deploy(
        &mut self,
        kernel: &mut Kernel,
        fps: &[SynthesizedFp],
    ) -> Result<DeployOutcome, DeployError> {
        let mut outcome = DeployOutcome::default();
        let mut target: HashMap<IfIndex, &SynthesizedFp> = HashMap::new();
        for fp in fps {
            target.insert(fp.ifindex, fp);
        }

        // Remove data paths for interfaces that no longer need one.
        for (ifindex, dispatcher) in &self.dispatchers {
            if !target.contains_key(ifindex) && dispatcher.installed().is_some() {
                dispatcher.uninstall();
                outcome.removed.push(*ifindex);
            }
        }
        outcome.removed.sort();

        // Interfaces with the same configuration synthesize the same
        // instructions (a router's NICs all run one pipeline), and a
        // build is a pure function of them: build each distinct program
        // once, as the kernel loads one program and attaches it to many
        // hooks.
        let opt = kernel.opt_enabled();
        let mut builds: Vec<Build<'_>> = Vec::new();
        let mut build_of = Vec::with_capacity(fps.len());
        for fp in fps {
            let source = fp.program.insns.as_slice();
            let i = match builds.iter().position(|b| b.source == source) {
                Some(i) => i,
                None => {
                    builds.push(self.build(opt, fp)?);
                    builds.len() - 1
                }
            };
            build_of.push(i);
        }
        outcome.built = builds.len();
        if let Some(reg) = &self.telemetry {
            reg.counter("linuxfp_deploy_programs_total", &[("result", "built")])
                .add(builds.len() as u64);
            reg.counter("linuxfp_deploy_programs_total", &[("result", "shared")])
                .add((fps.len() - builds.len()) as u64);
        }

        for (fp, &i) in fps.iter().zip(&build_of) {
            let Build {
                verified, stats, ..
            } = &builds[i];
            let effective = verified.insns();
            // Unchanged program: leave the running data path alone (no
            // load/swap cost, no disturbance). Compared against the
            // *effective* instructions, so flipping the sysctl
            // redeploys on the next controller pass.
            if let Some(current) = self.installed(fp.ifindex) {
                if current.insns() == effective {
                    outcome.installed.push((fp.ifname.clone(), current.len()));
                    continue;
                }
            }
            if let Some(reg) = &self.telemetry {
                let labels = [("fpm", fp.fpm_label.as_str())];
                if let Some(stats) = stats {
                    reg.counter("linuxfp_opt_insns_before_total", &labels)
                        .add(stats.before as u64);
                    reg.counter("linuxfp_opt_insns_after_total", &labels)
                        .add(stats.after as u64);
                    reg.gauge("linuxfp_opt_insns_removed", &labels)
                        .set(stats.removed() as i64);
                }
                reg.gauge("linuxfp_fp_program_insns", &labels)
                    .set(effective.len() as i64);
                reg.counter("linuxfp_verifier_accepted_total", &[]).inc();
            }
            outcome.opt_removed += stats.map_or(0, |s| s.removed());
            let loaded = LoadedProgram::from_verified(fp.program.name.clone(), verified.clone());
            let len = loaded.len();
            let dispatcher = match self.dispatchers.get(&fp.ifindex) {
                Some(d) => d,
                None => {
                    let d = Dispatcher::new(self.maps.clone());
                    if let Some(reg) = &self.telemetry {
                        d.enable_telemetry(reg);
                    }
                    d.attach(kernel, fp.ifindex, self.hook)?;
                    self.dispatchers.insert(fp.ifindex, d);
                    self.dispatchers.get(&fp.ifindex).expect("just inserted")
                }
            };
            dispatcher.set_fpm_label(&fp.fpm_label);
            dispatcher.install(loaded);
            outcome.swapped += 1;
            outcome.installed.push((fp.ifname.clone(), len));
        }
        Ok(outcome)
    }

    /// Builds `fp`'s program. With `opt` set it goes through the
    /// bytecode optimizer, which verifies its input and its output,
    /// falls back to the input on any failure, and hands back the
    /// verifier's proof of what it returns — so a program is verified
    /// at most twice, and the optimizer cannot turn a loadable program
    /// into a rejected one. Without it the verifier runs once.
    fn build<'a>(&self, opt: bool, fp: &'a SynthesizedFp) -> Result<Build<'a>, DeployError> {
        let source = fp.program.insns.as_slice();
        let (checked, stats) = if opt {
            let (checked, stats) = opt::optimize_verified(source);
            (checked, Some(stats))
        } else {
            (Verified::new(source.to_vec()), None)
        };
        match checked {
            Ok(verified) => Ok(Build {
                source,
                verified,
                stats,
            }),
            Err(error) => {
                if let Some(reg) = &self.telemetry {
                    reg.counter("linuxfp_verifier_rejected_total", &[]).inc();
                    reg.events()
                        .push("verifier_reject", format!("{}: {error}", fp.ifname));
                }
                Err(DeployError::Rejected {
                    ifname: fp.ifname.clone(),
                    error,
                })
            }
        }
    }

    /// Tears down all data paths (dispatchers stay attached and PASS).
    pub fn uninstall_all(&mut self) {
        for dispatcher in self.dispatchers.values() {
            dispatcher.uninstall();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpm::FpmInstance;
    use crate::synth::synthesize_pipeline;
    use linuxfp_netstack::stack::IfAddr;
    use linuxfp_packet::{builder, MacAddr};
    use std::net::Ipv4Addr;

    fn forwarding_kernel() -> (Kernel, IfIndex, IfIndex) {
        let mut k = Kernel::new(5);
        let eth0 = k.add_physical("eth0").unwrap();
        let eth1 = k.add_physical("eth1").unwrap();
        k.ip_addr_add(eth0, "10.0.1.1/24".parse::<IfAddr>().unwrap())
            .unwrap();
        k.ip_addr_add(eth1, "10.0.2.1/24".parse::<IfAddr>().unwrap())
            .unwrap();
        k.ip_link_set_up(eth0).unwrap();
        k.ip_link_set_up(eth1).unwrap();
        k.sysctl_set("net.ipv4.ip_forward", 1).unwrap();
        k.ip_route_add(
            "10.10.0.0/16".parse().unwrap(),
            Some(Ipv4Addr::new(10, 0, 2, 2)),
            None,
        )
        .unwrap();
        let now = k.now();
        k.neigh.learn(
            Ipv4Addr::new(10, 0, 2, 2),
            MacAddr::from_index(0xBEEF),
            eth1,
            now,
        );
        (k, eth0, eth1)
    }

    fn router_fp(ifindex: IfIndex, name: &str) -> SynthesizedFp {
        synthesize_pipeline(ifindex, name, &[FpmInstance::Router]).unwrap()
    }

    #[test]
    fn deploy_accelerates_forwarding() {
        let (mut k, eth0, eth1) = forwarding_kernel();
        let mut d = Deployer::new(HookPoint::Xdp, MapStore::new());
        let out = d.deploy(&mut k, &[router_fp(eth0, "eth0")]).unwrap();
        assert_eq!(out.installed.len(), 1);
        assert!(out.removed.is_empty());
        assert_eq!(d.active_interfaces(), vec![eth0]);
        // A forwarded packet now takes the fast path: redirected by XDP,
        // no sk_buff, no kernel FIB stage.
        let frame = builder::udp_packet(
            MacAddr::from_index(1),
            k.device(eth0).unwrap().mac,
            Ipv4Addr::new(10, 0, 1, 100),
            Ipv4Addr::new(10, 10, 3, 7),
            1,
            2,
            b"x",
        );
        let out = k.receive(eth0, frame);
        assert_eq!(out.transmissions().len(), 1);
        assert_eq!(out.transmissions()[0].0, eth1);
        assert_eq!(out.cost.stage_count("skb_alloc"), 0);
        assert_eq!(out.cost.stage_count("helper_fib_lookup"), 1);
        assert_eq!(out.cost.stage_count("fib_lookup"), 0);
    }

    #[test]
    fn redeploy_swaps_without_reattach() {
        let (mut k, eth0, _) = forwarding_kernel();
        let mut d = Deployer::new(HookPoint::Xdp, MapStore::new());
        d.deploy(&mut k, &[router_fp(eth0, "eth0")]).unwrap();
        let first = d.installed(eth0).unwrap();
        d.deploy(&mut k, &[router_fp(eth0, "eth0")]).unwrap();
        let second = d.installed(eth0).unwrap();
        assert_eq!(first.name(), second.name());
        // Removing the interface from the set uninstalls its program.
        let out = d.deploy(&mut k, &[]).unwrap();
        assert_eq!(out.removed, vec![eth0]);
        assert!(d.installed(eth0).is_none());
        assert!(d.active_interfaces().is_empty());
        // Traffic still flows through the slow path (dispatcher passes).
        let frame = builder::udp_packet(
            MacAddr::from_index(1),
            k.device(eth0).unwrap().mac,
            Ipv4Addr::new(10, 0, 1, 100),
            Ipv4Addr::new(10, 10, 3, 7),
            1,
            2,
            b"x",
        );
        let out = k.receive(eth0, frame);
        assert_eq!(out.transmissions().len(), 1);
        assert_eq!(out.cost.stage_count("skb_alloc"), 1);
    }

    #[test]
    fn rejected_program_reports_and_keeps_old_path() {
        let (mut k, eth0, _) = forwarding_kernel();
        let mut d = Deployer::new(HookPoint::Xdp, MapStore::new());
        d.deploy(&mut k, &[router_fp(eth0, "eth0")]).unwrap();
        let bogus = SynthesizedFp {
            ifindex: eth0,
            ifname: "eth0".into(),
            program: linuxfp_ebpf::program::Program::new("bogus", vec![Insn::Exit]),
            fpm_count: 1,
            fpm_label: "bogus".into(),
            cacheable: true,
        };
        let err = d.deploy(&mut k, &[bogus]).unwrap_err();
        assert!(matches!(err, DeployError::Rejected { .. }));
        assert!(err.to_string().contains("eth0"));
        // The previous good program is still installed.
        assert!(d.installed(eth0).is_some());
    }

    fn router_filter_fp(ifindex: IfIndex, name: &str) -> SynthesizedFp {
        let filter = FpmInstance::Filter(crate::fpm::FilterConf {
            rules: 1,
            ipset: false,
            match_ports: false,
        });
        synthesize_pipeline(ifindex, name, &[FpmInstance::Router, filter]).unwrap()
    }

    #[test]
    fn identical_programs_share_one_build_under_their_own_names() {
        let (mut k, eth0, eth1) = forwarding_kernel();
        let mut d = Deployer::new(HookPoint::Xdp, MapStore::new());
        let out = d
            .deploy(&mut k, &[router_fp(eth0, "eth0"), router_fp(eth1, "eth1")])
            .unwrap();
        assert_eq!(out.built, 1);
        assert_eq!(out.swapped, 2);
        let (p0, p1) = (d.installed(eth0).unwrap(), d.installed(eth1).unwrap());
        assert_eq!(p0.insns(), p1.insns());
        assert_eq!(
            p0.insns(),
            opt::optimize(&router_fp(eth0, "eth0").program.insns).0
        );
        assert_eq!((p0.name(), p1.name()), ("linuxfp_eth0", "linuxfp_eth1"));
        // An unchanged round still builds (to learn what would load) but
        // swaps nothing.
        let out = d
            .deploy(&mut k, &[router_fp(eth0, "eth0"), router_fp(eth1, "eth1")])
            .unwrap();
        assert_eq!((out.built, out.swapped), (1, 0));
    }

    #[test]
    fn three_interfaces_with_two_distinct_programs_build_twice() {
        let (mut k, eth0, eth1) = forwarding_kernel();
        let eth2 = k.add_physical("eth2").unwrap();
        let mut d = Deployer::new(HookPoint::Xdp, MapStore::new());
        let fps = [
            router_fp(eth0, "eth0"),
            router_filter_fp(eth1, "eth1"),
            router_fp(eth2, "eth2"),
        ];
        let out = d.deploy(&mut k, &fps).unwrap();
        assert_eq!((out.built, out.swapped), (2, 3));
        assert_eq!(
            d.installed(eth0).unwrap().insns(),
            d.installed(eth2).unwrap().insns()
        );
        assert_ne!(
            d.installed(eth0).unwrap().insns(),
            d.installed(eth1).unwrap().insns()
        );
        // With the optimizer off, each distinct program is verified once
        // and loaded as synthesized.
        k.sysctl_set("net.linuxfp.opt", 0).unwrap();
        let out = d.deploy(&mut k, &fps).unwrap();
        assert_eq!((out.built, out.swapped), (2, 3));
        for fp in &fps {
            let installed = d.installed(fp.ifindex).unwrap();
            assert_eq!(installed.insns(), fp.program.insns.as_slice());
            assert_eq!(installed.name(), fp.program.name);
        }
    }

    #[test]
    fn a_rejected_shared_program_fails_the_round_and_keeps_old_paths() {
        let (mut k, eth0, eth1) = forwarding_kernel();
        let mut d = Deployer::new(HookPoint::Xdp, MapStore::new());
        d.deploy(&mut k, &[router_fp(eth0, "eth0"), router_fp(eth1, "eth1")])
            .unwrap();
        let before = [d.installed(eth0).unwrap(), d.installed(eth1).unwrap()];
        let bogus = |ifindex, name: &str| SynthesizedFp {
            ifindex,
            ifname: name.into(),
            program: linuxfp_ebpf::program::Program::new(name, vec![Insn::Exit]),
            fpm_count: 1,
            fpm_label: "bogus".into(),
            cacheable: true,
        };
        let err = d
            .deploy(&mut k, &[bogus(eth0, "eth0"), bogus(eth1, "eth1")])
            .unwrap_err();
        assert!(matches!(err, DeployError::Rejected { .. }));
        assert!(err.to_string().contains("eth0"));
        for (ifindex, old) in [eth0, eth1].into_iter().zip(before) {
            let now = d.installed(ifindex).unwrap();
            assert_eq!((now.name(), now.insns()), (old.name(), old.insns()));
        }
    }

    #[test]
    fn missing_device_is_an_error() {
        let (mut k, _, _) = forwarding_kernel();
        let mut d = Deployer::new(HookPoint::Xdp, MapStore::new());
        let err = d
            .deploy(&mut k, &[router_fp(IfIndex(99), "ghost")])
            .unwrap_err();
        assert!(matches!(err, DeployError::Device(_)));
        assert!(err.to_string().contains("device"));
    }

    #[test]
    fn uninstall_all_clears_everything() {
        let (mut k, eth0, eth1) = forwarding_kernel();
        let mut d = Deployer::new(HookPoint::Xdp, MapStore::new());
        d.deploy(&mut k, &[router_fp(eth0, "eth0"), router_fp(eth1, "eth1")])
            .unwrap();
        assert_eq!(d.active_interfaces().len(), 2);
        d.uninstall_all();
        assert!(d.active_interfaces().is_empty());
        assert_eq!(d.hook(), HookPoint::Xdp);
        assert!(d.maps().len() >= 2); // one prog array per dispatcher
    }
}
