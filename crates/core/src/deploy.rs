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
use linuxfp_ebpf::maps::MapStore;
use linuxfp_ebpf::opt;
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
    /// accept/reject tallies and swap trace events land in `registry`
    /// (applies to existing and future dispatchers).
    pub fn set_telemetry(&mut self, registry: Registry) {
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

    /// Deploys a full set of synthesized fast paths: verifies and loads
    /// each program, attaches dispatchers on first use, swaps slots, and
    /// uninstalls data paths for interfaces no longer in the set.
    ///
    /// # Errors
    ///
    /// On the first verification or device failure; interfaces already
    /// swapped in this round keep their new program (each swap is
    /// individually atomic, as in the paper).
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

        for fp in fps {
            // Run the synthesized program through the bytecode
            // optimizer (sysctl-gated) before loading: the engine then
            // runs the shrunk form. The optimizer verifies its
            // input and its output, falls back to the input on any
            // failure, and hands back the verifier's proof of what it
            // returns — so a program is verified at most twice, and
            // the optimizer cannot turn a loadable program into a
            // rejected one.
            let (checked, stats) = if kernel.opt_enabled() {
                let (checked, stats) = opt::optimize_verified(&fp.program.insns);
                (Some(checked), Some(stats))
            } else {
                (None, None)
            };
            let effective = match &checked {
                Some(Ok(verified)) => verified.insns(),
                _ => fp.program.insns.as_slice(),
            };
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
            if let (Some(reg), Some(stats)) = (&self.telemetry, stats) {
                let labels = [("fpm", fp.fpm_label.as_str())];
                reg.counter("linuxfp_opt_insns_before_total", &labels)
                    .add(stats.before as u64);
                reg.counter("linuxfp_opt_insns_after_total", &labels)
                    .add(stats.after as u64);
                reg.gauge("linuxfp_opt_insns_removed", &labels)
                    .set(stats.removed() as i64);
            }
            if let Some(reg) = &self.telemetry {
                reg.gauge(
                    "linuxfp_fp_program_insns",
                    &[("fpm", fp.fpm_label.as_str())],
                )
                .set(effective.len() as i64);
            }
            outcome.opt_removed += stats.map_or(0, |s| s.removed());
            // With the optimizer off, this is the one verification.
            let checked = checked.unwrap_or_else(|| Verified::new(fp.program.insns.clone()));
            let loaded = match checked {
                Ok(verified) => {
                    if let Some(reg) = &self.telemetry {
                        reg.counter("linuxfp_verifier_accepted_total", &[]).inc();
                    }
                    LoadedProgram::from_verified(fp.program.name.clone(), verified)
                }
                Err(error) => {
                    if let Some(reg) = &self.telemetry {
                        reg.counter("linuxfp_verifier_rejected_total", &[]).inc();
                        reg.events()
                            .push("verifier_reject", format!("{}: {error}", fp.ifname));
                    }
                    return Err(DeployError::Rejected {
                        ifname: fp.ifname.clone(),
                        error,
                    });
                }
            };
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
    use linuxfp_ebpf::insn::Insn;
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
