//! The closed catalogue of cost stages a [`CostTracker`](crate::CostTracker)
//! attributes virtual time to.
//!
//! Every datapath charge names one [`Stage`], so a tracker indexes its
//! slots by the stage's discriminant instead of searching by name. The
//! names are the labels the profile, the flight recorder and the
//! benchmark's `virt.stage.*` metrics have always printed; a name outside
//! the catalogue resolves to [`Stage::Other`].

macro_rules! stages {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// One cost stage. Variants are declared in name order, so
        /// [`Stage::ALL`] is name order too.
        ///
        /// # Example
        ///
        /// ```
        /// use linuxfp_sim::Stage;
        ///
        /// assert_eq!(Stage::IpRcv.name(), "ip_rcv");
        /// assert_eq!(Stage::from_name("ip_rcv"), Stage::IpRcv);
        /// assert_eq!(Stage::from_name("no_such_stage"), Stage::Other);
        /// ```
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Stage {
            $($(#[$doc])* $variant,)*
        }

        impl Stage {
            /// Number of stages, [`Stage::Other`] included.
            pub const COUNT: usize = [$($name),*].len();

            /// Every stage, in name order.
            pub const ALL: [Stage; Stage::COUNT] = [$(Stage::$variant),*];

            /// The stage's label, as profiles and metrics print it.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Stage::$variant => $name,)*
                }
            }

            /// The stage labelled `name`; [`Stage::Other`] for a name
            /// outside the catalogue.
            pub fn from_name(name: &str) -> Stage {
                match name {
                    $($name => Stage::$variant,)*
                    _ => Stage::Other,
                }
            }
        }
    };
}

stages! {
    /// Flooding one more bridge port on an FDB miss.
    BridgeFlood => "bridge_flood",
    /// Bridge slow path: FDB learn, lookup and forwarding decision.
    BridgeStack => "bridge_stack",
    /// Pulling a shared structure's cache line into a shard's core.
    Coherence => "coherence",
    /// Conntrack tuple lookup, slow path or `bpf_ct_lookup`.
    Conntrack => "conntrack",
    /// NIC driver receive.
    DriverRx => "driver_rx",
    /// NIC driver transmit.
    DriverTx => "driver_tx",
    /// Kernel FIB lookup on the slow path.
    FibLookup => "fib_lookup",
    /// One microflow verdict-cache hit.
    FlowcacheHit => "flowcache_hit",
    /// `bpf_fdb_lookup`.
    HelperFdbLookup => "helper_fdb_lookup",
    /// `bpf_fib_lookup`.
    HelperFibLookup => "helper_fib_lookup",
    /// `bpf_ipt_lookup`'s fixed part.
    HelperIptBase => "helper_ipt_base",
    /// `bpf_redirect`.
    HelperRedirect => "helper_redirect",
    /// `bpf_ktime_get_ns` and other trivial helpers.
    HelperTrivial => "helper_trivial",
    /// Building and sending an ICMP error.
    IcmpError => "icmp_error",
    /// TTL decrement and checksum update on forward.
    IpForward => "ip_forward",
    /// `ip_rcv` validation.
    IpRcv => "ip_rcv",
    /// One ipset probe.
    IpsetLookup => "ipset_lookup",
    /// ipvs backend scheduling.
    IpvsSched => "ipvs_sched",
    /// One executed eBPF instruction.
    JitInsn => "jit_insn",
    /// `bpf_l7_lookup`.
    L7Lookup => "l7_lookup",
    /// The slow path's L7 policy check.
    L7Policy => "l7_policy",
    /// Local socket delivery.
    LocalDeliver => "local_deliver",
    /// Generic eBPF map lookup.
    MapLookup => "map_lookup",
    /// Generic eBPF map update.
    MapUpdate => "map_update",
    /// Creating a NAT binding.
    NatBind => "nat_bind",
    /// NAT binding lookup, slow path or `bpf_nat_lookup`.
    NatLookup => "nat_lookup",
    /// Neighbour table lookup.
    NeighLookup => "neigh_lookup",
    /// Entering a netfilter hook.
    NfHook => "nf_hook",
    /// Evaluating one iptables rule.
    NfRuleMatch => "nf_rule_match",
    /// A charge under a name outside the catalogue.
    Other => "other",
    /// Qdisc enqueue, dequeue and transmit preparation.
    QdiscXmit => "qdisc_xmit",
    /// `sk_buff` allocation and initialization.
    SkbAlloc => "skb_alloc",
    /// One eBPF tail call.
    TailCall => "tail_call",
    /// Entering an attached TC program.
    TcEntry => "tc_entry",
    /// Crossing a veth pair.
    VethCross => "veth_cross",
    /// VPP's vector ACL match.
    VppAcl => "vpp_acl",
    /// VPP's per-packet graph-node walk.
    VppNode => "vpp_node",
    /// VPP's per-vector fixed cost, amortized per packet.
    VppVector => "vpp_vector",
    /// VXLAN decapsulation.
    VxlanDecap => "vxlan_decap",
    /// VXLAN encapsulation.
    VxlanEncap => "vxlan_encap",
    /// Entering an attached XDP program.
    XdpEntry => "xdp_entry",
    /// Copying a frame onto an AF_XDP ring.
    XskPush => "xsk_push",
}

/// A charge by name resolves through [`Stage::from_name`].
impl From<&str> for Stage {
    fn from(name: &str) -> Stage {
        Stage::from_name(name)
    }
}
