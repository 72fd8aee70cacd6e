//! Netfilter: the `filter` table, iptables-style rules, and ipset.
//!
//! Rule evaluation is deliberately a **linear scan** charging a per-rule
//! cost, because that linear search is precisely the scalability problem
//! the paper measures in Fig. 8 and works around with ipset aggregation
//! (one hash lookup standing in for many rules). The same evaluation code
//! serves the slow path and the fast path's `bpf_ipt_lookup` helper, so
//! both paths always agree on verdicts.

use crate::device::IfIndex;
use linuxfp_packet::ipv4::{IpProto, Prefix};
use linuxfp_packet::WordSet;
use linuxfp_sim::{CostModel, CostTracker, Stage};
use linuxfp_telemetry::trace::{TraceCtx, TraceEvent};
use linuxfp_telemetry::Counter;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// Hook points of the filter table we model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChainHook {
    /// Before routing.
    Prerouting,
    /// Destined to the local host.
    Input,
    /// Routed through the host — the hook the virtual gateway uses.
    Forward,
    /// Locally generated.
    Output,
    /// After routing, before transmission.
    Postrouting,
}

impl ChainHook {
    /// The iptables chain name.
    pub fn name(self) -> &'static str {
        match self {
            ChainHook::Prerouting => "PREROUTING",
            ChainHook::Input => "INPUT",
            ChainHook::Forward => "FORWARD",
            ChainHook::Output => "OUTPUT",
            ChainHook::Postrouting => "POSTROUTING",
        }
    }
}

/// Rule verdict / target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleTarget {
    /// Accept the packet (terminal).
    Accept,
    /// Drop the packet (terminal).
    Drop,
    /// Return to the calling chain.
    Return,
    /// Continue evaluation in a user-defined chain.
    Jump(String),
}

/// Which direction an ipset match applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetDir {
    /// Match the source address against the set.
    Src,
    /// Match the destination address against the set.
    Dst,
}

/// One iptables rule: a conjunction of matches and a target.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IptRule {
    /// Source prefix match (`-s`).
    pub src: Option<Prefix>,
    /// Destination prefix match (`-d`).
    pub dst: Option<Prefix>,
    /// Protocol match (`-p`).
    pub proto: Option<IpProto>,
    /// Destination port match (`--dport`).
    pub dport: Option<u16>,
    /// Source port match (`--sport`).
    pub sport: Option<u16>,
    /// Ingress interface match (`-i`).
    pub in_if: Option<IfIndex>,
    /// Egress interface match (`-o`).
    pub out_if: Option<IfIndex>,
    /// ipset match (`-m set --match-set NAME src|dst`).
    pub set_match: Option<(String, SetDir)>,
    /// The rule's target.
    pub target: RuleTargetField,
}

/// Wrapper so `IptRule` can derive `Default` (default target: Accept).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleTargetField(pub RuleTarget);

impl Default for RuleTargetField {
    fn default() -> Self {
        RuleTargetField(RuleTarget::Accept)
    }
}

impl IptRule {
    /// A rule dropping traffic to `dst` — the paper's gateway blacklist
    /// shape (`iptables -A FORWARD -d <prefix> -j DROP`).
    pub fn drop_dst(dst: Prefix) -> Self {
        IptRule {
            dst: Some(dst),
            target: RuleTargetField(RuleTarget::Drop),
            ..IptRule::default()
        }
    }

    /// A rule dropping traffic whose destination is in ipset `set`.
    pub fn drop_dst_set(set: impl Into<String>) -> Self {
        IptRule {
            set_match: Some((set.into(), SetDir::Dst)),
            target: RuleTargetField(RuleTarget::Drop),
            ..IptRule::default()
        }
    }

    /// The rule's target.
    pub fn target(&self) -> &RuleTarget {
        &self.target.0
    }
}

/// The L3/L4 metadata netfilter matches against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMeta {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// IP protocol.
    pub proto: IpProto,
    /// Source port (0 when not applicable).
    pub sport: u16,
    /// Destination port (0 when not applicable).
    pub dport: u16,
    /// Ingress interface.
    pub in_if: IfIndex,
    /// Egress interface ([`IfIndex::NONE`] before routing).
    pub out_if: IfIndex,
}

/// Final verdict of a chain traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfVerdict {
    /// Packet proceeds.
    Accept,
    /// Packet is discarded.
    Drop,
}

/// One chain traversal: its verdict and the work it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainWalk {
    /// Final verdict (the chain's policy when no rule terminated).
    pub verdict: NfVerdict,
    /// Rules compared, user chains included.
    pub rules: u64,
    /// ipsets probed.
    pub sets: u64,
}

/// A chain: ordered rules plus a policy for fall-through.
#[derive(Debug, Clone)]
pub struct Chain {
    /// Rules in evaluation order.
    pub rules: Vec<IptRule>,
    /// Applied when no rule terminates evaluation (built-in chains only).
    pub policy: NfVerdict,
}

impl Chain {
    fn new() -> Self {
        Chain {
            rules: Vec::new(),
            policy: NfVerdict::Accept,
        }
    }
}

/// An ipset: a named set of addresses or prefixes with O(1)-ish lookup.
#[derive(Debug, Clone)]
pub enum IpSet {
    /// `hash:ip` — exact addresses.
    HashIp(WordSet<Ipv4Addr>),
    /// `hash:net` — prefixes, looked up per distinct prefix length.
    HashNet(BTreeMap<u8, WordSet<u32>>),
}

impl IpSet {
    /// Creates an empty set of the given kind.
    pub fn new_hash_ip() -> Self {
        IpSet::HashIp(Default::default())
    }

    /// Creates an empty `hash:net` set.
    pub fn new_hash_net() -> Self {
        IpSet::HashNet(Default::default())
    }

    /// Adds a member. For `hash:ip` sets the prefix must be a /32.
    ///
    /// Returns `false` (and does nothing) when a non-host prefix is added
    /// to a `hash:ip` set.
    pub fn add(&mut self, prefix: Prefix) -> bool {
        match self {
            IpSet::HashIp(set) => {
                if prefix.len() != 32 {
                    return false;
                }
                set.insert(prefix.network());
                true
            }
            IpSet::HashNet(by_len) => {
                by_len
                    .entry(prefix.len())
                    .or_default()
                    .insert(u32::from(prefix.network()));
                true
            }
        }
    }

    /// Membership test for an address.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        match self {
            IpSet::HashIp(set) => set.contains(&addr),
            IpSet::HashNet(by_len) => by_len.iter().any(|(len, nets)| {
                let p = Prefix::new(addr, *len);
                nets.contains(&u32::from(p.network()))
            }),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        match self {
            IpSet::HashIp(set) => set.len(),
            IpSet::HashNet(by_len) => by_len.values().map(|s| s.len()).sum(),
        }
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every member, keeping the set's kind.
    pub fn clear(&mut self) {
        match self {
            IpSet::HashIp(set) => set.clear(),
            IpSet::HashNet(by_len) => by_len.clear(),
        }
    }
}

/// The netfilter subsystem: built-in chains, user chains, and ipsets.
#[derive(Debug, Clone)]
pub struct Netfilter {
    builtin: BTreeMap<ChainHook, Chain>,
    user_chains: HashMap<String, Chain>,
    sets: HashMap<String, IpSet>,
    /// Monotonic generation counter bumped on every rule/set change; the
    /// controller uses it to detect configuration changes cheaply.
    pub generation: u64,
    evaluations: Option<Counter>,
}

impl Netfilter {
    /// Creates the subsystem with empty built-in chains (policy ACCEPT).
    pub fn new() -> Self {
        let mut builtin = BTreeMap::new();
        for hook in [
            ChainHook::Prerouting,
            ChainHook::Input,
            ChainHook::Forward,
            ChainHook::Output,
            ChainHook::Postrouting,
        ] {
            builtin.insert(hook, Chain::new());
        }
        Netfilter {
            builtin,
            user_chains: HashMap::new(),
            sets: HashMap::new(),
            generation: 0,
            evaluations: None,
        }
    }

    /// Counts every chain evaluation (fast-path helper and slow-path
    /// alike) into `counter`.
    pub fn set_evaluation_counter(&mut self, counter: Counter) {
        self.evaluations = Some(counter);
    }

    /// Appends a rule to a built-in chain (`iptables -A <CHAIN> ...`).
    pub fn append(&mut self, hook: ChainHook, rule: IptRule) {
        self.builtin
            .get_mut(&hook)
            .expect("builtin chain")
            .rules
            .push(rule);
        self.generation += 1;
    }

    /// Deletes the rule at `index` from a built-in chain
    /// (`iptables -D <CHAIN> <num>`); returns it if present.
    pub fn delete(&mut self, hook: ChainHook, index: usize) -> Option<IptRule> {
        let chain = self.builtin.get_mut(&hook).expect("builtin chain");
        if index < chain.rules.len() {
            self.generation += 1;
            Some(chain.rules.remove(index))
        } else {
            None
        }
    }

    /// Removes all rules from a built-in chain (`iptables -F <CHAIN>`).
    pub fn flush(&mut self, hook: ChainHook) {
        self.builtin
            .get_mut(&hook)
            .expect("builtin chain")
            .rules
            .clear();
        self.generation += 1;
    }

    /// Sets a built-in chain's policy (`iptables -P <CHAIN> <policy>`).
    pub fn set_policy(&mut self, hook: ChainHook, policy: NfVerdict) {
        self.builtin.get_mut(&hook).expect("builtin chain").policy = policy;
        self.generation += 1;
    }

    /// Creates a user chain (`iptables -N <name>`); returns `false` if it
    /// already exists.
    pub fn new_chain(&mut self, name: impl Into<String>) -> bool {
        let name = name.into();
        if self.user_chains.contains_key(&name) {
            return false;
        }
        self.user_chains.insert(name, Chain::new());
        self.generation += 1;
        true
    }

    /// Appends a rule to a user chain; returns `false` if the chain does
    /// not exist.
    pub fn append_user(&mut self, chain: &str, rule: IptRule) -> bool {
        match self.user_chains.get_mut(chain) {
            Some(c) => {
                c.rules.push(rule);
                self.generation += 1;
                true
            }
            None => false,
        }
    }

    /// Creates an ipset (`ipset create <name> hash:ip|hash:net`); returns
    /// `false` if it already exists.
    pub fn set_create(&mut self, name: impl Into<String>, set: IpSet) -> bool {
        let name = name.into();
        if self.sets.contains_key(&name) {
            return false;
        }
        self.sets.insert(name, set);
        self.generation += 1;
        true
    }

    /// Adds a member to an ipset (`ipset add <name> <prefix>`); returns
    /// `false` if the set does not exist or rejects the member.
    pub fn set_add(&mut self, name: &str, prefix: Prefix) -> bool {
        let ok = match self.sets.get_mut(name) {
            Some(s) => s.add(prefix),
            None => false,
        };
        if ok {
            self.generation += 1;
        }
        ok
    }

    /// Empties an ipset (`ipset flush <name>`); returns `false` if the
    /// set does not exist. Flushing an already-empty set still counts as
    /// a configuration change (real `ipset flush` emits a netlink event
    /// regardless), so the generation always advances.
    pub fn set_flush(&mut self, name: &str) -> bool {
        match self.sets.get_mut(name) {
            Some(s) => {
                s.clear();
                self.generation += 1;
                true
            }
            None => false,
        }
    }

    /// An ipset by name.
    pub fn set(&self, name: &str) -> Option<&IpSet> {
        self.sets.get(name)
    }

    /// The rules currently in a built-in chain.
    pub fn rules(&self, hook: ChainHook) -> &[IptRule] {
        &self.builtin[&hook].rules
    }

    /// The policy of a built-in chain.
    pub fn policy(&self, hook: ChainHook) -> NfVerdict {
        self.builtin[&hook].policy
    }

    /// Total rules across all chains (used by the controller to decide
    /// whether a filter FPM is needed at all).
    pub fn total_rules(&self) -> usize {
        self.builtin.values().map(|c| c.rules.len()).sum::<usize>()
            + self
                .user_chains
                .values()
                .map(|c| c.rules.len())
                .sum::<usize>()
    }

    /// Names of all ipsets.
    pub fn set_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.sets.keys().cloned().collect();
        names.sort();
        names
    }

    /// Evaluates the chain at `hook` against `meta`, charging match costs
    /// to `tracker` — a linear scan at `nf_rule_linear_ns` per rule plus
    /// `ipset_lookup_ns` per set probed, after a fixed `nf_hook_base_ns`.
    pub fn evaluate(
        &self,
        hook: ChainHook,
        meta: &PacketMeta,
        cost: &CostModel,
        tracker: &mut CostTracker,
    ) -> NfVerdict {
        tracker.charge(Stage::NfHook, cost.nf_hook_base_ns);
        self.evaluate_with_rule_cost(hook, meta, cost, tracker, cost.nf_rule_linear_ns)
    }

    /// Like [`Netfilter::evaluate`], but appends a flight-recorder
    /// event carrying the chain, the verdict, and the virtual time the
    /// traversal charged. Costs are identical to [`Netfilter::evaluate`]
    /// — the trace context never charges time itself.
    pub fn evaluate_traced(
        &self,
        hook: ChainHook,
        meta: &PacketMeta,
        cost: &CostModel,
        tracker: &mut CostTracker,
        trace: &mut TraceCtx,
    ) -> NfVerdict {
        let before = tracker.total_ns();
        let verdict = self.evaluate(hook, meta, cost, tracker);
        let ns = tracker.total_ns() - before;
        trace.event(|| TraceEvent::Netfilter {
            chain: hook.name(),
            verdict: match verdict {
                NfVerdict::Accept => "accept",
                NfVerdict::Drop => "drop",
            },
            ns,
        });
        verdict
    }

    /// Like [`Netfilter::evaluate`], but charging a caller-chosen per-rule
    /// cost. The `bpf_ipt_lookup` helper uses this with its own (cheaper)
    /// per-rule price: it reimplements matching compactly instead of
    /// walking full xt entries, while still consulting the *same* rule
    /// table — semantics identical, constant factor different.
    pub fn evaluate_with_rule_cost(
        &self,
        hook: ChainHook,
        meta: &PacketMeta,
        cost: &CostModel,
        tracker: &mut CostTracker,
        rule_ns: f64,
    ) -> NfVerdict {
        // The walk counts, this prices: one charge per stage per traversal.
        let walk = self.walk(hook, meta);
        tracker.charge_n(Stage::NfRuleMatch, rule_ns, walk.rules);
        tracker.charge_n(Stage::IpsetLookup, cost.ipset_lookup_ns, walk.sets);
        walk.verdict
    }

    /// Traverses the chain at `hook` charging nothing: the verdict plus
    /// the work done, for the caller to price. Counts as one evaluation.
    pub fn walk(&self, hook: ChainHook, meta: &PacketMeta) -> ChainWalk {
        if let Some(c) = &self.evaluations {
            c.inc();
        }
        let chain = &self.builtin[&hook];
        let mut walk = ChainWalk {
            verdict: chain.policy,
            rules: 0,
            sets: 0,
        };
        if let Some(v) = self.eval_chain(chain, meta, 0, &mut walk) {
            walk.verdict = v;
        }
        walk
    }

    fn eval_chain(
        &self,
        chain: &Chain,
        meta: &PacketMeta,
        depth: usize,
        walk: &mut ChainWalk,
    ) -> Option<NfVerdict> {
        if depth > 16 {
            // Linux prevents chain loops at rule-insertion time; we bound
            // the recursion defensively instead.
            return Some(NfVerdict::Drop);
        }
        for rule in &chain.rules {
            walk.rules += 1;
            if !self.rule_matches(rule, meta, &mut walk.sets) {
                continue;
            }
            match rule.target() {
                RuleTarget::Accept => return Some(NfVerdict::Accept),
                RuleTarget::Drop => return Some(NfVerdict::Drop),
                RuleTarget::Return => return None,
                RuleTarget::Jump(name) => {
                    if let Some(sub) = self.user_chains.get(name) {
                        if let Some(v) = self.eval_chain(sub, meta, depth + 1, walk) {
                            return Some(v);
                        }
                    }
                }
            }
        }
        None
    }

    /// Whether `rule` matches; bumps `sets_probed` when it gets as far as
    /// its ipset match.
    fn rule_matches(&self, rule: &IptRule, meta: &PacketMeta, sets_probed: &mut u64) -> bool {
        if let Some(p) = &rule.src {
            if !p.contains(meta.src) {
                return false;
            }
        }
        if let Some(p) = &rule.dst {
            if !p.contains(meta.dst) {
                return false;
            }
        }
        if let Some(proto) = rule.proto {
            if proto != meta.proto {
                return false;
            }
        }
        if let Some(dport) = rule.dport {
            if dport != meta.dport {
                return false;
            }
        }
        if let Some(sport) = rule.sport {
            if sport != meta.sport {
                return false;
            }
        }
        if let Some(in_if) = rule.in_if {
            if in_if != meta.in_if {
                return false;
            }
        }
        if let Some(out_if) = rule.out_if {
            if out_if != meta.out_if {
                return false;
            }
        }
        if let Some((name, dir)) = &rule.set_match {
            *sets_probed += 1;
            let addr = match dir {
                SetDir::Src => meta.src,
                SetDir::Dst => meta.dst,
            };
            match self.sets.get(name) {
                Some(set) if set.contains(addr) => {}
                _ => return false,
            }
        }
        true
    }
}

impl Default for Netfilter {
    fn default() -> Self {
        Netfilter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(dst: [u8; 4]) -> PacketMeta {
        PacketMeta {
            src: Ipv4Addr::new(192, 168, 0, 1),
            dst: Ipv4Addr::from(dst),
            proto: IpProto::Udp,
            sport: 1000,
            dport: 2000,
            in_if: IfIndex(1),
            out_if: IfIndex(2),
        }
    }

    fn eval(nf: &Netfilter, hook: ChainHook, m: &PacketMeta) -> (NfVerdict, CostTracker) {
        let cost = CostModel::calibrated();
        let mut t = CostTracker::new();
        let v = nf.evaluate(hook, m, &cost, &mut t);
        (v, t)
    }

    #[test]
    fn empty_chain_applies_policy() {
        let nf = Netfilter::new();
        let (v, t) = eval(&nf, ChainHook::Forward, &meta([10, 10, 3, 1]));
        assert_eq!(v, NfVerdict::Accept);
        assert_eq!(t.stage_count("nf_rule_match"), 0);
        let mut nf = Netfilter::new();
        nf.set_policy(ChainHook::Forward, NfVerdict::Drop);
        let (v, _) = eval(&nf, ChainHook::Forward, &meta([10, 10, 3, 1]));
        assert_eq!(v, NfVerdict::Drop);
    }

    #[test]
    fn drop_rule_matches_destination() {
        let mut nf = Netfilter::new();
        nf.append(
            ChainHook::Forward,
            IptRule::drop_dst("10.10.3.0/24".parse().unwrap()),
        );
        let (v, _) = eval(&nf, ChainHook::Forward, &meta([10, 10, 3, 7]));
        assert_eq!(v, NfVerdict::Drop);
        let (v, _) = eval(&nf, ChainHook::Forward, &meta([10, 10, 4, 7]));
        assert_eq!(v, NfVerdict::Accept);
    }

    #[test]
    fn linear_cost_scales_with_rule_count() {
        let mut nf = Netfilter::new();
        for i in 0..100u32 {
            nf.append(
                ChainHook::Forward,
                IptRule::drop_dst(Prefix::new(Ipv4Addr::from(0xC0A8_0000 + (i << 8)), 24)),
            );
        }
        // A packet matching none of the 100 rules pays for all of them.
        let (v, t) = eval(&nf, ChainHook::Forward, &meta([10, 10, 3, 1]));
        assert_eq!(v, NfVerdict::Accept);
        assert_eq!(t.stage_count("nf_rule_match"), 100);
        // A packet matching rule 0 pays for one.
        let (v, t) = eval(&nf, ChainHook::Forward, &meta([192, 168, 0, 9]));
        assert_eq!(v, NfVerdict::Drop);
        assert_eq!(t.stage_count("nf_rule_match"), 1);
    }

    #[test]
    fn ipset_aggregation_replaces_linear_scan() {
        let mut nf = Netfilter::new();
        let mut set = IpSet::new_hash_net();
        for i in 0..100u32 {
            set.add(Prefix::new(Ipv4Addr::from(0xC0A8_0000 + (i << 8)), 24));
        }
        assert_eq!(set.len(), 100);
        nf.set_create("blacklist", set);
        nf.append(ChainHook::Forward, IptRule::drop_dst_set("blacklist"));
        // One rule + one set lookup regardless of member count.
        let (v, t) = eval(&nf, ChainHook::Forward, &meta([192, 168, 42, 1]));
        assert_eq!(v, NfVerdict::Drop);
        assert_eq!(t.stage_count("nf_rule_match"), 1);
        assert_eq!(t.stage_count("ipset_lookup"), 1);
        let (v, _) = eval(&nf, ChainHook::Forward, &meta([8, 8, 8, 8]));
        assert_eq!(v, NfVerdict::Accept);
    }

    /// Every entry point prices exactly the work its walk did: rules
    /// visited and sets probed, through early exits, user chains and the
    /// recursion guard.
    #[test]
    fn charges_equal_rules_visited_and_sets_probed() {
        let to = |dst: &str, target| IptRule {
            dst: Some(dst.parse().unwrap()),
            target: RuleTargetField(target),
            ..IptRule::default()
        };
        let jump = |chain: &str| RuleTarget::Jump(chain.into());
        let mut nf = Netfilter::new();
        let evaluations = Counter::new();
        nf.set_evaluation_counter(evaluations.clone());
        let mut set = IpSet::new_hash_net();
        set.add("192.168.0.0/16".parse().unwrap());
        nf.set_create("bl", set);
        nf.new_chain("USER");
        nf.append_user("USER", to("10.1.0.0/16", RuleTarget::Return));
        nf.append_user("USER", to("10.2.0.0/16", RuleTarget::Drop));
        nf.new_chain("LOOP");
        nf.append_user("LOOP", to("0.0.0.0/0", jump("LOOP")));
        nf.append(ChainHook::Forward, to("10.9.0.0/16", RuleTarget::Accept));
        nf.append(ChainHook::Forward, to("0.0.0.0/0", jump("USER")));
        nf.append(ChainHook::Forward, IptRule::drop_dst_set("bl"));
        nf.append(ChainHook::Forward, to("172.16.0.0/12", jump("LOOP")));
        let mut kernel = crate::stack::Kernel::new(1);
        kernel.netfilter = nf.clone();

        use NfVerdict::{Accept, Drop};
        let cases = [
            ([10, 9, 1, 1], Accept, 1, 0),      // first rule accepts
            ([10, 1, 1, 1], Accept, 5, 1),      // USER returns, FORWARD goes on
            ([10, 2, 1, 1], Drop, 4, 0),        // dropped inside USER
            ([192, 168, 7, 7], Drop, 5, 1),     // set member
            ([172, 16, 0, 1], Drop, 6 + 16, 1), // LOOP to the depth-16 guard
        ];
        let cost = CostModel::calibrated();
        for (dst, verdict, rules, sets) in cases {
            let m = meta(dst);
            let walk = ChainWalk {
                verdict,
                rules,
                sets,
            };
            assert_eq!(nf.walk(ChainHook::Forward, &m), walk, "{dst:?}");
            let counts = |t: &CostTracker| {
                (
                    t.stage_count("nf_rule_match"),
                    t.stage_count("ipset_lookup"),
                )
            };

            let (v, plain) = eval(&nf, ChainHook::Forward, &m);
            let slow_ns = cost.nf_hook_base_ns
                + rules as f64 * cost.nf_rule_linear_ns
                + sets as f64 * cost.ipset_lookup_ns;
            assert_eq!((v, counts(&plain)), (verdict, (rules, sets)), "{dst:?}");
            assert_eq!(plain.total_ns(), slow_ns);

            // Traced: the same charges, after some earlier ones, and the
            // event carries the traversal's own share.
            let mut traced = CostTracker::new();
            traced.charge(Stage::SkbAlloc, cost.skb_alloc_ns);
            let mut trace = TraceCtx::begin(0, 1, 0);
            let v = nf.evaluate_traced(ChainHook::Forward, &m, &cost, &mut traced, &mut trace);
            assert_eq!((v, counts(&traced)), (verdict, (rules, sets)), "{dst:?}");
            let span = trace.finish(&traced, linuxfp_telemetry::trace::Disposition::Queued);
            match span.events[..] {
                [TraceEvent::Netfilter { chain, ns, .. }] => {
                    assert_eq!((chain, ns), ("FORWARD", slow_ns));
                }
                ref other => panic!("expected one netfilter event, got {other:?}"),
            }

            let mut helper = CostTracker::new();
            let v = kernel.helper_ipt_lookup(&m, &mut helper);
            assert_eq!((v, counts(&helper)), (verdict, (rules, sets)), "{dst:?}");
            assert_eq!(
                helper.total_ns(),
                rules as f64 * cost.helper_ipt_rule_ns + sets as f64 * cost.ipset_lookup_ns
            );
        }
        // walk, evaluate, evaluate_traced and the helper (the kernel's
        // clone of the table shares the counter) each count once per case.
        assert_eq!(evaluations.get(), 4 * cases.len() as u64);
    }

    #[test]
    fn hash_ip_set_requires_host_prefix() {
        let mut set = IpSet::new_hash_ip();
        assert!(!set.add("10.0.0.0/24".parse().unwrap()));
        assert!(set.add("10.0.0.5/32".parse().unwrap()));
        assert!(set.contains(Ipv4Addr::new(10, 0, 0, 5)));
        assert!(!set.contains(Ipv4Addr::new(10, 0, 0, 6)));
        assert!(!set.is_empty());
    }

    #[test]
    fn match_dimensions() {
        let mut nf = Netfilter::new();
        nf.append(
            ChainHook::Forward,
            IptRule {
                proto: Some(IpProto::Tcp),
                dport: Some(443),
                in_if: Some(IfIndex(1)),
                target: RuleTargetField(RuleTarget::Drop),
                ..IptRule::default()
            },
        );
        let mut m = meta([1, 1, 1, 1]);
        let (v, _) = eval(&nf, ChainHook::Forward, &m);
        assert_eq!(v, NfVerdict::Accept); // UDP doesn't match
        m.proto = IpProto::Tcp;
        m.dport = 443;
        let (v, _) = eval(&nf, ChainHook::Forward, &m);
        assert_eq!(v, NfVerdict::Drop);
        m.in_if = IfIndex(9);
        let (v, _) = eval(&nf, ChainHook::Forward, &m);
        assert_eq!(v, NfVerdict::Accept);
    }

    #[test]
    fn user_chain_jump_and_return() {
        let mut nf = Netfilter::new();
        assert!(nf.new_chain("CUSTOM"));
        assert!(!nf.new_chain("CUSTOM"));
        assert!(nf.append_user(
            "CUSTOM",
            IptRule {
                dst: Some("10.0.0.0/8".parse().unwrap()),
                target: RuleTargetField(RuleTarget::Drop),
                ..IptRule::default()
            }
        ));
        assert!(!nf.append_user("MISSING", IptRule::default()));
        nf.append(
            ChainHook::Forward,
            IptRule {
                target: RuleTargetField(RuleTarget::Jump("CUSTOM".into())),
                ..IptRule::default()
            },
        );
        nf.append(
            ChainHook::Forward,
            IptRule {
                target: RuleTargetField(RuleTarget::Drop),
                ..IptRule::default()
            },
        );
        // Matches in CUSTOM -> dropped there.
        let (v, _) = eval(&nf, ChainHook::Forward, &meta([10, 1, 1, 1]));
        assert_eq!(v, NfVerdict::Drop);
        // Falls through CUSTOM, returns, hits the second FORWARD rule.
        let (v, _) = eval(&nf, ChainHook::Forward, &meta([8, 8, 8, 8]));
        assert_eq!(v, NfVerdict::Drop);
    }

    #[test]
    fn return_target_stops_user_chain() {
        let mut nf = Netfilter::new();
        nf.new_chain("C");
        nf.append_user(
            "C",
            IptRule {
                target: RuleTargetField(RuleTarget::Return),
                ..IptRule::default()
            },
        );
        nf.append_user(
            "C",
            IptRule {
                target: RuleTargetField(RuleTarget::Drop),
                ..IptRule::default()
            },
        );
        nf.append(
            ChainHook::Forward,
            IptRule {
                target: RuleTargetField(RuleTarget::Jump("C".into())),
                ..IptRule::default()
            },
        );
        let (v, _) = eval(&nf, ChainHook::Forward, &meta([1, 2, 3, 4]));
        assert_eq!(v, NfVerdict::Accept); // policy, not the drop after Return
    }

    #[test]
    fn delete_and_flush() {
        let mut nf = Netfilter::new();
        nf.append(
            ChainHook::Forward,
            IptRule::drop_dst("10.0.0.0/8".parse().unwrap()),
        );
        nf.append(
            ChainHook::Forward,
            IptRule::drop_dst("11.0.0.0/8".parse().unwrap()),
        );
        assert_eq!(nf.total_rules(), 2);
        assert!(nf.delete(ChainHook::Forward, 0).is_some());
        assert!(nf.delete(ChainHook::Forward, 5).is_none());
        assert_eq!(nf.rules(ChainHook::Forward).len(), 1);
        nf.flush(ChainHook::Forward);
        assert_eq!(nf.total_rules(), 0);
    }

    #[test]
    fn generation_bumps_on_changes() {
        let mut nf = Netfilter::new();
        let g0 = nf.generation;
        nf.append(ChainHook::Forward, IptRule::default());
        assert!(nf.generation > g0);
        let g1 = nf.generation;
        nf.set_create("s", IpSet::new_hash_ip());
        nf.set_add("s", "1.2.3.4/32".parse().unwrap());
        assert!(nf.generation > g1);
        assert_eq!(nf.set_names(), vec!["s".to_string()]);
        assert!(nf.set("s").is_some());
        assert!(nf.set("t").is_none());
    }

    #[test]
    fn missing_set_never_matches() {
        let mut nf = Netfilter::new();
        nf.append(ChainHook::Forward, IptRule::drop_dst_set("ghost"));
        let (v, _) = eval(&nf, ChainHook::Forward, &meta([1, 2, 3, 4]));
        assert_eq!(v, NfVerdict::Accept);
    }
}
