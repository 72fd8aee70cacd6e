//! Seeded scenario generation: every scenario is a pure function of its
//! seed, so a failing seed reproduces exactly and a CI sweep is stable.

use crate::runner::CLIENTS;
use crate::scenario::{ChurnOp, DiffScenario, Dir, Op, PacketSpec, MALFORMED_KINDS};
use linuxfp_ebpf::hook::HookPoint;
use linuxfp_platforms::Scenario;
use linuxfp_sim::SimRng;

/// Generates the scenario for one seed.
pub fn generate(seed: u64) -> DiffScenario {
    let mut rng = SimRng::seed(seed);
    let base = Scenario::randomized(&mut rng);
    let hook = if rng.chance(0.3) {
        HookPoint::Tc
    } else {
        HookPoint::Xdp
    };
    let ipvs = rng.chance(0.4);
    let dnat = base.prefixes >= 2 && rng.chance(0.4);
    // A quarter of seeds also burst through a two-port bridge beside the
    // router. Drawn from a stream of its own, so the other seeds' ops are
    // what they were before bridges were drawn.
    let bridged = SimRng::seed(seed ^ BRIDGE_STREAM).chance(0.25);

    let mut ops = Vec::new();
    // Upper bound on masquerade allocations so far: reply targets are
    // drawn from the deterministic port sequence 32768, 32769, ...
    let mut masq_upper: u16 = 0;
    let n_ops = 12 + rng.uniform_u64(20);
    for _ in 0..n_ops {
        match rng.uniform_u64(100) {
            0..=54 if bridged && rng.chance(0.3) => ops.push(gen_station_burst(&mut rng)),
            0..=54 => {
                let burst = gen_burst(&mut rng, &base, ipvs, dnat, &mut masq_upper);
                ops.push(burst);
            }
            55..=69 => ops.push(Op::Churn(gen_churn(&mut rng, &base, ipvs))),
            70..=77 => ops.extend(gen_established_churn(
                &mut rng,
                &base,
                ipvs,
                dnat,
                &mut masq_upper,
            )),
            78..=89 => {
                let ns = if rng.chance(0.1) {
                    // Rarely jump past the conntrack established timeout.
                    NANOS_PER_SEC * (601 + rng.uniform_u64(120))
                } else {
                    1 + rng.uniform_u64(5 * NANOS_PER_SEC)
                };
                ops.push(Op::Advance { ns });
            }
            _ => ops.push(Op::Housekeeping),
        }
    }
    // Always end with traffic so late churn is observable.
    ops.push(gen_burst(&mut rng, &base, ipvs, dnat, &mut masq_upper));

    let (shards, opt) = gen_mode(seed);
    DiffScenario {
        name: format!("seed-{seed}"),
        seed,
        base,
        hook,
        ipvs,
        dnat,
        shards,
        opt,
        ops,
    }
}

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Salt of the mode stream: "mode" in ASCII.
const MODE_STREAM: u64 = 0x6D6F_6465;

/// The seed's datapath mode, one of the four `(shards ∈ {1, 4}, opt)`
/// combinations. Drawn from a stream of its own, so a seed's ops are the
/// same whatever its mode.
fn gen_mode(seed: u64) -> (u32, bool) {
    let draw = SimRng::seed(seed ^ MODE_STREAM).uniform_u64(4);
    (if draw & 1 == 1 { 4 } else { 1 }, draw & 2 == 0)
}

/// Salt of the bridge stream: "br" in ASCII.
const BRIDGE_STREAM: u64 = 0x6272;

/// Station traffic through one bridge port: a few UDP flows between the
/// two stations, so repeats hit the bridge fast path's flow cache, its
/// `bpf_fdb_lookup`s learn and refresh both stations, and the scenario's
/// clock advances age them.
fn gen_station_burst(rng: &mut SimRng) -> Op {
    let dir = if rng.chance(0.5) {
        Dir::BridgeA
    } else {
        Dir::BridgeB
    };
    let n = 1 + rng.uniform_u64(8);
    let packets = (0..n)
        .map(|_| PacketSpec::Station {
            flow: rng.uniform_u64(4),
        })
        .collect();
    Op::Burst { dir, packets }
}

fn gen_burst(
    rng: &mut SimRng,
    base: &Scenario,
    ipvs: bool,
    dnat: bool,
    masq_upper: &mut u16,
) -> Op {
    // Reply bursts enter downstream; everything else upstream.
    if base.masquerade && *masq_upper > 0 && rng.chance(0.2) {
        let n = 1 + rng.uniform_u64(4);
        let packets = (0..n)
            .map(|_| PacketSpec::Reply {
                server_flow: rng.uniform_u64(u64::from(base.prefixes)),
                port_off: rng.uniform_u64(u64::from(*masq_upper)) as u16,
            })
            .collect();
        return Op::Burst {
            dir: Dir::Down,
            packets,
        };
    }
    let n = 1 + rng.uniform_u64(12);
    let packets = (0..n)
        .map(|_| gen_packet(rng, base, ipvs, dnat, masq_upper))
        .collect();
    Op::Burst {
        dir: Dir::Up,
        packets,
    }
}

fn gen_packet(
    rng: &mut SimRng,
    base: &Scenario,
    ipvs: bool,
    dnat: bool,
    masq_upper: &mut u16,
) -> PacketSpec {
    loop {
        return match rng.uniform_u64(100) {
            0..=31 => PacketSpec::Forward {
                flow: rng.uniform_u64(1 + 2 * u64::from(base.prefixes)),
                len: 60 + rng.uniform_u64(1437) as u16,
            },
            // HTTP-ish TCP payloads regardless of configured policies:
            // with none, the L7 stage must stay invisible; with some,
            // every variant (allowed, blocked, split, garbage, empty)
            // must decide identically on both paths.
            32..=39 => PacketSpec::Http {
                flow: rng.uniform_u64(1 + 2 * u64::from(base.prefixes)),
                variant: rng.uniform_u64(crate::scenario::HTTP_VARIANTS.len() as u64) as u8,
            },
            40..=54 if base.masquerade => {
                // Any fresh client flow may allocate one masquerade port;
                // track the upper bound for reply generation.
                *masq_upper = masq_upper.saturating_add(1);
                PacketSpec::Client {
                    client: rng.uniform_u64(u64::from(CLIENTS)) as u8,
                    flow: rng.uniform_u64(u64::from(base.prefixes)),
                }
            }
            55..=64 if base.filter_rules > 0 => PacketSpec::Blocked {
                rule: rng.uniform_u64(u64::from(base.filter_rules)) as u32,
            },
            65..=69 => PacketSpec::ToHost {
                sport: 1024 + rng.uniform_u64(40000) as u16,
            },
            70..=76 if ipvs => PacketSpec::Vip {
                sport: 1024 + rng.uniform_u64(40000) as u16,
            },
            77..=83 if dnat => PacketSpec::Dnat {
                sport: 1024 + rng.uniform_u64(40000) as u16,
            },
            84..=88 => PacketSpec::Tcp {
                flow: rng.uniform_u64(1 + u64::from(base.prefixes)),
            },
            89..=92 => PacketSpec::Icmp {
                id: rng.uniform_u64(4096) as u16,
            },
            93..=99 => PacketSpec::Malformed {
                kind: rng.uniform_u64(MALFORMED_KINDS.len() as u64) as u8,
                flow: rng.uniform_u64(1 + u64::from(base.prefixes)),
            },
            // Guarded arms that didn't apply: draw again.
            _ => continue,
        };
    }
}

fn gen_churn(rng: &mut SimRng, base: &Scenario, ipvs: bool) -> ChurnOp {
    // Guarded arms that don't apply fall through to the thrash subset,
    // which is always applicable.
    match rng.uniform_u64(14) {
        0 => ChurnOp::IptAppend {
            rule: rng.uniform_u64(100) as u32,
        },
        1 if base.filter_rules > 0 => ChurnOp::IptFlush,
        2 => ChurnOp::RouteAdd {
            i: rng.uniform_u64(8) as u32,
        },
        3 => ChurnOp::RouteDel {
            i: rng.uniform_u64(u64::from(base.prefixes)) as u32,
        },
        4 => ChurnOp::NatAppendDnat {
            dport: 8081 + rng.uniform_u64(16) as u16,
        },
        5 if base.masquerade => ChurnOp::NatFlush,
        6 if base.use_ipset => ChurnOp::IpsetAdd {
            i: rng.uniform_u64(200) as u32,
        },
        7 if ipvs => ChurnOp::IpvsAddBackend {
            i: rng.uniform_u64(16) as u8,
        },
        8 => ChurnOp::L7Append {
            i: rng.uniform_u64(16) as u32,
        },
        9 if base.l7_policies > 0 => ChurnOp::L7Flush,
        _ => gen_thrash(rng, base, ipvs),
    }
}

/// The cache-thrashing churn subset: configuration events whose *point*
/// is invalidating derived fast-path state (verdict cache, batch-resolved
/// programs) with little or no semantic change.
fn gen_thrash(rng: &mut SimRng, base: &Scenario, ipvs: bool) -> ChurnOp {
    loop {
        return match rng.uniform_u64(4) {
            0 => ChurnOp::RouteReplace {
                i: rng.uniform_u64(u64::from(base.prefixes.max(1))) as u32,
            },
            1 if base.use_ipset => ChurnOp::IpsetFlush,
            2 if ipvs || base.masquerade => ChurnOp::CtCap {
                cap: 8 + rng.uniform_u64(56) as u32,
            },
            3 => ChurnOp::FpmSwap,
            _ => continue,
        };
    }
}

/// The microflow verdict cache's regression surface: an established flow
/// whose packets interleave with cache-thrashing churn. Every churn op
/// bumps the coherence generation, so each following packet must
/// re-derive its verdict from scratch — and still emit byte-identical
/// output.
fn gen_established_churn(
    rng: &mut SimRng,
    base: &Scenario,
    ipvs: bool,
    dnat: bool,
    masq_upper: &mut u16,
) -> Vec<Op> {
    let spec = loop {
        break match rng.uniform_u64(5) {
            0 => PacketSpec::Forward {
                flow: rng.uniform_u64(1 + 2 * u64::from(base.prefixes)),
                len: 60 + rng.uniform_u64(1437) as u16,
            },
            // A pinned L7 connection: churn flushes the pin, and the
            // next segment must re-derive the same verdict.
            4 if base.l7_policies > 0 => PacketSpec::Http {
                flow: rng.uniform_u64(1 + u64::from(base.prefixes)),
                variant: 0,
            },
            1 if base.masquerade => {
                *masq_upper = masq_upper.saturating_add(1);
                PacketSpec::Client {
                    client: rng.uniform_u64(u64::from(CLIENTS)) as u8,
                    flow: rng.uniform_u64(u64::from(base.prefixes)),
                }
            }
            2 if ipvs => PacketSpec::Vip {
                sport: 1024 + rng.uniform_u64(40000) as u16,
            },
            3 if dnat => PacketSpec::Dnat {
                sport: 1024 + rng.uniform_u64(40000) as u16,
            },
            _ => continue,
        };
    };
    // Two packets establish and cache the flow, then churn and repeat
    // packets alternate.
    let mut ops = vec![Op::Burst {
        dir: Dir::Up,
        packets: vec![spec, spec],
    }];
    for _ in 0..2 + rng.uniform_u64(3) {
        ops.push(Op::Churn(gen_thrash(rng, base, ipvs)));
        ops.push(Op::Burst {
            dir: Dir::Up,
            packets: vec![spec],
        });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0, 1, 42, 0xDEAD] {
            assert_eq!(generate(seed), generate(seed), "seed {seed}");
        }
    }

    #[test]
    fn a_share_of_seeds_bursts_through_the_bridge() {
        let bridged = (0..400)
            .filter(|&seed| {
                generate(seed).ops.iter().any(|op| {
                    matches!(
                        op,
                        Op::Burst {
                            dir: Dir::BridgeA | Dir::BridgeB,
                            ..
                        }
                    )
                })
            })
            .count();
        assert!((60..=140).contains(&bridged), "{bridged} of 400 seeds");
    }

    #[test]
    fn scenarios_vary_across_seeds() {
        let distinct: std::collections::HashSet<String> =
            (0..16).map(|s| generate(s).to_json()).collect();
        assert!(
            distinct.len() >= 15,
            "seeds barely vary: {}",
            distinct.len()
        );
    }

    #[test]
    fn generated_scenarios_round_trip_as_fixtures() {
        for seed in 0..16 {
            let s = generate(seed);
            let back = crate::scenario::DiffScenario::from_json(&s.to_json()).unwrap();
            assert_eq!(s, back, "seed {seed}");
        }
    }
}
