//! Greedy shrinker: reduce a diverging scenario to a minimal repro by
//! deleting ops, then individual packets, re-running after each removal
//! and keeping any deletion that preserves the divergence. Iterates to a
//! fixed point, so the result is 1-minimal (no single deletion helps).
//! Every candidate is a copy of the scenario, so it re-runs in the
//! scenario's own datapath mode.

use crate::runner;
use crate::scenario::{DiffScenario, Op};

/// Shrinks a diverging scenario. Returns the input unchanged if it does
/// not actually diverge.
pub fn shrink(ds: &DiffScenario) -> DiffScenario {
    shrink_while(ds, |candidate| runner::run(candidate).divergence.is_some())
}

/// [`shrink`] against any divergence predicate.
fn shrink_while(ds: &DiffScenario, still_diverges: impl Fn(&DiffScenario) -> bool) -> DiffScenario {
    let mut cur = ds.clone();
    if !still_diverges(&cur) {
        return cur;
    }
    loop {
        let mut progressed = false;

        // Pass 1: drop whole ops, last first (later ops are more likely
        // to be dead weight after the divergence point).
        let mut i = cur.ops.len();
        while i > 0 {
            i -= 1;
            if cur.ops.len() == 1 {
                break;
            }
            let mut candidate = cur.clone();
            candidate.ops.remove(i);
            if still_diverges(&candidate) {
                cur = candidate;
                progressed = true;
            }
        }

        // Pass 2: drop individual packets inside surviving bursts.
        let mut oi = cur.ops.len();
        while oi > 0 {
            oi -= 1;
            let n_packets = match &cur.ops[oi] {
                Op::Burst { packets, .. } => packets.len(),
                _ => continue,
            };
            let mut pi = n_packets;
            while pi > 0 {
                pi -= 1;
                let mut candidate = cur.clone();
                let emptied = match &mut candidate.ops[oi] {
                    Op::Burst { packets, .. } => {
                        if pi >= packets.len() {
                            continue;
                        }
                        packets.remove(pi);
                        packets.is_empty()
                    }
                    _ => unreachable!(),
                };
                if emptied {
                    if candidate.ops.len() == 1 {
                        continue;
                    }
                    candidate.ops.remove(oi);
                }
                if still_diverges(&candidate) {
                    let removed_op = emptied;
                    cur = candidate;
                    progressed = true;
                    if removed_op {
                        break;
                    }
                }
            }
        }

        if !progressed {
            break;
        }
    }
    cur.name = format!("{}-shrunk", cur.name);
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::PacketSpec;

    /// A divergence only a 4-shard, optimizer-off run can see survives
    /// shrinking, mode and all: every candidate carries the mode.
    #[test]
    fn shrinking_keeps_the_mode_that_found_the_divergence() {
        let mut ds = crate::generate(3);
        ds.shards = 4;
        ds.opt = false;
        let culprit = PacketSpec::Icmp { id: 7 };
        ds.ops.push(Op::Burst {
            dir: crate::Dir::Up,
            packets: vec![PacketSpec::Tcp { flow: 1 }, culprit],
        });
        let diverges = |c: &DiffScenario| {
            c.shards == 4
                && !c.opt
                && c.ops
                    .iter()
                    .any(|op| matches!(op, Op::Burst { packets, .. } if packets.contains(&culprit)))
        };
        let minimal = shrink_while(&ds, diverges);
        assert_eq!((minimal.shards, minimal.opt), (4, false));
        assert_eq!(
            minimal.ops,
            vec![Op::Burst {
                dir: crate::Dir::Up,
                packets: vec![culprit],
            }]
        );
        assert_eq!(minimal.name, format!("{}-shrunk", ds.name));
    }
}
