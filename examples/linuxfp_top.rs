//! `top` for fast paths: drive mixed traffic through a LinuxFP host and
//! print a live per-FPM hit-ratio table from the telemetry registry —
//! fast-path hits vs slow-path fallbacks, per-subsystem slow-path
//! counters, reconcile latency quantiles and the trace-event ring.
//!
//! ```text
//! cargo run --example linuxfp_top
//! ```

use linuxfp::packet::builder;
use linuxfp::prelude::*;
use linuxfp::telemetry::trace::{CostBreakdown, TraceRing};
use linuxfp::telemetry::Scale;

/// One refresh of the dashboard: the per-FPM table plus the slow-path,
/// drop-reason, flight-recorder and controller gauges underneath. Every
/// section is omitted (with a stub line where that would be confusing)
/// rather than rendered blank when its counter family has no series yet.
fn draw(round: usize, reg: &Registry, ring: &TraceRing) {
    println!("── round {round} ──────────────────────────────────────────");
    let hits_series = reg.counter_series("linuxfp_fp_hits_total");
    if hits_series.is_empty() {
        println!("(no fast-path telemetry yet — dispatcher not installed)");
    } else {
        println!(
            "{:<16} {:>8} {:>10} {:>9} {:>7} {:>6}",
            "FPM", "hits", "fallbacks", "hit%", "insns", "-opt"
        );
        let fallbacks = reg.counter_series("linuxfp_slowpath_fallbacks_total");
        for (labels, hits) in hits_series {
            let fpm = labels
                .iter()
                .find(|(k, _)| k == "fpm")
                .map(|(_, v)| v.as_str())
                .unwrap_or("?");
            let fb = fallbacks
                .iter()
                .find(|(ls, _)| ls == &labels)
                .map(|&(_, v)| v)
                .unwrap_or(0);
            let total = hits + fb;
            let ratio = if total == 0 {
                0.0
            } else {
                100.0 * hits as f64 / total as f64
            };
            // The deployed program's size and what the bytecode
            // optimizer shaved off it, from the per-FPM deploy gauges.
            let l = [("fpm", fpm)];
            let size = reg
                .gauge_value("linuxfp_fp_program_insns", &l)
                .map_or("-".to_string(), |v| v.to_string());
            let shaved = reg
                .gauge_value("linuxfp_opt_insns_removed", &l)
                .map_or("-".to_string(), |v| format!("-{v}"));
            println!("{fpm:<16} {hits:>8} {fb:>10} {ratio:>8.1}% {size:>7} {shaved:>6}");
        }
        let before = reg.counter_total("linuxfp_opt_insns_before_total");
        let after = reg.counter_total("linuxfp_opt_insns_after_total");
        if before > 0 {
            println!(
                "optimizer: {before} insns in -> {after} out across deploys ({:.1}% removed)",
                100.0 * (before - after) as f64 / before as f64
            );
        }
    }
    let slow: Vec<String> = reg
        .counter_series("linuxfp_slowpath_packets_total")
        .into_iter()
        .filter(|&(_, v)| v > 0)
        .map(|(ls, v)| {
            let s = ls
                .iter()
                .find(|(k, _)| k == "subsystem")
                .map(|(_, v)| v.as_str())
                .unwrap_or("?")
                .to_string();
            format!("{s}={v}")
        })
        .collect();
    let slow_detail = if slow.is_empty() {
        String::new()
    } else {
        format!(" [{}]", slow.join(" "))
    };
    println!(
        "slow path: injected={}{slow_detail}  drops={}",
        reg.counter_total("linuxfp_packets_injected_total"),
        reg.counter_total("linuxfp_drops_total"),
    );

    // Top-k drop reasons, straight from the taxonomy labels on
    // linuxfp_drops_total. Silent when nothing has been dropped.
    let mut drops: Vec<(String, u64)> = reg
        .counter_series("linuxfp_drops_total")
        .into_iter()
        .filter(|&(_, v)| v > 0)
        .map(|(ls, v)| {
            let reason = ls
                .iter()
                .find(|(k, _)| k == "reason")
                .map(|(_, v)| v.as_str())
                .unwrap_or("?")
                .to_string();
            (reason, v)
        })
        .collect();
    if !drops.is_empty() {
        drops.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let top: Vec<String> = drops
            .iter()
            .take(5)
            .map(|(r, v)| format!("{r}={v}"))
            .collect();
        println!("drop reasons: {}", top.join(" "));
    }

    let fc_hits = reg.counter_total("linuxfp_flowcache_hits_total");
    let fc_misses = reg.counter_total("linuxfp_flowcache_misses_total");
    let fc_total = fc_hits + fc_misses;
    if fc_total > 0 {
        println!(
            "flow cache: hits={fc_hits} misses={fc_misses} records={} hit%={:.1} invalidations={} evictions={}",
            reg.counter_total("linuxfp_flowcache_records_total"),
            100.0 * fc_hits as f64 / fc_total as f64,
            reg.counter_total("linuxfp_flowcache_invalidations_total"),
            reg.counter_total("linuxfp_flowcache_evictions_total"),
        );
    }

    draw_shards(reg);

    // Per-stage cost attribution from the flight recorder's sampled
    // spans: one compact row per regime/disposition, costliest stage
    // first.
    let breakdown = CostBreakdown::from_spans(&ring.recent());
    for (regime, disposition, pkts, ns_per_pkt, _p50, _p99) in breakdown.rows() {
        let group = format!("{}/{disposition}", regime.as_str());
        let stages: Vec<String> = breakdown
            .top_stages(regime, disposition, 3)
            .into_iter()
            .map(|(stage, ns)| format!("{stage} {ns:.0}"))
            .collect();
        println!(
            "trace: {group:<22} {pkts:>5} pkts {ns_per_pkt:>8.1} ns/pkt  top: {}",
            stages.join(", ")
        );
    }

    let reconcile = reg.histogram("linuxfp_reconcile_seconds", &[], Scale::NanosToSeconds);
    if reconcile.count() > 0 {
        println!(
            "controller: {} reconciles, p50 {:.2}ms, p99 {:.2}ms, rebuilds={}",
            reconcile.count(),
            reconcile.quantile(50.0) / 1e6,
            reconcile.quantile(99.0) / 1e6,
            reg.counter_total("linuxfp_graph_rebuilds_total"),
        );
    }
    println!();
}

/// The per-shard panel: packets steered, fast-path and flow-cache hit
/// ratios, pool occupancy and drops per RSS shard. Silent until the
/// datapath is sharded (`net.linuxfp.rss_shards > 1` — the shard series
/// only exist then).
fn draw_shards(reg: &Registry) {
    let mut shards: Vec<(String, u64)> = reg
        .counter_series("linuxfp_shard_packets_total")
        .into_iter()
        .map(|(ls, v)| {
            let shard = ls
                .iter()
                .find(|(k, _)| k == "shard")
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            (shard, v)
        })
        .collect();
    if shards.is_empty() {
        return;
    }
    shards.sort_by_key(|(s, _)| s.parse::<u32>().unwrap_or(u32::MAX));
    println!(
        "{:<6} {:>8} {:>7} {:>7} {:>12} {:>7}",
        "shard", "pkts", "fp%", "fc%", "pool", "drops"
    );
    for (shard, pkts) in shards {
        let l = [("shard", shard.as_str())];
        let ratio = |hit_name: &str, miss_name: &str| -> String {
            let h = reg.counter_value(hit_name, &l).unwrap_or(0);
            let m = reg.counter_value(miss_name, &l).unwrap_or(0);
            if h + m == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", 100.0 * h as f64 / (h + m) as f64)
            }
        };
        let fp = ratio(
            "linuxfp_shard_fp_hits_total",
            "linuxfp_shard_fallbacks_total",
        );
        let fc = ratio(
            "linuxfp_shard_flowcache_hits_total",
            "linuxfp_shard_flowcache_misses_total",
        );
        let pool = {
            let free = reg.gauge_value("linuxfp_pool_buffers", &[("state", "free"), l[0]]);
            let out = reg.gauge_value("linuxfp_pool_buffers", &[("state", "outstanding"), l[0]]);
            match (free, out) {
                (Some(f), Some(o)) => format!("{o} out/{} alloc", f + o),
                _ => "-".to_string(),
            }
        };
        let drops: u64 = reg
            .counter_series("linuxfp_shard_drops_total")
            .into_iter()
            .filter(|(ls, _)| ls.iter().any(|(k, v)| k == "shard" && *v == shard))
            .map(|(_, v)| v)
            .sum();
        println!("{shard:<6} {pkts:>8} {fp:>7} {fc:>7} {pool:>12} {drops:>7}");
    }
    let coherence = reg.counter_total("linuxfp_coherence_events_total");
    if coherence > 0 {
        let census: Vec<String> = reg
            .counter_series("linuxfp_coherence_events_total")
            .into_iter()
            .filter(|&(_, v)| v > 0)
            .map(|(ls, v)| {
                let s = ls
                    .iter()
                    .find(|(k, _)| k == "structure")
                    .map(|(_, v)| v.as_str())
                    .unwrap_or("?")
                    .to_string();
                format!("{s}={v}")
            })
            .collect();
        println!("coherence misses: {}", census.join(" "));
    }
}

fn main() {
    let registry = Registry::new();
    let scenario = Scenario::router();
    let mut host = LinuxFpPlatform::with_telemetry(scenario, HookPoint::Xdp, registry.clone());
    let mac = host.dut_mac();
    // Flight recorder on every packet: the demo is tiny, so trade the
    // sampling budget for a complete per-stage breakdown panel.
    let ring = host.kernel_mut().enable_flight_recorder(4096, 1);

    // Rounds 1-2: pure forwarding — everything should hit the fast path.
    for round in 1..=2 {
        for i in 0..50u64 {
            host.process(scenario.frame(mac, i, 60));
        }
        draw(round, &registry, &ring);
    }

    // Reconfigure at runtime: add an iptables blacklist. The controller
    // reacts by swapping in a router+filter fast path (watch the FPM
    // label change and the swap land in the event ring).
    host.kernel_mut().iptables_append(
        linuxfp::netstack::netfilter::ChainHook::Forward,
        linuxfp::netstack::netfilter::IptRule::drop_dst(Scenario::blacklist_prefix(0)),
    );
    let report = host.poll_controller().expect("netfilter change triggers");
    println!(
        "*** controller reacted in {:.2}ms: {} FPM instances installed ***\n",
        report.reaction.as_secs_f64() * 1e3,
        report.fpm_count
    );

    // Rounds 3-5: mixed traffic — forwarded and blacklisted flows. Drops
    // on the fast path count as hits (the fast path made the decision).
    for round in 3..=5 {
        for i in 0..30u64 {
            host.process(scenario.frame(mac, i, 60));
        }
        for i in 0..10u32 {
            let blocked = builder::udp_packet(
                linuxfp::platforms::scenario::SOURCE_MAC,
                mac,
                std::net::Ipv4Addr::new(10, 0, 1, 100),
                Scenario::blacklist_prefix(0).nth_host(i + 1),
                4000 + i as u16,
                53,
                b"",
            );
            host.process(blocked);
        }
        draw(round, &registry, &ring);
    }

    // Reconfigure again: L7 request policies. The fast path grows a
    // payload-parsing stage (`router+l7+filter` in the FPM column) that
    // denies `/blocked/*` requests in the hook and punts anything its
    // bounded parser cannot judge.
    host.kernel_mut()
        .l7_policy_append(linuxfp::netstack::l7::L7Policy::prefix(
            b"/blocked/",
            linuxfp::netstack::l7::L7Action::Deny,
        ));
    let report = host.poll_controller().expect("l7 change triggers");
    println!(
        "*** controller reacted in {:.2}ms: {} FPM instances installed ***\n",
        report.reaction.as_secs_f64() * 1e3,
        report.fpm_count
    );

    // Rounds 6-7: HTTP request traffic — allowed requests, denied
    // requests, and TLS-looking garbage the parser punts on.
    for round in 6..=7 {
        for i in 0..20u64 {
            let payload: Vec<u8> = match i % 4 {
                0 | 1 => Scenario::http_request(i),
                2 => scenario.blocked_http_request(i),
                _ => vec![0x16, 0x03, 0x01, 0x00, 0x2a],
            };
            host.process(scenario.http_frame(mac, i, &payload));
        }
        draw(round, &registry, &ring);
    }

    // Shard the datapath: 4 RSS queues, each with its own buffer pool,
    // flow cache and ledger. The panel grows a per-shard section; the
    // output bytes stay identical to the single-core rounds above.
    host.kernel_mut()
        .sysctl_set("net.linuxfp.rss_shards", 4)
        .expect("rss_shards sysctl exists");
    let pool = linuxfp::packet::ShardedPool::new(4);
    linuxfp::netstack::stack::wire_sharded_pool_telemetry(&pool, &registry);
    println!("*** net.linuxfp.rss_shards=4: datapath sharded across 4 queues ***\n");
    for round in 8..=9 {
        let mut batch = linuxfp::packet::Batch::new();
        for i in 0..40u64 {
            let frame = scenario.frame(mac, i, 60);
            // The NIC-side steering decision also picks which per-queue
            // pool backs the buffer, like per-queue RX rings do.
            let shard = linuxfp::netstack::stack::rss::shard_for(&frame, 4) as usize;
            batch.push(pool.acquire_from(shard, &frame));
        }
        host.process_batch(&mut batch);
        draw(round, &registry, &ring);
    }

    // The transparency ledger: every injected packet was decided exactly
    // once — by the fast path (hit) or the stock stack (fallback).
    let hits = registry.counter_total("linuxfp_fp_hits_total");
    let fallbacks = registry.counter_total("linuxfp_slowpath_fallbacks_total");
    let injected = registry.counter_total("linuxfp_packets_injected_total");
    println!("conservation: {hits} hits + {fallbacks} fallbacks = {injected} injected");
    assert_eq!(
        hits + fallbacks,
        injected,
        "no packet lost or double-counted"
    );
    // One level down, the microflow verdict cache keeps the same ledger:
    // every hook-entered packet either hit the cache or counted a miss.
    let fc_hits = registry.counter_total("linuxfp_flowcache_hits_total");
    let fc_misses = registry.counter_total("linuxfp_flowcache_misses_total");
    println!("flow cache:   {fc_hits} hits + {fc_misses} misses = {injected} injected");
    assert_eq!(
        fc_hits + fc_misses,
        injected,
        "flow-cache ledger must balance"
    );
    // Only second sightings are recorded; only gate-passing recordings
    // are stored.
    let fc_records = registry.counter_total("linuxfp_flowcache_records_total");
    let fc_inserts = registry.counter_total("linuxfp_flowcache_inserts_total");
    println!("flow cache:   {fc_inserts} inserts <= {fc_records} records <= {fc_misses} misses");
    assert!(
        fc_inserts <= fc_records && fc_records <= fc_misses,
        "flow-cache recording ledger out of order"
    );

    println!("\nrecent control-plane events:");
    for e in registry.events().recent() {
        println!("  [{:>6}] {:<16} {}", e.seq, e.kind, e.detail);
    }

    println!("\nscrape endpoint preview (render_prometheus):");
    for line in linuxfp::telemetry::render_prometheus(&registry)
        .lines()
        .filter(|l| l.contains("fp_hits") || l.contains("reconcile_seconds_count"))
    {
        println!("  {line}");
    }
}
