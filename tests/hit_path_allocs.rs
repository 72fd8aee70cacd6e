//! The steady-state datapath allocates one thing per burst, sharded or
//! not: the vector of outcomes it returns. A flow-cache hit, a
//! first-sighting miss and a burst's own bookkeeping — amortization
//! flags, cost trackers, per-shard times, effects — allocate nothing. A
//! warm pod-to-pod send allocates six times, each a frame or a queue it
//! needs. Recording a router flow allocates for the diff and the entry,
//! not for its rewrite bytes or an empty helper log. This binary
//! installs its own counting allocator, so the property is held by the
//! tier-1 suite, not only by the benchmark.

use linuxfp::netstack::stack::Effect;
use linuxfp::packet::{builder, Batch, BufferPool};
use linuxfp::platforms::scenario::SOURCE_MAC;
use linuxfp::platforms::{LinuxFpPlatform, Platform, Scenario};
use linuxfp::sim::Nanos;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

thread_local! {
    /// Allocation events on this thread: the harness's other threads
    /// cannot disturb a test's count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread event counter.
struct CountingAllocator;

fn count() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, as `System.realloc` needs.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const BURST: usize = 32;
const FLOWS: u64 = 256;

/// A LinuxFP platform fed bursts of a fixed set of flows from one pool,
/// so the pool and the batch are warm once the flows have been seen.
struct Driver {
    platform: LinuxFpPlatform,
    frames: Vec<Vec<u8>>,
    pool: BufferPool,
    batch: Batch,
    cursor: usize,
}

impl Driver {
    /// `shards` RSS shards on `scenario`; with `blocked`, one frame in
    /// eight goes to a blacklisted destination.
    fn new(scenario: Scenario, shards: i64, blocked: bool) -> Driver {
        let mut platform = LinuxFpPlatform::new(scenario);
        if shards > 1 {
            platform
                .kernel_mut()
                .sysctl_set("net.linuxfp.rss_shards", shards)
                .unwrap();
            platform.poll_controller();
        }
        let mac = platform.dut_mac();
        let frames = (0..FLOWS)
            .map(|i| {
                let dst = if blocked && i % 8 == 7 {
                    scenario.blocked_dst(i as u32)
                } else {
                    scenario.allowed_dst(i)
                };
                let client = Ipv4Addr::new(10, 0, 1, 100);
                builder::udp_packet_sized(SOURCE_MAC, mac, client, dst, 1024 + i as u16, 4791, 60)
            })
            .collect();
        Driver {
            platform,
            frames,
            pool: BufferPool::new(),
            batch: Batch::with_capacity(BURST),
            cursor: 0,
        }
    }

    /// Runs `bursts` bursts, calling `before` ahead of each, and returns
    /// the allocations the bursts made and how many frames hit the flow
    /// cache. Building a burst and checking its outcome are not counted.
    fn run(&mut self, bursts: usize, mut before: impl FnMut(&mut LinuxFpPlatform)) -> (u64, u64) {
        let (mut allocs, mut hits) = (0, 0);
        for _ in 0..bursts {
            before(&mut self.platform);
            for _ in 0..BURST {
                let frame = &self.frames[self.cursor];
                self.batch.push(self.pool.acquire_from(frame));
                self.cursor = (self.cursor + 1) % self.frames.len();
            }
            let start = allocations();
            let out = self.platform.process_batch(&mut self.batch);
            allocs += allocations() - start;
            assert_eq!(out.outcomes.len(), BURST);
            for rx in &out.outcomes {
                // Every frame ends in exactly one transmit or drop.
                assert!(
                    matches!(
                        rx.effects[..],
                        [Effect::Transmit { .. } | Effect::Drop { .. }]
                    ),
                    "{:?}",
                    rx.effects
                );
                hits += rx.cost.stage_count("flowcache_hit");
            }
        }
        (allocs, hits)
    }
}

/// Bursts counted after warm-up.
const BURSTS: usize = 40;

#[test]
fn a_warm_router_burst_allocates_only_what_it_returns() {
    for shards in [1, 8] {
        let mut d = Driver::new(Scenario::router(), shards, false);
        // Three passes over every flow: placed, recorded, then served.
        d.run(3 * FLOWS as usize / BURST + 1, |_| {});
        let (allocs, hits) = d.run(BURSTS, |_| {});
        assert_eq!(hits, (BURSTS * BURST) as u64, "{shards} shard(s): all hits");
        assert_eq!(
            allocs, BURSTS as u64,
            "{shards} shard(s): the outcome vector per burst, nothing per hit"
        );
    }
}

#[test]
fn first_sighting_gateway_bursts_allocate_only_what_they_return() {
    let mut d = Driver::new(Scenario::gateway(), 1, true);
    // The clock moves before every burst: the cache is flushed, and every
    // frame is a first sighting that runs the program unrecorded.
    let advance = |p: &mut LinuxFpPlatform| p.kernel_mut().advance(Nanos::from_micros(10));
    d.run(2 * FLOWS as usize / BURST, advance);
    let (allocs, hits) = d.run(BURSTS, advance);
    assert_eq!(hits, 0);
    assert_eq!(allocs, BURSTS as u64, "the outcome vector per burst");
}

#[test]
fn a_warm_pod_to_pod_send_allocates_six_times() {
    let mut cluster = linuxfp::k8s::Cluster::new(2, true);
    let a = cluster.add_pod(0);
    let b = cluster.add_pod(1);
    cluster.warm_pair(a, b);
    let payload = [7u8; 64];
    // Warm every flow-cache entry both directions use.
    for _ in 0..3 {
        assert!(cluster.pod_send(a, b, &payload).delivered);
        assert!(cluster.pod_send(b, a, &payload).delivered);
    }
    const SENDS: u64 = 40;
    let start = allocations();
    for i in 0..SENDS {
        let (from, to) = if i % 2 == 0 { (a, b) } else { (b, a) };
        let report = cluster.pod_send(from, to, &payload);
        assert!(report.delivered && report.fast_path_hits > 0, "{report:?}");
    }
    // Per send: the pod's frame; on each node the queue its veth
    // crossing re-queues onto; the VXLAN outer frame; the decapsulated
    // inner frame; and the vector of frames on the wire. The learned
    // VTEP and the frame put on the wire are not copied.
    assert_eq!(allocations() - start, 6 * SENDS);
}

#[test]
fn an_admitted_router_recording_allocates_four_times() {
    let s = Scenario::router();
    let mut platform = LinuxFpPlatform::new(s);
    let frame = s.frame(platform.dut_mac(), 0, 60);
    let pool = BufferPool::new();
    let mut batch = Batch::with_capacity(1);
    // One frame of the flow per burst: (allocations, cache hits).
    let mut send = |platform: &mut LinuxFpPlatform| {
        batch.push(pool.acquire_from(&frame));
        let start = allocations();
        let out = platform.process_batch(&mut batch);
        let allocs = allocations() - start;
        (allocs, out.outcomes[0].cost.stage_count("flowcache_hit"))
    };
    // First sighting: a placeholder (and the warm-up of the pool).
    send(&mut platform);
    let recording = send(&mut platform);
    assert_eq!(
        send(&mut platform),
        (1, 1),
        "then a hit: the outcome vector"
    );
    // The outcome vector, the frame copy the diff reads, and the entry:
    // its box and its rewrite ops. The ops hold their bytes inline, and a
    // router program logs no helper touch, so its empty log allocates
    // nothing.
    assert_eq!(recording, (4, 0));
}
