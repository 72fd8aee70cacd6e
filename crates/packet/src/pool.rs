//! Recyclable packet buffers: a free-list [`BufferPool`] and the
//! [`PacketBuf`] handle the whole datapath passes around.
//!
//! The real systems the paper compares never allocate per packet in
//! steady state: NIC drivers recycle DMA buffers through page pools, and
//! VPP hands vectors of pre-allocated `vlib_buffer_t`s from node to node.
//! `PacketBuf` reproduces that discipline for the simulation: a buffer is
//! checked out of a pool, flows through hooks / the slow path / transmit
//! effects, and is returned to the pool's free list when the last holder
//! drops it — on *every* exit path (transmit, deliver, drop, punt),
//! because the return lives in `Drop`.
//!
//! A `PacketBuf` derefs to `Vec<u8>`, so all existing parsing and
//! rewriting code operates on it unchanged. Detaching (`into_vec`) or
//! cloning yields a plain unpooled buffer.
//!
//! The pool deliberately has **no dependencies** (this crate is the
//! workspace leaf); observability is wired from the outside through
//! [`BufferPool::set_occupancy_observer`].

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard};

/// Callback invoked with fresh [`PoolStats`] after every acquire, recycle
/// and detach (how the telemetry crate exports a pool-occupancy gauge
/// without this crate depending on it). It runs under the pool's lock,
/// so observers see operations in order and must not call back into the
/// pool.
pub type OccupancyObserver = Arc<dyn Fn(&PoolStats) + Send + Sync>;

/// Counters describing a pool's behavior. `allocated` only grows when the
/// free list is empty at acquire time — a warmed-up steady state shows
/// `allocated` constant while `reused` climbs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers ever created by this pool (heap allocations).
    pub allocated: u64,
    /// Acquisitions served from the free list (no allocation).
    pub reused: u64,
    /// Buffers handed back to the free list.
    pub recycled: u64,
    /// Buffers currently checked out (held by live `PacketBuf`s).
    pub outstanding: u64,
    /// Buffers currently sitting in the free list.
    pub free: u64,
}

/// Everything a pool operation reads or writes, behind the pool's one
/// lock.
#[derive(Default)]
struct PoolState {
    free: Vec<Vec<u8>>,
    stats: PoolStats,
    observer: Option<OccupancyObserver>,
}

impl PoolState {
    /// Hands the post-operation stats to the observer, if any.
    fn observe(&self) {
        if let Some(f) = &self.observer {
            f(&self.stats);
        }
    }
}

/// Shared pool internals; `PacketBuf` holds an `Arc` to return itself.
#[derive(Default)]
pub struct PoolInner {
    state: Mutex<PoolState>,
}

impl PoolInner {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().expect("pool poisoned")
    }

    /// A checked-out buffer left the pool for good (`into_vec`).
    fn detach(&self) {
        let mut state = self.lock();
        state.stats.outstanding = state.stats.outstanding.saturating_sub(1);
        state.observe();
    }

    fn recycle(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut state = self.lock();
        state.free.push(buf);
        state.stats.recycled += 1;
        state.stats.outstanding = state.stats.outstanding.saturating_sub(1);
        state.stats.free = state.free.len() as u64;
        state.observe();
    }
}

impl fmt::Debug for PoolInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolInner")
            .field("stats", &self.lock().stats)
            .finish()
    }
}

/// A free-list buffer pool. Cloning is cheap (shared handle). Every
/// operation takes the pool's one lock once.
#[derive(Clone, Debug, Default)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// An empty pool; buffers are allocated lazily on first acquire.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Checks out an empty buffer, reusing a free one when available.
    pub fn acquire(&self) -> PacketBuf {
        let data = {
            let mut state = self.inner.lock();
            let data = match state.free.pop() {
                Some(buf) => {
                    state.stats.reused += 1;
                    buf
                }
                None => {
                    state.stats.allocated += 1;
                    Vec::new()
                }
            };
            state.stats.outstanding += 1;
            state.stats.free = state.free.len() as u64;
            state.observe();
            data
        };
        PacketBuf {
            data,
            pool: Some(Arc::clone(&self.inner)),
        }
    }

    /// Checks out a buffer pre-filled with a copy of `bytes`.
    pub fn acquire_from(&self, bytes: &[u8]) -> PacketBuf {
        let mut buf = self.acquire();
        buf.extend_from_slice(bytes);
        buf
    }

    /// Current pool counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// Registers (or replaces) the observer called after every acquire,
    /// recycle and detach with the post-operation [`PoolStats`], from the
    /// next operation on.
    pub fn set_occupancy_observer(&self, observer: OccupancyObserver) {
        self.inner.lock().observer = Some(observer);
    }
}

/// Per-shard buffer pools for a multi-queue datapath: one independent
/// [`BufferPool`] free list per RSS shard, so shards never contend on
/// (or share cache lines of) each other's buffer stacks — the same
/// reason real drivers keep one page pool per receive queue.
///
/// Shard 0's pool is the "default" pool a non-sharded caller sees, so a
/// `ShardedPool::new(1)` behaves exactly like one `BufferPool`.
#[derive(Clone, Debug)]
pub struct ShardedPool {
    pools: Vec<BufferPool>,
}

impl ShardedPool {
    /// Creates `shards` independent pools (`shards` is clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedPool {
            pools: (0..shards).map(|_| BufferPool::new()).collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.pools.len()
    }

    /// The pool owned by `shard` (indices past the end wrap via modulo,
    /// so callers can pass a raw RSS hash).
    pub fn pool(&self, shard: usize) -> &BufferPool {
        &self.pools[shard % self.pools.len()]
    }

    /// Checks out a buffer from `shard`'s pool, pre-filled with `bytes`.
    pub fn acquire_from(&self, shard: usize, bytes: &[u8]) -> PacketBuf {
        self.pool(shard).acquire_from(bytes)
    }

    /// Per-shard counters, indexed by shard.
    pub fn per_shard_stats(&self) -> Vec<PoolStats> {
        self.pools.iter().map(|p| p.stats()).collect()
    }

    /// Counters summed across every shard.
    pub fn aggregate_stats(&self) -> PoolStats {
        let mut agg = PoolStats::default();
        for p in &self.pools {
            let s = p.stats();
            agg.allocated += s.allocated;
            agg.reused += s.reused;
            agg.recycled += s.recycled;
            agg.outstanding += s.outstanding;
            agg.free += s.free;
        }
        agg
    }
}

impl Default for ShardedPool {
    fn default() -> Self {
        ShardedPool::new(1)
    }
}

/// An owned frame buffer that returns itself to its pool on drop.
///
/// Derefs to `Vec<u8>` so parsing/rewriting code is agnostic to pooling.
/// A `PacketBuf` built from a plain `Vec<u8>` (or by `clone`) has no
/// pool and drops normally.
pub struct PacketBuf {
    data: Vec<u8>,
    pool: Option<Arc<PoolInner>>,
}

impl PacketBuf {
    /// Wraps an unpooled buffer.
    pub fn from_vec(data: Vec<u8>) -> Self {
        PacketBuf { data, pool: None }
    }

    /// Whether this buffer will return to a pool on drop.
    pub fn is_pooled(&self) -> bool {
        self.pool.is_some()
    }

    /// Detaches the bytes, consuming the handle without recycling.
    pub fn into_vec(mut self) -> Vec<u8> {
        if let Some(pool) = self.pool.take() {
            pool.detach();
        }
        std::mem::take(&mut self.data)
    }

    /// The frame bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }
}

impl Drop for PacketBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.recycle(std::mem::take(&mut self.data));
        }
    }
}

impl Deref for PacketBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.data
    }
}

impl DerefMut for PacketBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }
}

impl Clone for PacketBuf {
    /// Clones detach from the pool: the copy is a plain heap buffer.
    fn clone(&self) -> Self {
        PacketBuf::from_vec(self.data.clone())
    }
}

impl fmt::Debug for PacketBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Forward to the byte vector so `{:x?}` renders frames the same
        // way they rendered when effects carried plain `Vec<u8>`s.
        fmt::Debug::fmt(&self.data, f)
    }
}

impl PartialEq for PacketBuf {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl Eq for PacketBuf {}

impl PartialEq<Vec<u8>> for PacketBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.data == other
    }
}

impl PartialEq<[u8]> for PacketBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.data == other
    }
}

impl From<Vec<u8>> for PacketBuf {
    fn from(data: Vec<u8>) -> Self {
        PacketBuf::from_vec(data)
    }
}

impl From<PacketBuf> for Vec<u8> {
    fn from(buf: PacketBuf) -> Vec<u8> {
        buf.into_vec()
    }
}

impl AsRef<[u8]> for PacketBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn acquire_recycle_round_trip() {
        let pool = BufferPool::new();
        let mut a = pool.acquire();
        a.extend_from_slice(b"hello");
        assert!(a.is_pooled());
        assert_eq!(pool.stats().allocated, 1);
        assert_eq!(pool.stats().outstanding, 1);
        drop(a);
        let s = pool.stats();
        assert_eq!((s.recycled, s.outstanding, s.free), (1, 0, 1));
        // The next acquire reuses the buffer, cleared.
        let b = pool.acquire();
        assert!(b.is_empty());
        let s = pool.stats();
        assert_eq!((s.allocated, s.reused), (1, 1));
    }

    #[test]
    fn steady_state_stops_allocating() {
        let pool = BufferPool::new();
        for _ in 0..4 {
            let _warm = [pool.acquire(), pool.acquire()];
        }
        let before = pool.stats().allocated;
        for _ in 0..100 {
            let a = pool.acquire_from(b"frame");
            assert_eq!(a.as_slice(), b"frame");
            drop(a);
        }
        assert_eq!(pool.stats().allocated, before, "no growth after warm-up");
    }

    #[test]
    fn into_vec_detaches_without_recycling() {
        let pool = BufferPool::new();
        let a = pool.acquire_from(b"xyz");
        let v = a.into_vec();
        assert_eq!(v, b"xyz");
        let s = pool.stats();
        assert_eq!(s.recycled, 0);
        assert_eq!(s.outstanding, 0, "detached buffers leave the pool");
    }

    #[test]
    fn clone_is_unpooled_and_equal() {
        let pool = BufferPool::new();
        let a = pool.acquire_from(&[1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(!b.is_pooled());
        assert_eq!(b, vec![1u8, 2, 3]);
    }

    #[test]
    fn observer_sees_occupancy() {
        let pool = BufferPool::new();
        let peak = Arc::new(AtomicU64::new(0));
        let p = Arc::clone(&peak);
        pool.set_occupancy_observer(Arc::new(move |s: &PoolStats| {
            p.fetch_max(s.outstanding, Ordering::Relaxed);
        }));
        let a = pool.acquire();
        let b = pool.acquire();
        drop(a);
        drop(b);
        assert_eq!(peak.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn observer_runs_once_per_operation_on_post_operation_stats() {
        let pool = BufferPool::new();
        // Checked out before any observer: nobody sees this acquire.
        let early = pool.acquire();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        pool.set_occupancy_observer(Arc::new(move |s: &PoolStats| {
            log.lock().unwrap().push(*s);
        }));
        drop(early); // recycle
        let reused = pool.acquire(); // acquire from the free list
        let fresh = pool.acquire_from(b"x"); // acquire, allocating
        drop(fresh.into_vec()); // detach
        drop(reused); // recycle
        let stats = |allocated, reused, recycled, outstanding, free| PoolStats {
            allocated,
            reused,
            recycled,
            outstanding,
            free,
        };
        assert_eq!(
            *seen.lock().unwrap(),
            [
                stats(1, 0, 1, 0, 1),
                stats(1, 1, 1, 1, 0),
                stats(2, 1, 1, 2, 0),
                stats(2, 1, 1, 1, 0),
                stats(2, 1, 2, 0, 1),
            ]
        );
        assert_eq!(pool.stats(), stats(2, 1, 2, 0, 1));
    }

    #[test]
    fn sharded_pool_isolates_free_lists() {
        let sharded = ShardedPool::new(4);
        assert_eq!(sharded.shards(), 4);
        // Warm shard 2 only.
        for _ in 0..3 {
            let _b = sharded.acquire_from(2, b"frame");
        }
        let per = sharded.per_shard_stats();
        assert_eq!(per[2].allocated, 1, "shard 2 reuses its own buffer");
        assert_eq!(per[0].allocated + per[1].allocated + per[3].allocated, 0);
        // A different shard cannot see shard 2's free list.
        let _other = sharded.acquire_from(1, b"x");
        assert_eq!(sharded.per_shard_stats()[1].allocated, 1);
        let agg = sharded.aggregate_stats();
        assert_eq!(agg.allocated, 2);
        assert_eq!(agg.recycled, 3);
        // Modulo indexing accepts raw hashes; clamping keeps ≥1 shard.
        assert_eq!(sharded.pool(6).stats().allocated, 1); // 6 % 4 == 2
        assert_eq!(ShardedPool::new(0).shards(), 1);
    }

    #[test]
    fn unpooled_from_vec() {
        let buf = PacketBuf::from(vec![9u8; 4]);
        assert!(!buf.is_pooled());
        assert_eq!(buf.len(), 4);
        let back: Vec<u8> = buf.into();
        assert_eq!(back, vec![9u8; 4]);
    }
}
