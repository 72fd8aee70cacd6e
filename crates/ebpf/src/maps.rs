//! eBPF maps: hash, array, LPM trie, and program arrays.
//!
//! Two roles in the reproduction:
//!
//! 1. **Program arrays** implement the tail-call mechanism LinuxFP uses to
//!    atomically swap data paths (paper Fig. 4): the dispatcher program
//!    tail-calls through slot 0, and installing a new data path is a
//!    single slot update.
//! 2. **Data maps** are what *alternative* platforms (the Polycube-style
//!    baseline) use for custom state instead of kernel helpers — the
//!    design LinuxFP argues against for transparency reasons. Keeping
//!    them here lets the benchmarks compare both designs honestly.
//!
//! Maps use interior mutability (`std::sync::RwLock`) so that programs
//! holding shared references can update them, mirroring how real maps are
//! shared kernel objects.

use crate::program::LoadedProgram;
use linuxfp_packet::WordMap;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Identifies a map within a [`MapStore`] (an "fd").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MapId(pub u32);

/// Errors from map operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// No map with that id.
    NoSuchMap(u32),
    /// Operation not supported for this map kind.
    WrongType(&'static str),
    /// The map is full.
    Full,
    /// Key size does not match the map definition.
    BadKey,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::NoSuchMap(id) => write!(f, "no such map: {id}"),
            MapError::WrongType(what) => write!(f, "wrong map type for {what}"),
            MapError::Full => write!(f, "map is full"),
            MapError::BadKey => write!(f, "bad key size"),
        }
    }
}

impl std::error::Error for MapError {}

enum MapKind {
    Hash {
        entries: WordMap<Vec<u8>, Vec<u8>>,
        max_entries: usize,
    },
    Array {
        entries: Vec<Vec<u8>>,
    },
    /// Longest-prefix-match over `(prefix_len, be32 addr)` keys, like
    /// `BPF_MAP_TYPE_LPM_TRIE` with 4-byte data.
    Lpm {
        by_len: BTreeMap<u8, WordMap<u32, Vec<u8>>>,
    },
    ProgArray {
        slots: Vec<Option<LoadedProgram>>,
    },
    /// An AF_XDP socket map (`BPF_MAP_TYPE_XSKMAP`): frames redirected
    /// here surface on the bound user-space socket.
    Xsk {
        queue: Arc<RwLock<VecDeque<Vec<u8>>>>,
        capacity: usize,
    },
}

/// The user-space end of an AF_XDP socket: frames redirected into the
/// bound XSK map are received here, raw, without any kernel stack
/// processing (paper §VIII: "sending raw packets directly from the XDP
/// layer to user space").
#[derive(Clone)]
pub struct XskSocket {
    queue: Arc<RwLock<VecDeque<Vec<u8>>>>,
}

impl fmt::Debug for XskSocket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XskSocket({} pending)",
            self.queue.read().expect("xsk lock").len()
        )
    }
}

impl XskSocket {
    /// Receives the next frame, if any.
    pub fn recv(&self) -> Option<Vec<u8>> {
        self.queue.write().expect("xsk lock").pop_front()
    }

    /// Frames currently queued.
    pub fn pending(&self) -> usize {
        self.queue.read().expect("xsk lock").len()
    }
}

/// A collection of maps shared between user space (the controller /
/// platform control planes) and programs.
#[derive(Clone, Default)]
pub struct MapStore {
    maps: Arc<RwLock<Vec<MapKind>>>,
    /// Bumped on every program-array slot write (install, uninstall,
    /// swap). Shared across clones, like the maps themselves. Hook
    /// dispatchers fold it into their coherence generation so cached
    /// slot resolutions and microflow verdict-cache entries are
    /// invalidated by data-path swaps.
    prog_generation: Arc<AtomicU64>,
}

impl fmt::Debug for MapStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MapStore({} maps)",
            self.maps.read().expect("map lock").len()
        )
    }
}

impl MapStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MapStore::default()
    }

    fn push(&self, kind: MapKind) -> MapId {
        let mut maps = self.maps.write().expect("map lock");
        maps.push(kind);
        MapId(maps.len() as u32 - 1)
    }

    /// Creates a hash map with the given capacity.
    pub fn create_hash(&self, max_entries: usize) -> MapId {
        self.push(MapKind::Hash {
            entries: WordMap::default(),
            max_entries,
        })
    }

    /// Creates an array map of `size` zero-filled `value_size`-byte slots.
    pub fn create_array(&self, size: usize, value_size: usize) -> MapId {
        self.push(MapKind::Array {
            entries: vec![vec![0; value_size]; size],
        })
    }

    /// Creates an LPM-trie map over IPv4 prefixes.
    pub fn create_lpm(&self) -> MapId {
        self.push(MapKind::Lpm {
            by_len: BTreeMap::new(),
        })
    }

    /// Creates a program array with `slots` empty slots.
    pub fn create_prog_array(&self, slots: usize) -> MapId {
        self.push(MapKind::ProgArray {
            slots: vec![None; slots],
        })
    }

    /// Creates an AF_XDP socket map and returns the bound user-space
    /// socket handle. Frames `bpf_redirect_map`-ed into the map are read
    /// with [`XskSocket::recv`]; when the ring is full, new frames are
    /// dropped (as on real XSK rings).
    pub fn create_xsk(&self, capacity: usize) -> (MapId, XskSocket) {
        let queue = Arc::new(RwLock::new(VecDeque::new()));
        let id = self.push(MapKind::Xsk {
            queue: queue.clone(),
            capacity,
        });
        (id, XskSocket { queue })
    }

    /// Pushes a frame into an XSK map's ring (what the redirect helper
    /// does). Returns `false` when the map is not an XSK map or the ring
    /// is full (frame dropped).
    pub fn xsk_push(&self, id: MapId, frame: Vec<u8>) -> bool {
        let maps = self.maps.read().expect("map lock");
        match maps.get(id.0 as usize) {
            Some(MapKind::Xsk { queue, capacity }) => {
                let mut q = queue.write().expect("xsk lock");
                if q.len() >= *capacity {
                    return false;
                }
                q.push_back(frame);
                true
            }
            _ => false,
        }
    }

    fn with<R>(
        &self,
        id: MapId,
        f: impl FnOnce(&mut MapKind) -> Result<R, MapError>,
    ) -> Result<R, MapError> {
        let mut maps = self.maps.write().expect("map lock");
        let kind = maps
            .get_mut(id.0 as usize)
            .ok_or(MapError::NoSuchMap(id.0))?;
        f(kind)
    }

    /// Looks up `key`; returns a copy of the value.
    ///
    /// # Errors
    ///
    /// Fails for unknown map ids or program arrays.
    pub fn lookup(&self, id: MapId, key: &[u8]) -> Result<Option<Vec<u8>>, MapError> {
        self.with(id, |kind| match kind {
            MapKind::Hash { entries, .. } => Ok(entries.get(key).cloned()),
            MapKind::Array { entries } => {
                let idx = key_as_index(key)?;
                Ok(entries.get(idx).cloned())
            }
            MapKind::Lpm { by_len } => {
                if key.len() != 4 {
                    return Err(MapError::BadKey);
                }
                let addr = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
                for (len, table) in by_len.iter().rev() {
                    let masked = if *len == 0 {
                        0
                    } else {
                        addr & (!0u32 << (32 - len))
                    };
                    if let Some(v) = table.get(&masked) {
                        return Ok(Some(v.clone()));
                    }
                }
                Ok(None)
            }
            MapKind::ProgArray { .. } | MapKind::Xsk { .. } => Err(MapError::WrongType("lookup")),
        })
    }

    /// Inserts or updates `key -> value`.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, full hash maps, bad array indices, or
    /// program arrays.
    pub fn update(&self, id: MapId, key: &[u8], value: &[u8]) -> Result<(), MapError> {
        self.with(id, |kind| match kind {
            MapKind::Hash {
                entries,
                max_entries,
            } => {
                if !entries.contains_key(key) && entries.len() >= *max_entries {
                    return Err(MapError::Full);
                }
                entries.insert(key.to_vec(), value.to_vec());
                Ok(())
            }
            MapKind::Array { entries } => {
                let idx = key_as_index(key)?;
                let slot = entries.get_mut(idx).ok_or(MapError::BadKey)?;
                *slot = value.to_vec();
                Ok(())
            }
            MapKind::Lpm { by_len } => {
                // Key: 1 byte prefix length + 4 bytes big-endian address.
                if key.len() != 5 || key[0] > 32 {
                    return Err(MapError::BadKey);
                }
                let len = key[0];
                let addr = u32::from_be_bytes([key[1], key[2], key[3], key[4]]);
                let masked = if len == 0 {
                    0
                } else {
                    addr & (!0u32 << (32 - len))
                };
                by_len
                    .entry(len)
                    .or_default()
                    .insert(masked, value.to_vec());
                Ok(())
            }
            MapKind::ProgArray { .. } | MapKind::Xsk { .. } => Err(MapError::WrongType("update")),
        })
    }

    /// Deletes `key`; returns whether it existed.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids and unsupported kinds.
    pub fn delete(&self, id: MapId, key: &[u8]) -> Result<bool, MapError> {
        self.with(id, |kind| match kind {
            MapKind::Hash { entries, .. } => Ok(entries.remove(key).is_some()),
            MapKind::Lpm { by_len } => {
                if key.len() != 5 || key[0] > 32 {
                    return Err(MapError::BadKey);
                }
                let len = key[0];
                let addr = u32::from_be_bytes([key[1], key[2], key[3], key[4]]);
                let masked = if len == 0 {
                    0
                } else {
                    addr & (!0u32 << (32 - len))
                };
                Ok(by_len
                    .get_mut(&len)
                    .is_some_and(|t| t.remove(&masked).is_some()))
            }
            _ => Err(MapError::WrongType("delete")),
        })
    }

    /// Installs a program into a program-array slot. This is the **atomic
    /// data-path swap** primitive: readers either see the old program or
    /// the new one, never a mix.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, non-program-array maps, or out-of-range
    /// slots.
    pub fn prog_array_set(
        &self,
        id: MapId,
        slot: usize,
        prog: Option<LoadedProgram>,
    ) -> Result<(), MapError> {
        self.with(id, |kind| match kind {
            MapKind::ProgArray { slots } => {
                let s = slots.get_mut(slot).ok_or(MapError::BadKey)?;
                *s = prog;
                self.prog_generation.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            _ => Err(MapError::WrongType("prog_array_set")),
        })
    }

    /// Monotonic count of program-array slot writes (see the field docs).
    pub fn prog_generation(&self) -> u64 {
        self.prog_generation.load(Ordering::Relaxed)
    }

    /// Reads a program-array slot (what a tail call does).
    pub fn prog_array_get(&self, id: MapId, slot: usize) -> Option<LoadedProgram> {
        let maps = self.maps.read().expect("map lock");
        match maps.get(id.0 as usize)? {
            MapKind::ProgArray { slots } => slots.get(slot)?.clone(),
            _ => None,
        }
    }

    /// Number of maps in the store.
    pub fn len(&self) -> usize {
        self.maps.read().expect("map lock").len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.maps.read().expect("map lock").is_empty()
    }
}

fn key_as_index(key: &[u8]) -> Result<usize, MapError> {
    if key.len() != 4 {
        return Err(MapError::BadKey);
    }
    Ok(u32::from_le_bytes([key[0], key[1], key[2], key[3]]) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::program::Program;

    fn tiny_prog(name: &str) -> LoadedProgram {
        let mut a = Asm::new();
        a.mov_imm(0, 2);
        a.exit();
        LoadedProgram::load(Program::new(name, a.finish().unwrap())).unwrap()
    }

    #[test]
    fn hash_map_crud() {
        let store = MapStore::new();
        let m = store.create_hash(2);
        assert_eq!(store.lookup(m, b"k1").unwrap(), None);
        store.update(m, b"k1", b"v1").unwrap();
        store.update(m, b"k2", b"v2").unwrap();
        assert_eq!(store.lookup(m, b"k1").unwrap(), Some(b"v1".to_vec()));
        // Capacity enforced for new keys, updates still fine.
        assert_eq!(store.update(m, b"k3", b"v3").unwrap_err(), MapError::Full);
        store.update(m, b"k1", b"v1b").unwrap();
        assert!(store.delete(m, b"k1").unwrap());
        assert!(!store.delete(m, b"k1").unwrap());
    }

    #[test]
    fn array_map_indexing() {
        let store = MapStore::new();
        let m = store.create_array(4, 8);
        assert_eq!(
            store.lookup(m, &2u32.to_le_bytes()).unwrap().unwrap().len(),
            8
        );
        store.update(m, &2u32.to_le_bytes(), &[9; 8]).unwrap();
        assert_eq!(
            store.lookup(m, &2u32.to_le_bytes()).unwrap(),
            Some(vec![9; 8])
        );
        assert_eq!(store.lookup(m, &9u32.to_le_bytes()).unwrap(), None);
        assert!(store.update(m, &9u32.to_le_bytes(), &[0; 8]).is_err());
        assert!(store.lookup(m, b"xx").is_err());
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let store = MapStore::new();
        let m = store.create_lpm();
        let key = |len: u8, addr: [u8; 4]| {
            let mut k = vec![len];
            k.extend_from_slice(&addr);
            k
        };
        store.update(m, &key(8, [10, 0, 0, 0]), b"coarse").unwrap();
        store.update(m, &key(24, [10, 1, 2, 0]), b"fine").unwrap();
        store.update(m, &key(0, [0, 0, 0, 0]), b"default").unwrap();
        assert_eq!(
            store.lookup(m, &[10, 1, 2, 3]).unwrap(),
            Some(b"fine".to_vec())
        );
        assert_eq!(
            store.lookup(m, &[10, 9, 9, 9]).unwrap(),
            Some(b"coarse".to_vec())
        );
        assert_eq!(
            store.lookup(m, &[8, 8, 8, 8]).unwrap(),
            Some(b"default".to_vec())
        );
        assert!(store.delete(m, &key(24, [10, 1, 2, 0])).unwrap());
        assert_eq!(
            store.lookup(m, &[10, 1, 2, 3]).unwrap(),
            Some(b"coarse".to_vec())
        );
        assert!(store.update(m, &key(33, [0; 4]), b"bad").is_err());
        assert!(store.lookup(m, b"xyz").is_err());
    }

    #[test]
    fn prog_array_swap_semantics() {
        let store = MapStore::new();
        let pa = store.create_prog_array(2);
        assert!(store.prog_array_get(pa, 0).is_none());
        let v1 = tiny_prog("v1");
        store.prog_array_set(pa, 0, Some(v1)).unwrap();
        assert_eq!(store.prog_array_get(pa, 0).unwrap().name(), "v1");
        // Atomic replace: subsequent reads see v2.
        let v2 = tiny_prog("v2");
        store.prog_array_set(pa, 0, Some(v2)).unwrap();
        assert_eq!(store.prog_array_get(pa, 0).unwrap().name(), "v2");
        store.prog_array_set(pa, 0, None).unwrap();
        assert!(store.prog_array_get(pa, 0).is_none());
        assert!(store.prog_array_set(pa, 7, None).is_err());
    }

    #[test]
    fn type_confusion_rejected() {
        let store = MapStore::new();
        let h = store.create_hash(4);
        let pa = store.create_prog_array(1);
        assert!(store.prog_array_set(h, 0, None).is_err());
        assert!(store.lookup(pa, b"k").is_err());
        assert!(store.update(pa, b"k", b"v").is_err());
        assert!(store.delete(pa, b"k").is_err());
        assert_eq!(
            store.lookup(MapId(99), b"k").unwrap_err(),
            MapError::NoSuchMap(99)
        );
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
    }

    #[test]
    fn map_error_display() {
        assert!(MapError::NoSuchMap(3).to_string().contains("3"));
        assert!(MapError::WrongType("x").to_string().contains("x"));
        assert!(MapError::Full.to_string().contains("full"));
        assert!(MapError::BadKey.to_string().contains("key"));
    }

    #[test]
    fn xsk_socket_ring_semantics() {
        let store = MapStore::new();
        let (id, socket) = store.create_xsk(2);
        assert_eq!(socket.pending(), 0);
        assert!(store.xsk_push(id, vec![1]));
        assert!(store.xsk_push(id, vec![2]));
        assert!(!store.xsk_push(id, vec![3]), "full ring drops");
        assert_eq!(socket.pending(), 2);
        assert_eq!(socket.recv(), Some(vec![1]));
        assert_eq!(socket.recv(), Some(vec![2]));
        assert_eq!(socket.recv(), None);
        // Data-plane ops are rejected on XSK maps.
        assert!(store.lookup(id, b"k").is_err());
        assert!(store.update(id, b"k", b"v").is_err());
        // And xsk_push on non-XSK maps is refused.
        let h = store.create_hash(1);
        assert!(!store.xsk_push(h, vec![9]));
        assert!(format!("{socket:?}").contains("XskSocket"));
    }

    #[test]
    fn store_is_shared_by_clone() {
        let store = MapStore::new();
        let m = store.create_hash(4);
        let store2 = store.clone();
        store2.update(m, b"k", b"v").unwrap();
        assert_eq!(store.lookup(m, b"k").unwrap(), Some(b"v".to_vec()));
    }
}
