//! A burst of frames processed as one unit — the vector the batched
//! datapath passes from the traffic generator through hooks and the
//! stack, mirroring a NAPI poll budget or a VPP vector.

use crate::pool::PacketBuf;

/// An ordered burst of packet buffers.
///
/// Order is significant: batched processing must observe frames in the
/// same sequence as one-at-a-time injection (stateful stages — NAT
/// binding allocation, conntrack, FDB learning — depend on it).
#[derive(Debug, Default)]
pub struct Batch {
    bufs: Vec<PacketBuf>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Batch::default()
    }

    /// An empty batch with room for `n` frames.
    pub fn with_capacity(n: usize) -> Self {
        Batch {
            bufs: Vec::with_capacity(n),
        }
    }

    /// Appends a frame to the burst.
    pub fn push(&mut self, buf: impl Into<PacketBuf>) {
        self.bufs.push(buf.into());
    }

    /// Number of frames in the burst.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// Whether the burst is empty.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Immutable view of the frames.
    pub fn iter(&self) -> std::slice::Iter<'_, PacketBuf> {
        self.bufs.iter()
    }

    /// Mutable view of the frames.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, PacketBuf> {
        self.bufs.iter_mut()
    }

    /// Removes and returns all frames in order, leaving the batch empty
    /// (capacity retained, so a batch can be refilled without realloc).
    pub fn drain(&mut self) -> std::vec::Drain<'_, PacketBuf> {
        self.bufs.drain(..)
    }
}

impl From<Vec<PacketBuf>> for Batch {
    fn from(bufs: Vec<PacketBuf>) -> Self {
        Batch { bufs }
    }
}

impl From<Vec<Vec<u8>>> for Batch {
    fn from(frames: Vec<Vec<u8>>) -> Self {
        Batch {
            bufs: frames.into_iter().map(PacketBuf::from).collect(),
        }
    }
}

impl IntoIterator for Batch {
    type Item = PacketBuf;
    type IntoIter = std::vec::IntoIter<PacketBuf>;
    fn into_iter(self) -> Self::IntoIter {
        self.bufs.into_iter()
    }
}

impl<'a> IntoIterator for &'a mut Batch {
    type Item = &'a mut PacketBuf;
    type IntoIter = std::slice::IterMut<'a, PacketBuf>;
    fn into_iter(self) -> Self::IntoIter {
        self.bufs.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BufferPool;

    #[test]
    fn batch_preserves_order_and_capacity() {
        let pool = BufferPool::new();
        let mut batch = Batch::with_capacity(4);
        for i in 0..4u8 {
            batch.push(pool.acquire_from(&[i]));
        }
        assert_eq!(batch.len(), 4);
        let seen: Vec<u8> = batch.drain().map(|b| b[0]).collect();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert!(batch.is_empty());
        // Drained pooled buffers were dropped back to the free list.
        assert_eq!(pool.stats().free, 4);
    }

    #[test]
    fn batch_from_plain_vecs() {
        let batch = Batch::from(vec![vec![1u8], vec![2u8, 2]]);
        assert_eq!(batch.len(), 2);
        let lens: Vec<usize> = batch.iter().map(|b| b.len()).collect();
        assert_eq!(lens, vec![1, 2]);
    }
}
