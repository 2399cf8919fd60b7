//! A segmented arena vector: fixed-capacity segments, no reallocation.
//!
//! [`ChunkedVec`] is the storage primitive behind the columnar job
//! store: every segment is allocated once at a fixed capacity and
//! never moves, so
//!
//! - `push` performs **no per-item heap allocation** (one allocation
//!   per `seg_cap` items, amortized O(1/seg_cap) allocations/item);
//! - growth never copies existing elements (unlike `Vec`'s doubling),
//!   so peak memory stays within one segment of the live data;
//! - with `seg_cap` equal to the pai-par chunk size, segment
//!   boundaries coincide with scatter/gather chunk boundaries and the
//!   layout is a pure function of the element count.

/// A grow-only vector of `Copy` elements stored in fixed-capacity
/// segments.
#[derive(Debug, Clone)]
pub struct ChunkedVec<T> {
    segs: Vec<Vec<T>>,
    seg_cap: usize,
    len: usize,
}

impl<T: Copy> ChunkedVec<T> {
    /// An empty arena with [`crate::DEFAULT_CHUNK_SIZE`] segment
    /// capacity.
    pub fn new() -> ChunkedVec<T> {
        ChunkedVec::with_seg_cap(crate::DEFAULT_CHUNK_SIZE)
    }

    /// An empty arena whose segments hold `seg_cap` elements each.
    ///
    /// # Panics
    ///
    /// Panics if `seg_cap` is zero — a zero segment capacity is a
    /// programmer error, not a runtime condition.
    pub fn with_seg_cap(seg_cap: usize) -> ChunkedVec<T> {
        assert!(seg_cap > 0, "segment capacity must be positive");
        ChunkedVec {
            segs: Vec::new(),
            seg_cap,
            len: 0,
        }
    }

    /// The number of elements stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fixed per-segment capacity.
    pub fn seg_cap(&self) -> usize {
        self.seg_cap
    }

    /// Appends one element. Allocates only when a fresh segment is
    /// needed (every `seg_cap` pushes); never moves existing elements.
    pub fn push(&mut self, value: T) {
        if self.len == self.segs.len() * self.seg_cap {
            self.segs.push(Vec::with_capacity(self.seg_cap));
        }
        // The last segment exists and has spare capacity by the check
        // above, so this push cannot reallocate it.
        let seg = self.segs.len() - 1;
        self.segs[seg].push(value);
        self.len += 1;
    }

    /// The element at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn get(&self, index: usize) -> T {
        assert!(
            index < self.len,
            "index {index} out of bounds ({})",
            self.len
        );
        self.get_at(index / self.seg_cap, index % self.seg_cap)
    }

    /// The element at `offset` within segment `seg`, i.e. at index
    /// `seg * seg_cap() + offset` — for a caller reading several arenas
    /// of one segment capacity at the same index, which can split the
    /// index once instead of once per arena.
    ///
    /// # Panics
    ///
    /// Panics if no element is stored at that position.
    #[inline]
    pub fn get_at(&self, seg: usize, offset: usize) -> T {
        self.segs[seg][offset]
    }

    /// Segment `seg` as a slice: the elements at indices from
    /// `seg * seg_cap()` up to the next segment boundary or `len()`.
    ///
    /// # Panics
    ///
    /// Panics if no element is stored in segment `seg`.
    #[inline]
    pub fn segment(&self, seg: usize) -> &[T] {
        &self.segs[seg]
    }

    /// Iterates the elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.segs.iter().flat_map(|s| s.iter().copied())
    }

    /// Appends every element of `other` in order (elementwise copy, so
    /// the two arenas' segment boundaries need not line up).
    pub fn append(&mut self, other: &ChunkedVec<T>) {
        for seg in &other.segs {
            for &v in seg {
                self.push(v);
            }
        }
    }

    /// Appends every element of `slice` in order.
    pub fn extend_from_slice(&mut self, slice: &[T]) {
        for &v in slice {
            self.push(v);
        }
    }
}

impl<T: Copy> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec::new()
    }
}

impl<T: Copy + PartialEq> PartialEq for ChunkedVec<T> {
    /// Logical equality: same elements in the same order, regardless
    /// of segment capacity.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Copy> FromIterator<T> for ChunkedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = ChunkedVec::new();
        for v in iter {
            out.push(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_iter_roundtrip() {
        let mut v = ChunkedVec::with_seg_cap(4);
        for i in 0..11u32 {
            v.push(i * 7);
        }
        assert_eq!(v.len(), 11);
        assert!(!v.is_empty());
        for i in 0..11u32 {
            assert_eq!(v.get(i as usize), i * 7);
            assert_eq!(v.get_at(i as usize / 4, i as usize % 4), i * 7);
        }
        let collected: Vec<u32> = v.iter().collect();
        assert_eq!(collected, (0..11).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    fn segments_fill_to_exactly_seg_cap() {
        let mut v = ChunkedVec::with_seg_cap(8);
        for i in 0..25usize {
            v.push(i);
        }
        assert_eq!(v.segs.len(), 4);
        assert!(v.segs[..3].iter().all(|s| s.len() == 8));
        assert_eq!(v.segs[3].len(), 1);
        // Segments are allocated at full capacity up front.
        assert!(v.segs.iter().all(|s| s.capacity() == 8));
        assert_eq!(v.segment(1), &[8, 9, 10, 11, 12, 13, 14, 15]);
        assert_eq!(v.segment(3), &[24]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn segment_past_the_last_panics() {
        let v: ChunkedVec<u8> = [1, 2, 3].into_iter().collect();
        let _ = v.segment(1);
    }

    #[test]
    fn append_handles_unaligned_boundaries() {
        let mut a = ChunkedVec::with_seg_cap(4);
        a.extend_from_slice(&[1, 2, 3]);
        let mut b = ChunkedVec::with_seg_cap(5);
        b.extend_from_slice(&[4, 5, 6, 7, 8, 9]);
        a.append(&b);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9]
        );
    }

    #[test]
    fn equality_is_logical_not_structural() {
        let a: ChunkedVec<u8> = [1, 2, 3].into_iter().collect();
        let mut b = ChunkedVec::with_seg_cap(2);
        b.extend_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        b.push(4);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let v: ChunkedVec<u8> = ChunkedVec::new();
        let _ = v.get(0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_at_past_the_last_element_panics() {
        let v: ChunkedVec<u8> = [1, 2, 3].into_iter().collect();
        let _ = v.get_at(0, 3);
    }

    #[test]
    #[should_panic(expected = "segment capacity must be positive")]
    fn zero_seg_cap_panics() {
        let _: ChunkedVec<u8> = ChunkedVec::with_seg_cap(0);
    }
}
