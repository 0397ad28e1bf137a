//! Fixed-capacity ring buffer.
//!
//! Windowed operators (moving averages, correlators, delay lines) all need
//! the same primitive: push a sample, evict the oldest once full, iterate in
//! age order. `VecDeque` would work but exposes growth; a fixed ring keeps
//! the capacity invariant in the type's hands and makes the delay-line use
//! case (`push_evict`) a single call.

/// A fixed-capacity FIFO ring buffer over `T`.
///
/// Once `len() == capacity()`, each push evicts the oldest element.
#[derive(Debug)]
pub struct RingBuf<T> {
    buf: Vec<T>,
    head: usize, // index of the oldest element when full / wrapped start
    len: usize,
    cap: usize,
}

impl<T: Clone> Clone for RingBuf<T> {
    fn clone(&self) -> Self {
        RingBuf {
            buf: self.buf.clone(),
            head: self.head,
            len: self.len,
            cap: self.cap,
        }
    }

    /// Capacity-retaining copy: when `source` fits in the existing backing
    /// storage this performs no heap allocation, which is what lets hot
    /// paths snapshot windowed state (e.g. a smoother) every frame for free.
    fn clone_from(&mut self, source: &Self) {
        self.buf.clone_from(&source.buf);
        self.head = source.head;
        self.len = source.len;
        self.cap = source.cap;
    }
}

impl<T: Copy + Default> RingBuf<T> {
    /// Creates an empty ring with the given capacity.
    ///
    /// A zero capacity is clamped to 1 so that `push_evict` always has a
    /// well-defined meaning.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        RingBuf {
            buf: vec![T::default(); cap],
            head: 0,
            len: 0,
            cap,
        }
    }

    /// Maximum number of elements held.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current number of elements held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no elements are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` once the ring has reached capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.cap
    }

    /// Physical index of logical position `i`, assuming `i < len`. The
    /// wrap is a compare-and-subtract, not `%`: the capacities used here
    /// (template lengths, smoothing windows) are rarely powers of two, so
    /// a modulo would be an integer division on every hot-path access.
    #[inline]
    fn wrap(&self, i: usize) -> usize {
        let idx = self.head + i;
        if idx >= self.cap {
            idx - self.cap
        } else {
            idx
        }
    }

    /// Pushes a new element. When full, the oldest element is evicted and
    /// returned; otherwise `None`.
    pub fn push_evict(&mut self, value: T) -> Option<T> {
        if self.len < self.cap {
            let idx = self.wrap(self.len);
            self.buf[idx] = value;
            self.len += 1;
            None
        } else {
            let evicted = self.buf[self.head];
            self.buf[self.head] = value;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            Some(evicted)
        }
    }

    /// Pushes every element of `xs` in order, evicting as
    /// [`push_evict`](RingBuf::push_evict) would, in at most two slice
    /// copies. Equivalent to calling `push_evict` on each element.
    pub fn extend_evict(&mut self, xs: &[T]) {
        if xs.len() >= self.cap {
            self.buf.copy_from_slice(&xs[xs.len() - self.cap..]);
            self.head = 0;
            self.len = self.cap;
            return;
        }
        // `wrap(len)` is the slot of the next push, full or not.
        let start = self.wrap(self.len);
        let first = (self.cap - start).min(xs.len());
        self.buf[start..start + first].copy_from_slice(&xs[..first]);
        self.buf[..xs.len() - first].copy_from_slice(&xs[first..]);
        let overflow = (self.len + xs.len()).saturating_sub(self.cap);
        self.head = self.wrap(overflow);
        self.len = (self.len + xs.len()).min(self.cap);
    }

    /// Element at logical index `i` (0 = oldest). `None` when out of range.
    pub fn get(&self, i: usize) -> Option<T> {
        if i < self.len {
            Some(self.buf[self.wrap(i)])
        } else {
            None
        }
    }

    /// The most recently pushed element.
    pub fn newest(&self) -> Option<T> {
        if self.len == 0 {
            None
        } else {
            self.get(self.len - 1)
        }
    }

    /// The element that would be evicted next.
    pub fn oldest(&self) -> Option<T> {
        self.get(0)
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        let (a, b) = self.as_slices();
        a.iter().chain(b.iter()).copied()
    }

    /// The contents as two contiguous slices in age order: chaining
    /// `first` then `second` yields exactly the elements of [`iter`]
    /// (oldest → newest). `second` is empty while the contents have not
    /// wrapped around the end of the backing storage. This is the
    /// per-element-modulo-free access path for windowed kernels.
    ///
    /// [`iter`]: RingBuf::iter
    pub fn as_slices(&self) -> (&[T], &[T]) {
        let end = self.head + self.len;
        if end <= self.cap {
            (&self.buf[self.head..end], &[])
        } else {
            (&self.buf[self.head..self.cap], &self.buf[..end - self.cap])
        }
    }

    /// Clears the ring without touching capacity.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Fills the ring to capacity with `value` (resets any prior content).
    ///
    /// Useful to pre-charge delay lines so output is defined from sample 0.
    pub fn fill(&mut self, value: T) {
        for slot in self.buf.iter_mut() {
            *slot = value;
        }
        self.head = 0;
        self.len = self.cap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_evicts_fifo() {
        let mut r: RingBuf<u32> = RingBuf::new(3);
        assert!(r.is_empty());
        assert_eq!(r.push_evict(1), None);
        assert_eq!(r.push_evict(2), None);
        assert_eq!(r.push_evict(3), None);
        assert!(r.is_full());
        assert_eq!(r.push_evict(4), Some(1));
        assert_eq!(r.push_evict(5), Some(2));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(r.oldest(), Some(3));
        assert_eq!(r.newest(), Some(5));
    }

    #[test]
    fn get_respects_age_order_across_wrap() {
        let mut r: RingBuf<i64> = RingBuf::new(4);
        for v in 0..10 {
            r.push_evict(v);
        }
        // holds 6,7,8,9
        assert_eq!(r.get(0), Some(6));
        assert_eq!(r.get(3), Some(9));
        assert_eq!(r.get(4), None);
    }

    #[test]
    fn zero_capacity_clamped() {
        let mut r: RingBuf<u8> = RingBuf::new(0);
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.push_evict(7), None);
        assert_eq!(r.push_evict(8), Some(7));
    }

    #[test]
    fn fill_precharges() {
        let mut r: RingBuf<f64> = RingBuf::new(5);
        r.fill(1.5);
        assert!(r.is_full());
        assert!(r.iter().all(|x| x == 1.5));
        assert_eq!(r.push_evict(2.0), Some(1.5));
    }

    #[test]
    fn as_slices_matches_iter_in_every_fill_state() {
        // Sweep capacities and push counts so every head/len combination —
        // empty, partial, full-unwrapped and full-wrapped — is exercised.
        for cap in 1..=8usize {
            let mut r: RingBuf<i64> = RingBuf::new(cap);
            for pushes in 0..3 * cap {
                let (a, b) = r.as_slices();
                let glued: Vec<i64> = a.iter().chain(b.iter()).copied().collect();
                assert_eq!(glued, r.iter().collect::<Vec<_>>(), "cap {cap} pushes {pushes}");
                assert_eq!(a.len() + b.len(), r.len());
                r.push_evict(pushes as i64);
            }
        }
    }

    #[test]
    fn extend_evict_matches_push_evict_in_every_state() {
        // Every capacity × prior push count × batch length, including
        // batches longer than the ring.
        for cap in 1..=7usize {
            for pushes in 0..3 * cap {
                for batch in 0..=2 * cap + 1 {
                    let mut want: RingBuf<i64> = RingBuf::new(cap);
                    for v in 0..pushes as i64 {
                        want.push_evict(v);
                    }
                    let mut got = want.clone();
                    let xs: Vec<i64> = (100..100 + batch as i64).collect();
                    for &x in &xs {
                        want.push_evict(x);
                    }
                    got.extend_evict(&xs);
                    let ctx = format!("cap {cap} pushes {pushes} batch {batch}");
                    assert_eq!(got.len(), want.len(), "{ctx}");
                    let contents = |r: &RingBuf<i64>| r.iter().collect::<Vec<_>>();
                    assert_eq!(contents(&got), contents(&want), "{ctx}");
                    // The next push lands and evicts alike.
                    assert_eq!(got.push_evict(-1), want.push_evict(-1), "{ctx}");
                    assert_eq!(contents(&got), contents(&want), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn as_slices_splits_exactly_at_wrap() {
        let mut r: RingBuf<u32> = RingBuf::new(4);
        for v in 0..6 {
            r.push_evict(v);
        }
        // Holds 2,3,4,5 with head at physical index 2.
        let (a, b) = r.as_slices();
        assert_eq!(a, &[2, 3]);
        assert_eq!(b, &[4, 5]);
    }

    #[test]
    fn clear_resets_len_only() {
        let mut r: RingBuf<u16> = RingBuf::new(2);
        r.push_evict(1);
        r.push_evict(2);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 2);
        assert_eq!(r.push_evict(9), None);
        assert_eq!(r.newest(), Some(9));
    }
}
