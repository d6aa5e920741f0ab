//! Cheaply-clonable byte buffers for wire images.
//!
//! A packet's bytes are built exactly once (at encode time) and then
//! travel the simulated network: across links, through switch fan-out,
//! into capture snapshots. None of those hops mutates the bytes, so they
//! all share one reference-counted allocation. Only the fault injector
//! writes into a frame in flight, and it pays for a private copy at that
//! moment — classic copy-on-write.
//!
//! [`SharedBytes::copy_count`] exposes a process-wide counter of how many
//! copy-on-write materialisations have happened, so tests can assert that
//! an uncorrupted pass-through run copies zero payload bytes.

// netfi-lint: deny(hot-path-alloc)
//
// Every frame in flight flows through this module; allocations here are
// either construction-time (building the one wire image) or the sanctioned
// copy-on-write, and each is individually allowlisted below.

use std::fmt;
use std::ops::{Deref, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of copy-on-write materialisations (test hook).
static COW_COPIES: AtomicU64 = AtomicU64::new(0);

/// An immutable, cheaply-clonable view into a shared byte buffer.
///
/// Dereferences to `[u8]`, so all slice methods apply. [`Clone`] bumps a
/// reference count; [`SharedBytes::slice`] narrows the view without
/// copying; [`SharedBytes::make_mut`] gives mutable access, copying the
/// viewed bytes first only if the allocation is shared or windowed.
///
/// # Example
///
/// ```
/// use netfi_sim::bytes::SharedBytes;
/// let wire: SharedBytes = vec![0xCA, 0xFE, 0xBA, 0xBE].into();
/// let view = wire.slice(1..3);            // no copy
/// assert_eq!(&view[..], &[0xFE, 0xBA]);
/// let mut corrupted = wire.clone();       // no copy
/// corrupted.make_mut()[0] ^= 0xFF;        // copies here, once
/// assert_eq!(wire[0], 0xCA);
/// assert_eq!(corrupted[0], 0x35);
/// ```
#[derive(Clone)]
pub struct SharedBytes {
    // `Arc<Vec<u8>>` rather than `Arc<[u8]>`: wrapping an already-built
    // `Vec` is then a pointer move instead of a byte copy, and building
    // the wire image exactly once is the whole point of this type.
    data: Arc<Vec<u8>>,
    // u32 offsets keep the struct at 16 bytes, which shrinks every event
    // that carries a frame and with it the simulator's priority queue.
    // Wire images are packets: 4 GiB is unreachable by construction.
    start: u32,
    end: u32,
}

impl SharedBytes {
    /// An empty buffer (no allocation is shared, but none is needed).
    pub fn new() -> SharedBytes {
        // lint: allow(hot-path-alloc) Vec::new is capacity 0 and allocates nothing
        SharedBytes::from(Vec::new())
    }

    /// Narrows the view to `range` (relative to this view) without
    /// copying. Panics if the range is out of bounds, matching slice
    /// indexing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> SharedBytes {
        let len = (self.end - self.start) as usize;
        let lo = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => len,
        };
        assert!(
            lo <= hi && hi <= len,
            "slice {lo}..{hi} out of range for SharedBytes of length {len}"
        );
        SharedBytes {
            data: Arc::clone(&self.data),
            start: self.start + lo as u32,
            end: self.start + hi as u32,
        }
    }

    /// Mutable access to the bytes, copying them into a private
    /// allocation first if the current one is shared or windowed.
    ///
    /// Each materialising call bumps the process-wide
    /// [`copy_count`](SharedBytes::copy_count).
    pub fn make_mut(&mut self) -> &mut [u8] {
        let full = self.start == 0 && self.end as usize == self.data.len();
        let unique = Arc::get_mut(&mut self.data).is_some();
        if !(full && unique) {
            COW_COPIES.fetch_add(1, Ordering::AcqRel);
            // lint: allow(hot-path-alloc) this IS the sanctioned copy-on-write copy
            self.data = Arc::new(self.data[self.start as usize..self.end as usize].to_vec());
            self.start = 0;
            self.end = self.data.len() as u32;
        }
        // The branch above guarantees uniqueness, so this never clones.
        &mut Arc::make_mut(&mut self.data)[..]
    }

    /// How many copy-on-write materialisations have happened process-wide.
    ///
    /// Test hook: snapshot before a run, compare after, and an
    /// uncorrupted pass-through must show a delta of zero.
    pub fn copy_count() -> u64 {
        COW_COPIES.load(Ordering::Acquire)
    }
}

impl Deref for SharedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start as usize..self.end as usize]
    }
}

impl AsRef<[u8]> for SharedBytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Default for SharedBytes {
    fn default() -> SharedBytes {
        SharedBytes::new()
    }
}

impl From<Vec<u8>> for SharedBytes {
    #[expect(
        clippy::expect_used,
        reason = "packets are KiB-scale; a 4 GiB wire image is a caller bug"
    )]
    fn from(v: Vec<u8>) -> SharedBytes {
        let end = u32::try_from(v.len()).expect("wire image over 4 GiB");
        SharedBytes { data: Arc::new(v), start: 0, end }
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(s: &[u8]) -> SharedBytes {
        // lint: allow(hot-path-alloc) construction-time copy from a borrowed slice
        SharedBytes::from(s.to_vec())
    }
}

impl<const N: usize> From<[u8; N]> for SharedBytes {
    fn from(a: [u8; N]) -> SharedBytes {
        SharedBytes::from(&a[..])
    }
}

impl From<SharedBytes> for Vec<u8> {
    fn from(b: SharedBytes) -> Vec<u8> {
        // lint: allow(hot-path-alloc) explicit materialisation requested by the caller
        b.to_vec()
    }
}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &SharedBytes) -> bool {
        **self == **other
    }
}

impl Eq for SharedBytes {}

impl std::hash::Hash for SharedBytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl PartialEq<[u8]> for SharedBytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<&[u8]> for SharedBytes {
    fn eq(&self, other: &&[u8]) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<u8>> for SharedBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl PartialEq<SharedBytes> for Vec<u8> {
    fn eq(&self, other: &SharedBytes) -> bool {
        self[..] == **other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for SharedBytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        **self == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for SharedBytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        **self == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_slice_share_the_allocation() {
        let a: SharedBytes = vec![1, 2, 3, 4, 5].into();
        let b = a.clone();
        let c = a.slice(1..4);
        assert_eq!(b, a);
        assert_eq!(&c[..], &[2, 3, 4]);
        assert!(Arc::ptr_eq(&a.data, &b.data));
        assert!(Arc::ptr_eq(&a.data, &c.data));
    }

    #[test]
    fn make_mut_copies_only_when_shared_or_windowed() {
        let mut a: SharedBytes = vec![9, 9, 9].into();
        let before = SharedBytes::copy_count();
        a.make_mut()[0] = 1; // unique + full view: no copy
        assert_eq!(SharedBytes::copy_count(), before);

        let b = a.clone();
        a.make_mut()[1] = 2; // shared: copies
        assert_eq!(SharedBytes::copy_count(), before + 1);
        assert_eq!(b, vec![1, 9, 9]);
        assert_eq!(a, vec![1, 2, 9]);

        let mut w = b.slice(1..3);
        w.make_mut()[0] = 7; // windowed: copies
        assert_eq!(SharedBytes::copy_count(), before + 2);
        assert_eq!(b, vec![1, 9, 9]);
        assert_eq!(&w[..], &[7, 9]);
    }

    #[test]
    fn slice_of_slice_and_bounds() {
        let a: SharedBytes = vec![0, 1, 2, 3, 4, 5].into();
        let b = a.slice(2..);
        let c = b.slice(..=1);
        assert_eq!(&c[..], &[2, 3]);
        assert_eq!(a.slice(6..).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        let a: SharedBytes = vec![1, 2].into();
        let _ = a.slice(1..4);
    }

    #[test]
    fn equality_across_representations() {
        let a: SharedBytes = vec![1, 2, 3].into();
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(a, [1u8, 2, 3]);
        assert_eq!(a, &[1u8, 2, 3][..]);
        assert_eq!(a, SharedBytes::from(&[1u8, 2, 3][..]));
        assert_ne!(a, SharedBytes::new());
        assert_eq!(SharedBytes::default().len(), 0);
    }
}
