//! Shared, sliceable column storage: the zero-copy memory model.
//!
//! A [`Buffer<T>`] is an `Arc`-backed allocation plus an
//! `(offset, len)` view into it. Cloning a buffer or taking a
//! [`Buffer::slice`] is a refcount bump — no element is touched — so
//! frame operations like `select`, windowed slicing, and all-true
//! filters share one allocation across arbitrarily many frames.
//! Reads go through `Deref<Target = [T]>`, which means every consumer
//! that used to hold a `&Vec<T>` keeps compiling against `&Buffer<T>`
//! unchanged.
//!
//! Ownership rules (DESIGN.md §13):
//! * **Buffers never mutate.** A buffer is immutable once built; new
//!   contents mean a new buffer. The way back to an owned vector is
//!   [`Buffer::into_vec`], which moves the allocation out of a unique
//!   full-range owner and copies the viewed slice otherwise.
//! * **Copies are counted.** Every byte `into_vec` copies and every
//!   share bumps a process-wide counter (read both via
//!   [`buffer_stats`]), so copy-avoidance is observable as the
//!   `frame_bytes_copied_total` / `frame_buffers_shared_total`
//!   counters instead of a matter of faith.
//!
//! The counters are process-global relaxed atomics: cheap enough to
//! leave on unconditionally, and aggregated rather than exact per-op
//! (parallel stages interleave freely).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Total bytes copied out of shared or windowed buffers by `into_vec`.
static BYTES_COPIED: AtomicU64 = AtomicU64::new(0);
/// Total buffer shares (clones and slices) that avoided a copy.
static BUFFERS_SHARED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide buffer counters:
/// `(bytes_copied, buffers_shared)`.
pub fn buffer_stats() -> (u64, u64) {
    (
        BYTES_COPIED.load(Ordering::Relaxed),
        BUFFERS_SHARED.load(Ordering::Relaxed),
    )
}

/// A shared allocation with an `(offset, len)` window onto it.
///
/// `Buffer<T>` derefs to `[T]`, compares by element (including against
/// `Vec<T>` and `[T]`), and converts from `Vec<T>` without copying.
#[derive(Debug)]
pub struct Buffer<T> {
    data: Arc<Vec<T>>,
    offset: usize,
    len: usize,
}

impl<T> Buffer<T> {
    /// Wrap an owned vector; the buffer views the whole allocation.
    pub fn new(data: Vec<T>) -> Self {
        let len = data.len();
        Buffer {
            data: Arc::new(data),
            offset: 0,
            len,
        }
    }

    /// The viewed elements.
    pub fn as_slice(&self) -> &[T] {
        &self.data[self.offset..self.offset + self.len]
    }

    /// Number of viewed elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view covers no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view of `len` elements starting at `offset` (relative to
    /// this view). Shares the allocation — no copy.
    ///
    /// # Panics
    /// If `offset + len` exceeds this view's length.
    pub fn slice(&self, offset: usize, len: usize) -> Buffer<T> {
        assert!(
            offset + len <= self.len,
            "slice {offset}+{len} out of bounds for buffer of {}",
            self.len
        );
        BUFFERS_SHARED.fetch_add(1, Ordering::Relaxed);
        Buffer {
            data: Arc::clone(&self.data),
            offset: self.offset + offset,
            len,
        }
    }

    /// True when both views share one allocation (regardless of
    /// window). The zero-copy regression tests assert on this.
    pub fn ptr_eq(&self, other: &Buffer<T>) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }
}

impl<T: Clone> Buffer<T> {
    /// The viewed elements as an owned vector (moves the allocation
    /// out when this is a unique full-range owner, copies otherwise).
    pub fn into_vec(mut self) -> Vec<T> {
        if self.offset == 0 && self.len == self.data.len() {
            match Arc::try_unwrap(self.data) {
                Ok(v) => return v,
                Err(shared) => self.data = shared,
            }
        }
        let copied = self.as_slice().to_vec();
        BYTES_COPIED.fetch_add((copied.len() * size_of::<T>()) as u64, Ordering::Relaxed);
        copied
    }
}

impl<T> std::ops::Deref for Buffer<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> AsRef<[T]> for Buffer<T> {
    fn as_ref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> Clone for Buffer<T> {
    fn clone(&self) -> Self {
        BUFFERS_SHARED.fetch_add(1, Ordering::Relaxed);
        Buffer {
            data: Arc::clone(&self.data),
            offset: self.offset,
            len: self.len,
        }
    }
}

impl<T> From<Vec<T>> for Buffer<T> {
    fn from(data: Vec<T>) -> Self {
        Buffer::new(data)
    }
}

impl<T: Clone> From<&[T]> for Buffer<T> {
    fn from(data: &[T]) -> Self {
        Buffer::new(data.to_vec())
    }
}

impl<T> Default for Buffer<T> {
    fn default() -> Self {
        Buffer::new(Vec::new())
    }
}

impl<T> FromIterator<T> for Buffer<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Buffer::new(iter.into_iter().collect())
    }
}

impl<'a, T> IntoIterator for &'a Buffer<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: PartialEq> PartialEq for Buffer<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for Buffer<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq> PartialEq<Buffer<T>> for Vec<T> {
    fn eq(&self, other: &Buffer<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq> PartialEq<[T]> for Buffer<T> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<T: PartialEq, const N: usize> PartialEq<[T; N]> for Buffer<T> {
    fn eq(&self, other: &[T; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_from_vec_views_all_elements() {
        let b: Buffer<i64> = vec![1, 2, 3].into();
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b, vec![1, 2, 3]);
    }

    #[test]
    fn buffer_clone_shares_allocation() {
        let a: Buffer<i64> = vec![1, 2, 3].into();
        let (_, shared0) = buffer_stats();
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        let (_, shared1) = buffer_stats();
        assert!(shared1 > shared0, "clone must count as a share");
    }

    #[test]
    fn buffer_slice_is_a_window_not_a_copy() {
        let a: Buffer<i64> = vec![10, 20, 30, 40, 50].into();
        let s = a.slice(1, 3);
        assert_eq!(&s[..], &[20, 30, 40]);
        assert!(a.ptr_eq(&s));
        let ss = s.slice(1, 1);
        assert_eq!(&ss[..], &[30]);
        assert!(a.ptr_eq(&ss));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn buffer_slice_bounds_checked() {
        let a: Buffer<i64> = vec![1, 2].into();
        let _ = a.slice(1, 2);
    }

    #[test]
    fn into_vec_moves_out_unique_and_copies_shared() {
        let a: Buffer<i64> = vec![1, 2, 3].into();
        let ptr = a.as_ptr();
        let moved = a.into_vec();
        assert_eq!(moved, vec![1, 2, 3]);
        assert_eq!(moved.as_ptr(), ptr, "a unique full-range owner moves out");
        let b: Buffer<i64> = vec![4, 5, 6].into();
        let keep = b.clone();
        let (copied0, _) = buffer_stats();
        assert_eq!(b.into_vec(), vec![4, 5, 6]);
        assert_eq!(keep.slice(1, 2).into_vec(), vec![5, 6]);
        let (copied1, _) = buffer_stats();
        // Other tests share the process global: assert a floor only.
        assert!(
            copied1 >= copied0 + 5 * size_of::<i64>() as u64,
            "shared and windowed into_vec count 3 + 2 copied i64s"
        );
        assert_eq!(&keep[..], &[4, 5, 6]);
    }

    #[test]
    fn cross_type_equality_matches_elements() {
        let a: Buffer<String> = vec!["x".to_string(), "y".to_string()].into();
        assert_eq!(a, vec!["x".to_string(), "y".to_string()]);
        assert_eq!(vec!["x".to_string(), "y".to_string()], a);
        let w = a.slice(1, 1);
        assert_eq!(w, vec!["y".to_string()]);
    }
}
