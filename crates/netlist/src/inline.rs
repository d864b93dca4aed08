//! Inline storage for the short names and pin lists of gates and nets.
//!
//! A mapped netlist has one name, one cell name and two pin lists per
//! gate, and one name and one sink list per net. Almost all of them
//! are short, so heap-allocating each one made building and freeing a
//! large netlist cost several allocations per gate. [`InlineStr`] and
//! [`InlineVec`] keep short contents in place and spill to the heap
//! only when they outgrow it. Both deref to the plain `str` / slice
//! they hold, and print exactly as a `String` / `Vec` would.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Longest string kept inline; the type is as large as a `String`.
const INLINE_STR: usize = 22;

/// An immutable string that stores up to 22 bytes in place and longer
/// ones on the heap. It compares, hashes and prints as its `str`.
#[derive(Clone)]
pub struct InlineStr(StrRepr);

#[derive(Clone)]
enum StrRepr {
    Inline { len: u8, buf: [u8; INLINE_STR] },
    Heap(Box<str>),
}

impl InlineStr {
    /// The string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // `buf[..len]` is a byte-for-byte copy of a whole `&str`
            // (see `From<&str>`), so the check always passes.
            StrRepr::Inline { len, buf } => {
                std::str::from_utf8(&buf[..*len as usize]).unwrap_or_default()
            }
            StrRepr::Heap(s) => s,
        }
    }
}

impl From<&str> for InlineStr {
    fn from(s: &str) -> Self {
        if s.len() <= INLINE_STR {
            let mut buf = [0u8; INLINE_STR];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            InlineStr(StrRepr::Inline {
                len: s.len() as u8,
                buf,
            })
        } else {
            InlineStr(StrRepr::Heap(s.into()))
        }
    }
}

impl From<String> for InlineStr {
    fn from(s: String) -> Self {
        if s.len() <= INLINE_STR {
            InlineStr::from(s.as_str())
        } else {
            InlineStr(StrRepr::Heap(s.into_boxed_str()))
        }
    }
}

impl From<&String> for InlineStr {
    fn from(s: &String) -> Self {
        InlineStr::from(s.as_str())
    }
}

impl Default for InlineStr {
    fn default() -> Self {
        InlineStr::from("")
    }
}

impl Deref for InlineStr {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for InlineStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for InlineStr {}

impl PartialEq<&str> for InlineStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for InlineStr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InlineStr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for InlineStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for InlineStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for InlineStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

/// A vector of `Copy` items that stores up to `N` in place and spills
/// to the heap beyond that. It derefs to a slice and compares and
/// prints as one.
#[derive(Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize>(VecRepr<T, N>);

#[derive(Clone)]
enum VecRepr<T, const N: usize> {
    Inline { len: u8, buf: [T; N] },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector.
    pub fn new() -> Self {
        InlineVec(VecRepr::Inline {
            len: 0,
            buf: [T::default(); N],
        })
    }

    /// The items as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            VecRepr::Inline { len, buf } => &buf[..*len as usize],
            VecRepr::Heap(v) => v,
        }
    }

    /// The items as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            VecRepr::Inline { len, buf } => &mut buf[..*len as usize],
            VecRepr::Heap(v) => v,
        }
    }

    /// Appends `item`, moving the items to the heap when the inline
    /// room is full.
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            VecRepr::Inline { len, buf } if (*len as usize) < N => {
                buf[*len as usize] = item;
                *len += 1;
            }
            VecRepr::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(2 * N.max(1));
                v.extend_from_slice(buf);
                v.push(item);
                self.0 = VecRepr::Heap(v);
            }
            VecRepr::Heap(v) => v.push(item),
        }
    }

    /// Keeps the items for which `keep` returns true, in order; `keep`
    /// may modify each item it sees.
    pub fn retain_mut(&mut self, mut keep: impl FnMut(&mut T) -> bool) {
        match &mut self.0 {
            VecRepr::Inline { len, buf } => {
                let mut kept = 0;
                for i in 0..*len as usize {
                    let mut item = buf[i];
                    if keep(&mut item) {
                        buf[kept] = item;
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            VecRepr::Heap(v) => v.retain_mut(keep),
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        v.extend(iter);
        v
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for InlineVec<T, N> {
    fn from(items: &[T]) -> Self {
        if items.len() <= N {
            let mut buf = [T::default(); N];
            buf[..items.len()].copy_from_slice(items);
            InlineVec(VecRepr::Inline {
                len: items.len() as u8,
                buf,
            })
        } else {
            InlineVec(VecRepr::Heap(items.to_vec()))
        }
    }
}

impl<T: Copy + Default, const N: usize, const K: usize> From<[T; K]> for InlineVec<T, N> {
    fn from(items: [T; K]) -> Self {
        Self::from(&items[..])
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(items: Vec<T>) -> Self {
        if items.len() <= N {
            Self::from(&items[..])
        } else {
            InlineVec(VecRepr::Heap(items))
        }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_print_and_compare_as_string() {
        for s in [
            "",
            "u0",
            "exactly_twenty_two_b_x",
            "twenty_three_bytes_long",
            "ünïcode_nämes_spill_over",
        ] {
            let i = InlineStr::from(s);
            let owned = s.to_string();
            assert_eq!(format!("{i:?}"), format!("{owned:?}"));
            assert_eq!(format!("{i}"), owned);
            assert_eq!(&*i, s);
            assert_eq!(i, InlineStr::from(owned.clone()));
        }
        assert_eq!(InlineStr::from("exactly_twenty_two_b_x").len(), INLINE_STR);
        let mut sorted = vec![InlineStr::from("b"), InlineStr::from("a")];
        sorted.sort();
        assert_eq!(sorted, ["a", "b"]);
    }

    #[test]
    fn vectors_spill_and_behave_as_vec() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        let mut want = Vec::new();
        for i in 0..5 {
            v.push(i);
            want.push(i);
            assert_eq!(v, want);
            assert_eq!(format!("{v:?}"), format!("{want:?}"));
        }
        v.retain_mut(|x| {
            *x += 10;
            *x % 2 == 0
        });
        assert_eq!(v, vec![10, 12, 14]);
        let mut small: InlineVec<u32, 4> = [1, 2, 3].into();
        small.retain_mut(|x| *x != 2);
        assert_eq!(small, vec![1, 3]);
        small[0] = 7;
        assert_eq!(small.to_vec(), vec![7, 3]);
        let collected: InlineVec<u32, 1> = (0..3).collect();
        assert_eq!(collected, vec![0, 1, 2]);
    }
}
