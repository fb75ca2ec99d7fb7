//! Dense bit sets for the scheduler's hot paths.
//!
//! The global scheduler spends most of its time asking membership
//! questions about two dense key spaces: symbolic registers
//! ([`Reg`] indices are allocated contiguously per class by
//! [`Function::fresh_reg`](crate::Function::fresh_reg)) and basic blocks
//! ([`BlockId`](crate::BlockId)s are dense by construction). `HashSet`
//! answers those questions in tens of nanoseconds with allocation churn;
//! a word-packed bit set answers them in one shift and mask.
//!
//! [`DenseBitSet`] is the raw `u64`-word set over `usize` keys;
//! [`RegSet`] is a thin typed wrapper. Both iterate in ascending key
//! order ([`RegSet`] in `(class, index)` order, matching [`Reg`]'s
//! `Ord`), so every consumer that prints or compares set contents is
//! deterministic without sorting.

use crate::reg::{Reg, RegClass};
use std::fmt;

const WORD_BITS: usize = 64;

/// A growable set of small unsigned integers, one bit per key.
///
/// Operations never shrink the backing storage; `clear` keeps capacity
/// so a scratch set can be reused across iterations without
/// reallocating. Equality is logical (trailing zero words are
/// ignored), so sets that grew along different paths still compare
/// equal when they hold the same keys.
///
/// ```
/// use gis_ir::DenseBitSet;
///
/// let mut s = DenseBitSet::new();
/// s.insert(3);
/// s.insert(200);
/// assert!(s.contains(3) && !s.contains(4));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 200]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DenseBitSet {
    words: Vec<u64>,
}

impl DenseBitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        DenseBitSet { words: Vec::new() }
    }

    /// Creates an empty set with room for keys `0..capacity` without
    /// further allocation.
    pub fn with_capacity(capacity: usize) -> Self {
        DenseBitSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
        }
    }

    /// Inserts `key`, growing storage as needed. Returns `true` if the
    /// key was not already present.
    pub fn insert(&mut self, key: usize) -> bool {
        let (w, b) = (key / WORD_BITS, key % WORD_BITS);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&mut self, key: usize) -> bool {
        let (w, b) = (key / WORD_BITS, key % WORD_BITS);
        if w >= self.words.len() {
            return false;
        }
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Whether `key` is in the set.
    pub fn contains(&self, key: usize) -> bool {
        let (w, b) = (key / WORD_BITS, key % WORD_BITS);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }

    /// Removes every key, keeping the backing storage.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether the set holds no keys.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of keys in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Unions `other` into `self`. Returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &DenseBitSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (dst, &src) in self.words.iter_mut().zip(&other.words) {
            let next = *dst | src;
            changed |= next != *dst;
            *dst = next;
        }
        changed
    }

    /// Removes every key of `other` from `self`.
    pub fn subtract(&mut self, other: &DenseBitSet) {
        for (dst, &src) in self.words.iter_mut().zip(&other.words) {
            *dst &= !src;
        }
    }

    /// Unions `other \ except` into `self` (one fused pass — the
    /// dataflow inner loop `in ∪= out − def`). Returns `true` if
    /// `self` changed.
    pub fn union_with_except(&mut self, other: &DenseBitSet, except: &DenseBitSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (wi, (dst, &src)) in self.words.iter_mut().zip(&other.words).enumerate() {
            let minus = except.words.get(wi).copied().unwrap_or(0);
            let next = *dst | (src & !minus);
            changed |= next != *dst;
            *dst = next;
        }
        changed
    }

    /// Iterates the keys in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * WORD_BITS + b)
            })
        })
    }
}

impl PartialEq for DenseBitSet {
    fn eq(&self, other: &Self) -> bool {
        let shared = self.words.len().min(other.words.len());
        self.words[..shared] == other.words[..shared]
            && self.words[shared..].iter().all(|&w| w == 0)
            && other.words[shared..].iter().all(|&w| w == 0)
    }
}

impl Eq for DenseBitSet {}

/// A set of symbolic [`Reg`]s, one dense bit set per register class.
///
/// Iteration yields GPRs, then FPRs, then CR fields, each in ascending
/// index order — the same total order as [`Reg`]'s `Ord` — so callers
/// can print or diff live sets without sorting.
///
/// ```
/// use gis_ir::{Reg, RegSet};
///
/// let mut live = RegSet::new();
/// live.insert(Reg::cr(0));
/// live.insert(Reg::gpr(3));
/// assert!(live.contains(Reg::gpr(3)));
/// assert_eq!(live.iter().collect::<Vec<_>>(), vec![Reg::gpr(3), Reg::cr(0)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegSet {
    classes: [DenseBitSet; 3],
}

impl RegSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        RegSet::default()
    }

    /// Inserts `r`. Returns `true` if it was not already present.
    pub fn insert(&mut self, r: Reg) -> bool {
        self.classes[r.class().slot()].insert(r.index() as usize)
    }

    /// Removes `r`. Returns `true` if it was present.
    pub fn remove(&mut self, r: Reg) -> bool {
        self.classes[r.class().slot()].remove(r.index() as usize)
    }

    /// Whether `r` is in the set.
    pub fn contains(&self, r: Reg) -> bool {
        self.classes[r.class().slot()].contains(r.index() as usize)
    }

    /// Removes every register, keeping the backing storage.
    pub fn clear(&mut self) {
        for c in &mut self.classes {
            c.clear();
        }
    }

    /// Whether the set holds no registers.
    pub fn is_empty(&self) -> bool {
        self.classes.iter().all(|c| c.is_empty())
    }

    /// Number of registers in the set.
    pub fn len(&self) -> usize {
        self.classes.iter().map(|c| c.len()).sum()
    }

    /// Unions `other` into `self`. Returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (dst, src) in self.classes.iter_mut().zip(&other.classes) {
            changed |= dst.union_with(src);
        }
        changed
    }

    /// Removes every register of `other` from `self`.
    pub fn subtract(&mut self, other: &RegSet) {
        for (dst, src) in self.classes.iter_mut().zip(&other.classes) {
            dst.subtract(src);
        }
    }

    /// Unions `other \ except` into `self`. Returns `true` if `self`
    /// changed.
    pub fn union_with_except(&mut self, other: &RegSet, except: &RegSet) -> bool {
        let mut changed = false;
        for (slot, dst) in self.classes.iter_mut().enumerate() {
            changed |= dst.union_with_except(&other.classes[slot], &except.classes[slot]);
        }
        changed
    }

    /// Iterates the registers in `(class, index)` order.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        RegClass::ALL.into_iter().flat_map(move |class| {
            self.classes[class.slot()]
                .iter()
                .map(move |i| Reg::new(class, i as u32))
        })
    }
}

impl fmt::Display for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{r}")?;
        }
        f.write_str("}")
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<T: IntoIterator<Item = Reg>>(iter: T) -> Self {
        let mut s = RegSet::new();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = DenseBitSet::new();
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(!s.insert(64));
        assert!(s.contains(0) && s.contains(63) && s.contains(64));
        assert!(!s.contains(1) && !s.contains(1000));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert!(!s.remove(9999));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn logical_equality_ignores_capacity() {
        let mut a = DenseBitSet::with_capacity(1024);
        let mut b = DenseBitSet::new();
        a.insert(5);
        b.insert(5);
        assert_eq!(a, b);
        b.insert(700);
        assert_ne!(a, b);
        b.remove(700);
        assert_eq!(a, b);
    }

    #[test]
    fn union_and_subtract() {
        let mut a = DenseBitSet::new();
        a.insert(1);
        let mut b = DenseBitSet::new();
        b.insert(1);
        b.insert(130);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 130]);
        a.subtract(&b);
        assert!(a.is_empty());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = DenseBitSet::new();
        s.insert(500);
        let words = s.words.len();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.words.len(), words);
    }

    #[test]
    fn regset_keys_classes_apart() {
        let mut s = RegSet::new();
        s.insert(Reg::gpr(4));
        assert!(!s.contains(Reg::fpr(4)));
        assert!(!s.contains(Reg::cr(4)));
        s.insert(Reg::fpr(4));
        s.insert(Reg::cr(4));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn regset_iterates_in_reg_order() {
        let mut s = RegSet::new();
        for r in [Reg::cr(0), Reg::fpr(9), Reg::gpr(2), Reg::gpr(1)] {
            s.insert(r);
        }
        let got: Vec<Reg> = s.iter().collect();
        let mut want = got.clone();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(got, vec![Reg::gpr(1), Reg::gpr(2), Reg::fpr(9), Reg::cr(0)]);
    }

    #[test]
    fn regset_display() {
        let mut s = RegSet::new();
        s.insert(Reg::gpr(1));
        s.insert(Reg::cr(0));
        assert_eq!(s.to_string(), "{r1, cr0}");
    }
}
