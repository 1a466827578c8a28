//! The abstract value domain: a known-bits mask pair plus a numeric
//! interval.
//!
//! An [`AbsVal`] describes the set of concrete values a signal can take:
//! `zeros`/`ones` are bit masks of positions proven to hold 0/1 (LLVM's
//! `KnownBits` shape), and `range` is an inclusive numeric interval under
//! the signal's own signedness. Both components are maintained together
//! and re-tightened against each other by [`AbsVal::canonicalize`], so a
//! range-only fact (e.g. from a comparison-driven transfer) still yields
//! known upper zero bits and vice versa.
//!
//! Ranges are tracked in `i128` and therefore only for widths up to
//! [`RANGE_MAX_WIDTH`]; wider signals fall back to masks alone, which is
//! sound (masks are never derived from an absent range).

use essent_bits::{top_mask, words, Bits};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Widest signal for which a numeric `i128` interval is tracked.
/// 120 bits leaves headroom so interval arithmetic on two in-domain
/// values cannot overflow `i128` undetected (checked ops are still used).
pub const RANGE_MAX_WIDTH: u32 = 120;

/// A little-endian limb vector, stored inline up to two limbs (128
/// bits) so the masks of nearly every signal, and the analysis's
/// temporaries, never touch the heap; it is no larger than a `Vec`. It
/// dereferences to `[u64]`.
#[derive(Clone)]
pub struct Limbs(Repr);

#[derive(Clone)]
enum Repr {
    One(u64),
    Two([u64; 2]),
    /// No limbs, or more than two.
    Heap(Box<[u64]>),
}

impl Limbs {
    /// `n` zero limbs.
    pub fn zeroed(n: usize) -> Limbs {
        Limbs(match n {
            1 => Repr::One(0),
            2 => Repr::Two([0; 2]),
            _ => Repr::Heap(vec![0; n].into_boxed_slice()),
        })
    }

    /// A copy of `limbs`.
    pub fn from_slice(limbs: &[u64]) -> Limbs {
        let mut out = Limbs::zeroed(limbs.len());
        out.copy_from_slice(limbs);
        out
    }
}

impl Deref for Limbs {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match &self.0 {
            Repr::One(limb) => std::slice::from_ref(limb),
            Repr::Two(limbs) => limbs,
            Repr::Heap(limbs) => limbs,
        }
    }
}

impl DerefMut for Limbs {
    fn deref_mut(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Repr::One(limb) => std::slice::from_mut(limb),
            Repr::Two(limbs) => limbs,
            Repr::Heap(limbs) => limbs,
        }
    }
}

impl PartialEq for Limbs {
    fn eq(&self, other: &Limbs) -> bool {
        **self == **other
    }
}

impl Eq for Limbs {}

impl fmt::Debug for Limbs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Abstract value: known bits plus an optional numeric interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsVal {
    /// Width of the described signal in bits.
    pub width: u32,
    /// Signedness under which `range` is interpreted.
    pub signed: bool,
    /// Mask of bits proven zero (normalized: bits `>= width` clear).
    pub zeros: Limbs,
    /// Mask of bits proven one (disjoint from `zeros`).
    pub ones: Limbs,
    /// Inclusive numeric interval, when `width <= RANGE_MAX_WIDTH`.
    pub range: Option<(i128, i128)>,
}

/// Reads bit `i` of a mask vector; out-of-range positions read 0.
#[inline]
fn mask_bit(mask: &[u64], i: u32) -> bool {
    let limb = (i / 64) as usize;
    limb < mask.len() && (mask[limb] >> (i % 64)) & 1 == 1
}

#[inline]
fn set_mask_bit(mask: &mut [u64], i: u32) {
    mask[(i / 64) as usize] |= 1u64 << (i % 64);
}

/// The representable interval of a `(width, signed)` type.
pub fn domain(width: u32, signed: bool) -> (i128, i128) {
    debug_assert!(width <= RANGE_MAX_WIDTH);
    if width == 0 {
        (0, 0)
    } else if signed {
        (-(1i128 << (width - 1)), (1i128 << (width - 1)) - 1)
    } else {
        (0, (1i128 << width) - 1)
    }
}

/// Numeric value of a normalized limb pattern under `(width, signed)`.
/// Only valid for `width <= RANGE_MAX_WIDTH`.
pub fn value_of(limbs: &[u64], width: u32, signed: bool) -> i128 {
    if width == 0 {
        return 0;
    }
    let mut v: i128 = 0;
    for i in (0..words(width)).rev() {
        v = (v << 64) | limbs[i] as i128;
    }
    if signed && mask_bit(limbs, width - 1) {
        v - (1i128 << width)
    } else {
        v
    }
}

impl AbsVal {
    /// No information beyond the type: every bit unknown, range = domain.
    pub fn top(width: u32, signed: bool) -> AbsVal {
        let n = words(width);
        let range = (width <= RANGE_MAX_WIDTH).then(|| domain(width, signed));
        AbsVal {
            width,
            signed,
            zeros: Limbs::zeroed(n),
            ones: Limbs::zeroed(n),
            range,
        }
    }

    /// The singleton abstract value for one concrete pattern.
    pub fn exact(value: &Bits, signed: bool) -> AbsVal {
        AbsVal::exact_limbs(value.limbs(), value.width(), signed)
    }

    /// [`AbsVal::exact`] of the `width`-bit pattern `limbs`
    /// (`words(width)` limbs; bits past `width` are ignored).
    pub fn exact_limbs(limbs: &[u64], width: u32, signed: bool) -> AbsVal {
        let mut ones = Limbs::from_slice(limbs);
        essent_bits::kernels::normalize(&mut ones, width);
        let mut zeros = Limbs::zeroed(ones.len());
        for (z, o) in zeros.iter_mut().zip(ones.iter()) {
            *z = !o;
        }
        essent_bits::kernels::normalize(&mut zeros, width);
        let range = (width <= RANGE_MAX_WIDTH).then(|| {
            let v = value_of(&ones, width, signed);
            (v, v)
        });
        AbsVal {
            width,
            signed,
            zeros,
            ones,
            range,
        }
    }

    /// What is known about bit `i`: `Some(b)` when proven, `None` when
    /// unknown. Positions `>= width` are `None` (callers apply the
    /// extension rule appropriate to the reading operation).
    pub fn bit(&self, i: u32) -> Option<bool> {
        if i >= self.width {
            return None;
        }
        if mask_bit(&self.zeros, i) {
            Some(false)
        } else if mask_bit(&self.ones, i) {
            Some(true)
        } else {
            None
        }
    }

    /// `Some(value)` when every bit is known (or the range is a point).
    pub fn as_singleton(&self) -> Option<Bits> {
        self.singleton_limbs()
            .map(|limbs| Bits::from_limbs(limbs.to_vec(), self.width))
    }

    /// [`AbsVal::as_singleton`]'s pattern as limbs, without building a
    /// [`Bits`].
    pub fn singleton_limbs(&self) -> Option<Limbs> {
        let n = words(self.width);
        let all_known = (0..n).all(|i| {
            let want = if self.width == 0 {
                0
            } else if i + 1 == n {
                top_mask(self.width)
            } else {
                u64::MAX
            };
            (self.zeros[i] | self.ones[i]) & want == want
        });
        if all_known {
            return Some(self.ones.clone());
        }
        match self.range {
            Some((lo, hi)) if lo == hi => Some(value_limbs(lo, self.width)),
            _ => None,
        }
    }

    /// `true` when the concrete pattern is a member of this abstract set.
    pub fn contains(&self, value: &Bits) -> bool {
        debug_assert_eq!(value.width(), self.width);
        for i in 0..words(self.width) {
            if self.zeros[i] & value.limbs()[i] != 0 {
                return false;
            }
            if self.ones[i] & !value.limbs()[i] != 0 {
                return false;
            }
        }
        if let Some((lo, hi)) = self.range {
            let v = value_of(value.limbs(), self.width, self.signed);
            if v < lo || v > hi {
                return false;
            }
        }
        true
    }

    /// Least upper bound: keeps only facts true of both inputs.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        debug_assert_eq!(self.width, other.width);
        debug_assert_eq!(self.signed, other.signed);
        let mut zeros = self.zeros.clone();
        let mut ones = self.ones.clone();
        for (z, b) in zeros.iter_mut().zip(other.zeros.iter()) {
            *z &= b;
        }
        for (o, b) in ones.iter_mut().zip(other.ones.iter()) {
            *o &= b;
        }
        let range = match (self.range, other.range) {
            (Some((al, ah)), Some((bl, bh))) => Some((al.min(bl), ah.max(bh))),
            _ => None,
        };
        let mut out = AbsVal {
            width: self.width,
            signed: self.signed,
            zeros,
            ones,
            range,
        };
        out.canonicalize();
        out
    }

    /// Drops the numeric interval back to the full domain (range
    /// widening), keeping the known-bit masks.
    pub fn widen_range(&mut self) {
        self.range = (self.width <= RANGE_MAX_WIDTH).then(|| domain(self.width, self.signed));
        self.canonicalize();
    }

    /// The numeric interval implied by the known-bit masks alone, under
    /// an arbitrary signedness (not necessarily `self.signed`).
    /// `None` when the width exceeds [`RANGE_MAX_WIDTH`].
    pub fn mask_range(&self, signed: bool) -> Option<(i128, i128)> {
        if self.width > RANGE_MAX_WIDTH {
            return None;
        }
        if self.width == 0 {
            return Some((0, 0));
        }
        // Minimum: unknown bits 0 — except a signed unknown sign bit,
        // which is minimized by setting it. Maximum: the mirror image.
        let mut min_limbs = self.ones.clone();
        let mut max_limbs = Limbs::zeroed(words(self.width));
        for (i, m) in max_limbs.iter_mut().enumerate() {
            *m = self.ones[i] | !self.zeros[i];
        }
        if let Some(last) = max_limbs.last_mut() {
            *last &= top_mask(self.width);
        }
        if signed && self.bit(self.width - 1).is_none() {
            set_mask_bit(&mut min_limbs, self.width - 1);
            let limb = ((self.width - 1) / 64) as usize;
            max_limbs[limb] &= !(1u64 << ((self.width - 1) % 64));
        }
        Some((
            value_of(&min_limbs, self.width, signed),
            value_of(&max_limbs, self.width, signed),
        ))
    }

    /// The numeric interval under `signed`: the tightest of the stored
    /// range (when its interpretation matches) and the mask-implied one.
    pub fn num_range(&self, signed: bool) -> Option<(i128, i128)> {
        let mut best = self.mask_range(signed)?;
        if signed == self.signed {
            if let Some((lo, hi)) = self.range {
                best = (best.0.max(lo), best.1.min(hi));
            }
        }
        Some(best)
    }

    /// Re-tightens masks and range against each other and restores the
    /// representation invariants.
    pub fn canonicalize(&mut self) {
        // Masks stay within the width and disjoint (the transfer
        // functions only ever produce sound facts; a contradiction
        // would mean unreachable code, where anything is sound — keep
        // the zero claim deterministically).
        if let (Some(z), Some(o)) = (self.zeros.last_mut(), self.ones.last_mut()) {
            let m = top_mask(self.width);
            *z &= m;
            *o &= m;
        }
        if self.width == 0 {
            self.zeros[0] = 0;
            self.ones[0] = 0;
        }
        for i in 0..self.zeros.len() {
            self.ones[i] &= !self.zeros[i];
        }
        if self.width > RANGE_MAX_WIDTH {
            self.range = None;
            return;
        }
        // Intersect the stored range with the mask-implied interval and
        // clamp to the domain.
        let (dlo, dhi) = domain(self.width, self.signed);
        let (mlo, mhi) = self
            .mask_range(self.signed)
            .expect("width within range domain");
        let (mut lo, mut hi) = self.range.unwrap_or((dlo, dhi));
        lo = lo.max(mlo).max(dlo);
        hi = hi.min(mhi).min(dhi);
        if lo > hi {
            // Contradictory facts (unreachable value set): collapse to
            // the mask-implied interval to stay deterministic.
            lo = mlo;
            hi = mhi;
        }
        self.range = Some((lo, hi));
        // Range => leading known zeros: a provably nonnegative value
        // below 2^k has bits [k, width) zero (including the sign
        // position for signed types, which is what makes narrowing by
        // sign-copy sound later).
        if lo >= 0 {
            let k = bit_len(hi);
            for i in k..self.width {
                if !mask_bit(&self.ones, i) {
                    set_mask_bit(&mut self.zeros, i);
                }
            }
        }
        // A point interval fixes every bit.
        if lo == hi {
            let v = value_limbs(lo, self.width);
            for i in 0..words(self.width) {
                let want = if self.width == 0 {
                    0
                } else if i + 1 == words(self.width) {
                    top_mask(self.width)
                } else {
                    u64::MAX
                };
                self.ones[i] = v[i];
                self.zeros[i] = !v[i] & want;
            }
        }
    }

    /// Smallest width `w'` such that the value is exactly representable
    /// by zero-extension from `w'` bits — i.e. bits `[w', width)` are
    /// known zero, and for signed types the sign position `w' - 1` is
    /// known zero too (so sign- and zero-extension coincide).
    pub fn significant_width(&self) -> u32 {
        if self.width == 0 {
            return 0;
        }
        let mut highest_unknown = None;
        for i in (0..self.width).rev() {
            if self.bit(i) != Some(false) {
                highest_unknown = Some(i);
                break;
            }
        }
        let w = match highest_unknown {
            // All bits known zero: one bit suffices either way.
            None => return 1,
            Some(h) => h + 1,
        };
        if self.signed {
            // Keep a known-zero sign position above the payload.
            (w + 1).min(self.width)
        } else {
            w
        }
    }
}

/// Number of bits needed to represent `v >= 0` (0 for `v == 0`).
fn bit_len(v: i128) -> u32 {
    debug_assert!(v >= 0);
    128 - v.leading_zeros()
}

/// The normalized pattern of numeric value `v` at `width` bits.
fn value_limbs(v: i128, width: u32) -> Limbs {
    let mut limbs = Limbs::zeroed(words(width));
    let mut x = v as u128; // two's complement reinterpretation
    for l in limbs.iter_mut() {
        *l = x as u64;
        x >>= 64;
        if v < 0 && x == 0 {
            // After the payload runs out, a negative value keeps
            // sign-filling upper limbs.
            x = u128::MAX;
        }
    }
    essent_bits::kernels::normalize(&mut limbs, width);
    limbs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_roundtrip_and_contains() {
        let v = Bits::from_u64(0b1010, 6);
        let a = AbsVal::exact(&v, false);
        assert_eq!(a.as_singleton(), Some(v.clone()));
        assert!(a.contains(&v));
        assert!(!a.contains(&Bits::from_u64(0b1011, 6)));
        assert_eq!(a.range, Some((10, 10)));
    }

    #[test]
    fn top_contains_everything() {
        let t = AbsVal::top(5, false);
        for x in 0..32u64 {
            assert!(t.contains(&Bits::from_u64(x, 5)));
        }
        assert_eq!(t.as_singleton(), None);
    }

    #[test]
    fn join_keeps_common_facts() {
        let a = AbsVal::exact(&Bits::from_u64(0b1100, 4), false);
        let b = AbsVal::exact(&Bits::from_u64(0b0100, 4), false);
        let j = a.join(&b);
        assert_eq!(j.bit(2), Some(true));
        assert_eq!(j.bit(0), Some(false));
        assert_eq!(j.bit(3), None);
        assert_eq!(j.range, Some((4, 12)));
        assert!(j.contains(&Bits::from_u64(0b1100, 4)));
        assert!(j.contains(&Bits::from_u64(0b0100, 4)));
    }

    #[test]
    fn range_implies_leading_zeros() {
        let mut t = AbsVal::top(8, false);
        t.range = Some((0, 5));
        t.canonicalize();
        assert_eq!(t.bit(7), Some(false));
        assert_eq!(t.bit(3), Some(false));
        assert_eq!(t.bit(2), None);
        assert_eq!(t.significant_width(), 3);
    }

    #[test]
    fn signed_values_and_domain() {
        let v = Bits::from_i64(-3, 5);
        let a = AbsVal::exact(&v, true);
        assert_eq!(a.range, Some((-3, -3)));
        assert!(a.contains(&v));
        assert_eq!(domain(5, true), (-16, 15));
        assert_eq!(value_of(v.limbs(), 5, true), -3);
        assert_eq!(&*value_limbs(-3, 5), v.limbs());
    }

    #[test]
    fn signed_significant_width_needs_zero_sign() {
        // Nonnegative signed value in [0, 5]: payload 3 bits + zero sign.
        let mut t = AbsVal::top(8, true);
        t.range = Some((0, 5));
        t.canonicalize();
        assert_eq!(t.significant_width(), 4);
        // A possibly-negative signed value cannot narrow at all.
        let neg = AbsVal::top(8, true);
        assert_eq!(neg.significant_width(), 8);
    }

    #[test]
    fn mask_range_signed_unknown_sign() {
        let t = AbsVal::top(4, true);
        assert_eq!(t.mask_range(true), Some((-8, 7)));
        assert_eq!(t.mask_range(false), Some((0, 15)));
    }

    #[test]
    fn masks_are_no_larger_than_a_vec() {
        assert!(std::mem::size_of::<Limbs>() <= std::mem::size_of::<Vec<u64>>());
        for n in 0..5 {
            let mut l = Limbs::zeroed(n);
            assert_eq!(l.len(), n);
            l.iter_mut().enumerate().for_each(|(i, w)| *w = i as u64);
            assert_eq!(Limbs::from_slice(&l), l);
        }
    }

    #[test]
    fn zero_width_is_exact_zero() {
        let t = AbsVal::top(0, false);
        assert!(t.contains(&Bits::zero(0)));
        assert_eq!(t.range, Some((0, 0)));
    }
}
