//! Per-[`OpKind`] abstract transfer functions.
//!
//! Each function mirrors the concrete kernel in `essent-bits` exactly —
//! same operand extension rule (`ext_limb` with the *first* operand's
//! signedness for arithmetic/bitwise/compare, raw zero-extension for
//! `cat`/`bits`/`shl`), same destination truncation — so the soundness
//! oracle in `tests/transfer_soundness.rs` can quantify over every
//! concrete operand: `γ(transfer(kind, abs)) ⊇ {eval_op(kind, xs) | xs ∈
//! γ(abs)}`.
//!
//! When every operand is a singleton the transfer simply runs
//! [`eval_op`], which both guarantees bit-exact agreement with the
//! concrete semantics and gives constant folding maximal precision.

use super::absval::{domain, AbsVal, Limbs, RANGE_MAX_WIDTH};
use crate::eval::{eval_op, Operand};
use crate::netlist::OpKind;
use essent_bits::words;

/// Computes the abstract result of `kind(srcs, params)` at destination
/// type `(dst_w, dst_signed)`.
pub fn transfer(
    kind: OpKind,
    params: &[u64],
    dst_w: u32,
    dst_signed: bool,
    srcs: &[&AbsVal],
) -> AbsVal {
    // All operands known: defer to the concrete semantics. Ops have at
    // most three operands, so their patterns and the result stay on the
    // stack.
    let mut vals = [Limbs::zeroed(1), Limbs::zeroed(1), Limbs::zeroed(1)];
    let mut all_known = true;
    for (val, src) in vals.iter_mut().zip(srcs) {
        match src.singleton_limbs() {
            Some(limbs) => *val = limbs,
            None => {
                all_known = false;
                break;
            }
        }
    }
    if all_known {
        let operands: [Operand; 3] = std::array::from_fn(|i| match srcs.get(i) {
            Some(s) => Operand::new(&vals[i], s.width, s.signed),
            None => Operand::new(&[], 0, false),
        });
        let mut dst = Limbs::zeroed(words(dst_w));
        eval_op(kind, params, &mut dst, dst_w, &operands[..srcs.len()]);
        return AbsVal::exact_limbs(&dst, dst_w, dst_signed);
    }

    use OpKind::*;
    let s0 = srcs[0].signed;
    match kind {
        Add => {
            let range = bin_range(srcs[0], srcs[1], s0, |(al, ah), (bl, bh)| {
                Some((al.checked_add(bl)?, ah.checked_add(bh)?))
            });
            ripple(
                dst_w,
                dst_signed,
                |i| bit_ext(srcs[0], s0, i),
                |i| bit_ext(srcs[1], s0, i),
                false,
                range,
            )
        }
        Sub => {
            let range = bin_range(srcs[0], srcs[1], s0, |(al, ah), (bl, bh)| {
                Some((al.checked_sub(bh)?, ah.checked_sub(bl)?))
            });
            ripple(
                dst_w,
                dst_signed,
                |i| bit_ext(srcs[0], s0, i),
                |i| bit_ext(srcs[1], s0, i).map(|b| !b),
                true,
                range,
            )
        }
        Neg => {
            // eval_op computes `0 - a`.
            let range = srcs[0]
                .num_range(s0)
                .and_then(|(lo, hi)| Some((hi.checked_neg()?, lo.checked_neg()?)));
            ripple(
                dst_w,
                dst_signed,
                |_| Some(false),
                |i| bit_ext(srcs[0], s0, i).map(|b| !b),
                true,
                range,
            )
        }
        Mul => {
            let range = bin_range(srcs[0], srcs[1], s0, |(al, ah), (bl, bh)| {
                let c = [
                    al.checked_mul(bl)?,
                    al.checked_mul(bh)?,
                    ah.checked_mul(bl)?,
                    ah.checked_mul(bh)?,
                ];
                Some((*c.iter().min().unwrap(), *c.iter().max().unwrap()))
            });
            // The product inherits the operands' trailing known zeros.
            let tz = trailing_zeros(srcs[0], s0, dst_w) + trailing_zeros(srcs[1], s0, dst_w);
            from_bit_fn(dst_w, dst_signed, range, |i| {
                if (i as u64) < tz as u64 {
                    Some(false)
                } else {
                    None
                }
            })
        }
        Div => {
            let range = bin_range(srcs[0], srcs[1], s0, |(al, ah), _| {
                if s0 {
                    // |quotient| <= |dividend| (division by zero yields 0,
                    // division by -1 negates).
                    Some((al.min(-ah), ah.max(-al)))
                } else {
                    Some((0, ah))
                }
            });
            with_range(dst_w, dst_signed, range)
        }
        Rem => {
            let range = bin_range(srcs[0], srcs[1], s0, |(al, ah), (bl, bh)| {
                if s0 {
                    // Sign follows the dividend; |rem| <= |dividend|.
                    Some((al.min(0), ah.max(0)))
                } else if bl >= 1 {
                    Some((0, ah.min(bh - 1)))
                } else {
                    // Divisor may be zero, in which case rem = dividend.
                    Some((0, ah))
                }
            });
            with_range(dst_w, dst_signed, range)
        }
        Lt | Leq | Gt | Geq | Eq | Neq => cmp_transfer(kind, dst_w, dst_signed, srcs),
        Shl => shl_static(params[0], dst_w, dst_signed, srcs[0]),
        Shr => shr_static(params[0], dst_w, dst_signed, srcs[0]),
        Dshl => {
            if let Some(sh) = singleton_shift(srcs[1]) {
                return shl_static(sh, dst_w, dst_signed, srcs[0]);
            }
            let min_sh = srcs[1]
                .num_range(false)
                .map(|(lo, _)| lo.clamp(0, u32::MAX as i128) as u32)
                .unwrap_or(0);
            let tz = trailing_zeros(srcs[0], false, dst_w).saturating_add(min_sh);
            // The kernel shifts the raw zero-extended pattern, so the
            // numeric interval is only usable for provably nonnegative
            // operands, and only when the largest shift cannot push bits
            // past the destination (no wraparound).
            let range = (|| {
                let (al, ah) = srcs[0].num_range(s0)?;
                let (bl, bh) = srcs[1].num_range(false)?;
                if al < 0 || (srcs[0].width as i128).checked_add(bh)? > dst_w as i128 {
                    return None;
                }
                Some((shl_checked(al, bl)?, shl_checked(ah, bh)?))
            })();
            from_bit_fn(dst_w, dst_signed, range, |i| {
                if i < tz {
                    Some(false)
                } else {
                    None
                }
            })
        }
        Dshr => {
            if let Some(sh) = singleton_shift(srcs[1]) {
                return shr_static(sh, dst_w, dst_signed, srcs[0]);
            }
            // The shift amount is always unsigned, whatever the dividend
            // is — `bin_range`'s shared interpretation would misread a
            // small shift operand as negative for signed shifts.
            let range = (|| {
                let (al, ah) = srcs[0].num_range(s0)?;
                let (bl, bh) = srcs[1].num_range(false)?;
                let c = [sar(al, bl), sar(al, bh), sar(ah, bl), sar(ah, bh)];
                Some((*c.iter().min().unwrap(), *c.iter().max().unwrap()))
            })();
            with_range(dst_w, dst_signed, range)
        }
        Not => from_bit_fn(dst_w, dst_signed, None, |i| {
            bit_ext(srcs[0], s0, i).map(|b| !b)
        }),
        And => from_bit_fn(dst_w, dst_signed, None, |i| {
            trit_and(bit_ext(srcs[0], s0, i), bit_ext(srcs[1], s0, i))
        }),
        Or => from_bit_fn(dst_w, dst_signed, None, |i| {
            trit_or(bit_ext(srcs[0], s0, i), bit_ext(srcs[1], s0, i))
        }),
        Xor => from_bit_fn(dst_w, dst_signed, None, |i| {
            match (bit_ext(srcs[0], s0, i), bit_ext(srcs[1], s0, i)) {
                (Some(a), Some(b)) => Some(a ^ b),
                _ => None,
            }
        }),
        Andr => {
            let a = srcs[0];
            let mut all_one = true;
            let mut any_zero = false;
            for i in 0..a.width {
                match a.bit(i) {
                    Some(false) => any_zero = true,
                    Some(true) => {}
                    None => all_one = false,
                }
            }
            bool_result(
                dst_w,
                dst_signed,
                if any_zero {
                    Some(false)
                } else if all_one {
                    Some(true)
                } else {
                    None
                },
            )
        }
        Orr => {
            let a = srcs[0];
            let mut any_one = false;
            let mut all_zero = true;
            for i in 0..a.width {
                match a.bit(i) {
                    Some(true) => any_one = true,
                    Some(false) => {}
                    None => all_zero = false,
                }
            }
            let nonzero_by_range = a
                .num_range(a.signed)
                .is_some_and(|(lo, hi)| lo > 0 || hi < 0);
            bool_result(
                dst_w,
                dst_signed,
                if any_one || nonzero_by_range {
                    Some(true)
                } else if all_zero {
                    Some(false)
                } else {
                    None
                },
            )
        }
        Xorr => {
            let a = srcs[0];
            let mut parity = false;
            let mut known = true;
            for i in 0..a.width {
                match a.bit(i) {
                    Some(b) => parity ^= b,
                    None => known = false,
                }
            }
            bool_result(dst_w, dst_signed, known.then_some(parity))
        }
        Cat => {
            let (a, b) = (srcs[0], srcs[1]);
            let range = if !a.signed && !b.signed {
                bin_range(a, b, false, |(al, ah), (bl, bh)| {
                    Some((
                        shl_checked(al, b.width as i128)?.checked_add(bl)?,
                        shl_checked(ah, b.width as i128)?.checked_add(bh)?,
                    ))
                })
            } else {
                None
            };
            from_bit_fn(dst_w, dst_signed, range, |i| {
                if i < b.width {
                    b.bit(i)
                } else {
                    bit_ext(a, false, i - b.width)
                }
            })
        }
        Bits => {
            let a = srcs[0];
            let lo = params[1] as u32;
            // Extracting the whole value (lo = 0, no high truncation)
            // preserves the raw numeric interpretation.
            let range = if lo == 0 && dst_w >= a.width {
                a.num_range(false)
            } else {
                None
            };
            from_bit_fn(dst_w, dst_signed, range, |i| bit_ext(a, false, i + lo))
        }
        Mux => {
            let sel = if srcs[0].width == 0 {
                Some(false)
            } else {
                srcs[0].bit(0)
            };
            match sel {
                Some(true) => cast(srcs[1], dst_w, dst_signed),
                Some(false) => cast(srcs[2], dst_w, dst_signed),
                None => cast(srcs[1], dst_w, dst_signed).join(&cast(srcs[2], dst_w, dst_signed)),
            }
        }
        Copy => cast(srcs[0], dst_w, dst_signed),
    }
}

/// Abstract `kernels::extend`: zero/sign-extend (or truncate) `v` to the
/// destination type — the semantics of `Copy` and of each `Mux` way.
pub fn cast(v: &AbsVal, dst_w: u32, dst_signed: bool) -> AbsVal {
    // Extension preserves the numeric value; truncation-then-read equals
    // the identity exactly on the destination domain, so one membership
    // check covers both directions.
    let range = v.num_range(v.signed);
    let signed = v.signed;
    from_bit_fn(dst_w, dst_signed, range, |i| bit_ext(v, signed, i))
}

/// What `ext_limb` at bit granularity knows about position `i` of `v`
/// when read with extension signedness `signed`.
fn bit_ext(v: &AbsVal, signed: bool, i: u32) -> Option<bool> {
    if i < v.width {
        v.bit(i)
    } else if v.width == 0 || !signed {
        Some(false)
    } else {
        v.bit(v.width - 1)
    }
}

fn trit_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn trit_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// Consecutive known-zero low bits of `v` under extension `signed`,
/// scanning at most `cap` positions.
fn trailing_zeros(v: &AbsVal, signed: bool, cap: u32) -> u32 {
    let mut n = 0;
    while n < cap && bit_ext(v, signed, n) == Some(false) {
        n += 1;
    }
    n
}

/// `x << sh` with overflow detection (`None` on any overflow).
fn shl_checked(x: i128, sh: i128) -> Option<i128> {
    if !(0..=(RANGE_MAX_WIDTH as i128)).contains(&sh) {
        return None;
    }
    x.checked_mul(1i128.checked_shl(sh as u32)?)
}

/// Arithmetic shift right with saturating shift amount.
fn sar(x: i128, sh: i128) -> i128 {
    let sh = sh.clamp(0, 127) as u32;
    x >> sh
}

/// The concrete `shift_amount()` of a singleton shift operand.
fn singleton_shift(v: &AbsVal) -> Option<u64> {
    let b = v.singleton_limbs()?;
    if b[1..].iter().any(|&w| w != 0) {
        Some(u64::MAX)
    } else {
        Some(b[0])
    }
}

/// Joint numeric ranges of two operands under a common interpretation.
fn bin_range(
    a: &AbsVal,
    b: &AbsVal,
    signed: bool,
    f: impl Fn((i128, i128), (i128, i128)) -> Option<(i128, i128)>,
) -> Option<(i128, i128)> {
    f(a.num_range(signed)?, b.num_range(signed)?)
}

/// Builds an [`AbsVal`] from a per-bit fact function plus an optional
/// numeric interval (kept only when it fits the destination domain).
/// `f` is called once per bit, in ascending order.
fn from_bit_fn(
    dst_w: u32,
    dst_signed: bool,
    range: Option<(i128, i128)>,
    mut f: impl FnMut(u32) -> Option<bool>,
) -> AbsVal {
    let mut out = AbsVal {
        width: dst_w,
        signed: dst_signed,
        zeros: Limbs::zeroed(words(dst_w)),
        ones: Limbs::zeroed(words(dst_w)),
        range: fit_range(range, dst_w, dst_signed),
    };
    for i in 0..dst_w {
        match f(i) {
            Some(false) => out.zeros[(i / 64) as usize] |= 1u64 << (i % 64),
            Some(true) => out.ones[(i / 64) as usize] |= 1u64 << (i % 64),
            None => {}
        }
    }
    out.canonicalize();
    out
}

/// An [`AbsVal`] carrying only a numeric interval.
fn with_range(dst_w: u32, dst_signed: bool, range: Option<(i128, i128)>) -> AbsVal {
    from_bit_fn(dst_w, dst_signed, range, |_| None)
}

/// Keeps `range` only when every member survives destination truncation
/// unchanged — i.e. the interval lies inside the destination domain.
fn fit_range(range: Option<(i128, i128)>, dst_w: u32, dst_signed: bool) -> Option<(i128, i128)> {
    let (lo, hi) = range?;
    if dst_w > RANGE_MAX_WIDTH {
        return None;
    }
    let (dlo, dhi) = domain(dst_w, dst_signed);
    (lo >= dlo && hi <= dhi).then_some((lo, hi))
}

/// A known or unknown 1-bit result at the destination type.
fn bool_result(dst_w: u32, dst_signed: bool, v: Option<bool>) -> AbsVal {
    match v {
        Some(b) => {
            let mut limbs = Limbs::zeroed(words(dst_w));
            limbs[0] = b as u64;
            AbsVal::exact_limbs(&limbs, dst_w, dst_signed)
        }
        None => {
            // Only bit 0 can ever be set.
            from_bit_fn(dst_w, dst_signed, None, |i| (i > 0).then_some(false))
        }
    }
}

/// Static left shift: low `sh` bits zero, the rest raw bits of `a`.
fn shl_static(sh: u64, dst_w: u32, dst_signed: bool, a: &AbsVal) -> AbsVal {
    // The kernel shifts the raw zero-extended pattern. That matches the
    // numeric value when the operand is nonnegative and nothing shifts
    // out; for a possibly-negative signed operand it matches only at
    // FIRRTL's exact inferred width `a.width + sh`, where the two's
    // complement pattern is reproduced bit for bit.
    let full = (a.width as u64).saturating_add(sh);
    let range = a.num_range(a.signed).and_then(|(lo, hi)| {
        let ok = if lo >= 0 {
            full <= dst_w as u64
        } else {
            full == dst_w as u64
        };
        if !ok {
            return None;
        }
        Some((shl_checked(lo, sh as i128)?, shl_checked(hi, sh as i128)?))
    });
    from_bit_fn(dst_w, dst_signed, range, |i| {
        if (i as u64) < sh {
            Some(false)
        } else {
            bit_ext(a, false, ((i as u64) - sh) as u32)
        }
    })
}

/// Static right shift with the operand's own sign fill.
fn shr_static(sh: u64, dst_w: u32, dst_signed: bool, a: &AbsVal) -> AbsVal {
    let signed = a.signed;
    let range = a
        .num_range(signed)
        .map(|(lo, hi)| (sar(lo, sh.min(127) as i128), sar(hi, sh.min(127) as i128)));
    from_bit_fn(dst_w, dst_signed, range, |i| {
        let pos = (i as u64).saturating_add(sh);
        if pos < a.width as u64 {
            a.bit(pos as u32)
        } else if a.width == 0 || !signed {
            Some(false)
        } else {
            a.bit(a.width - 1)
        }
    })
}

/// Comparison transfer: decide via disjoint intervals, or for equality
/// via any single bit position proven to differ.
fn cmp_transfer(kind: OpKind, dst_w: u32, dst_signed: bool, srcs: &[&AbsVal]) -> AbsVal {
    use OpKind::*;
    let s0 = srcs[0].signed;
    let (a, b) = (srcs[0], srcs[1]);
    let ranges = a.num_range(s0).zip(b.num_range(s0));
    let mut verdict = None;
    if let Some(((al, ah), (bl, bh))) = ranges {
        verdict = match kind {
            Lt if ah < bl => Some(true),
            Lt if al >= bh => Some(false),
            Leq if ah <= bl => Some(true),
            Leq if al > bh => Some(false),
            Gt if al > bh => Some(true),
            Gt if ah <= bl => Some(false),
            Geq if al >= bh => Some(true),
            Geq if ah < bl => Some(false),
            Eq if ah < bl || al > bh => Some(false),
            Neq if ah < bl || al > bh => Some(true),
            _ => None,
        };
    }
    if verdict.is_none() && matches!(kind, Eq | Neq) {
        // One bit proven to differ settles (in)equality even when the
        // intervals overlap.
        let span = a.width.max(b.width);
        for i in 0..span {
            if let (Some(x), Some(y)) = (bit_ext(a, s0, i), bit_ext(b, s0, i)) {
                if x != y {
                    verdict = Some(kind == Neq);
                    break;
                }
            }
        }
    }
    bool_result(dst_w, dst_signed, verdict)
}

/// Abstract ripple-carry adder over trit bit functions: computes
/// `aF + bF + carry0` bit-serially, mirroring the multi-limb add/sub
/// kernels (subtraction passes the inverted subtrahend and carry 1).
fn ripple(
    dst_w: u32,
    dst_signed: bool,
    a: impl Fn(u32) -> Option<bool>,
    b: impl Fn(u32) -> Option<bool>,
    carry0: bool,
    range: Option<(i128, i128)>,
) -> AbsVal {
    // `from_bit_fn` asks for the bits in ascending order, so the carry
    // ripples through its closure.
    let mut carry = Some(carry0);
    from_bit_fn(dst_w, dst_signed, range, |i| {
        let (ai, bi) = (a(i), b(i));
        let bit = match (ai, bi, carry) {
            (Some(x), Some(y), Some(c)) => Some(x ^ y ^ c),
            _ => None,
        };
        carry = match (ai, bi, carry) {
            (Some(x), Some(y), Some(c)) => Some((x as u8 + y as u8 + c as u8) >= 2),
            (Some(true), Some(true), _)
            | (Some(true), _, Some(true))
            | (_, Some(true), Some(true)) => Some(true),
            (Some(false), Some(false), _)
            | (Some(false), _, Some(false))
            | (_, Some(false), Some(false)) => Some(false),
            _ => None,
        };
        bit
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use essent_bits::Bits;

    fn top(w: u32) -> AbsVal {
        AbsVal::top(w, false)
    }

    fn exact_u(v: u64, w: u32) -> AbsVal {
        AbsVal::exact(&Bits::from_u64(v, w), false)
    }

    #[test]
    fn and_with_mask_pins_upper_bits() {
        let a = top(8);
        let m = exact_u(0x0f, 8);
        let r = transfer(OpKind::And, &[], 8, false, &[&a, &m]);
        for i in 4..8 {
            assert_eq!(r.bit(i), Some(false), "bit {i}");
        }
        assert_eq!(r.bit(0), None);
        assert_eq!(r.significant_width(), 4);
    }

    #[test]
    fn add_ranges_compose() {
        let mut a = top(8);
        a.range = Some((0, 10));
        a.canonicalize();
        let b = exact_u(5, 8);
        let r = transfer(OpKind::Add, &[], 9, false, &[&a, &b]);
        assert_eq!(r.range, Some((5, 15)));
        assert_eq!(r.bit(8), Some(false));
    }

    #[test]
    fn comparison_decided_by_disjoint_ranges() {
        let mut a = top(8);
        a.range = Some((0, 10));
        a.canonicalize();
        let b = exact_u(200, 8);
        let lt = transfer(OpKind::Lt, &[], 1, false, &[&a, &b]);
        assert_eq!(lt.as_singleton(), Some(Bits::from_u64(1, 1)));
        let geq = transfer(OpKind::Geq, &[], 1, false, &[&a, &b]);
        assert_eq!(geq.as_singleton(), Some(Bits::from_u64(0, 1)));
    }

    #[test]
    fn equality_decided_by_bit_mismatch() {
        // a = xxxx1, b = xxxx0: ranges overlap but bit 0 differs.
        let mut a = top(5);
        a.ones[0] = 1;
        a.canonicalize();
        let mut b = top(5);
        b.zeros[0] = 1;
        b.canonicalize();
        let eq = transfer(OpKind::Eq, &[], 1, false, &[&a, &b]);
        assert_eq!(eq.as_singleton(), Some(Bits::from_u64(0, 1)));
        let neq = transfer(OpKind::Neq, &[], 1, false, &[&a, &b]);
        assert_eq!(neq.as_singleton(), Some(Bits::from_u64(1, 1)));
    }

    #[test]
    fn mux_with_known_selector_picks_one_way() {
        let sel = exact_u(1, 1);
        let a = exact_u(7, 4);
        let b = top(4);
        let r = transfer(OpKind::Mux, &[], 4, false, &[&sel, &a, &b]);
        assert_eq!(r.as_singleton(), Some(Bits::from_u64(7, 4)));
    }

    #[test]
    fn mux_join_merges_ways() {
        let sel = top(1);
        let a = exact_u(0b1000, 4);
        let b = exact_u(0b1001, 4);
        let r = transfer(OpKind::Mux, &[], 4, false, &[&sel, &a, &b]);
        assert_eq!(r.bit(3), Some(true));
        assert_eq!(r.bit(0), None);
        assert_eq!(r.range, Some((8, 9)));
    }

    #[test]
    fn all_singleton_defers_to_eval() {
        let a = exact_u(13, 6);
        let b = exact_u(5, 6);
        let r = transfer(OpKind::Rem, &[], 6, false, &[&a, &b]);
        assert_eq!(r.as_singleton(), Some(Bits::from_u64(3, 6)));
    }

    #[test]
    fn signed_extension_through_copy() {
        let a = AbsVal::exact(&Bits::from_i64(-2, 4), true);
        let r = transfer(OpKind::Copy, &[], 8, true, &[&a]);
        assert_eq!(r.as_singleton(), Some(Bits::from_i64(-2, 8)));
    }

    #[test]
    fn orr_nonzero_by_range() {
        let mut a = top(8);
        a.range = Some((3, 9));
        a.canonicalize();
        let r = transfer(OpKind::Orr, &[], 1, false, &[&a]);
        assert_eq!(r.as_singleton(), Some(Bits::from_u64(1, 1)));
    }
}
