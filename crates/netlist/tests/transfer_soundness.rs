//! Soundness oracle for the abstract transfer functions.
//!
//! For every `OpKind` at operand widths ≤ 6, generate abstract operands
//! (⊤, partial known-bits masks, and value ranges), enumerate **every**
//! concrete operand tuple the abstract operands contain, run the real
//! `eval_op` kernels on each tuple, and require the abstract result to
//! contain each concrete result. This is the definition of transfer-
//! function soundness — any abstraction that ever excludes a reachable
//! concrete value could mis-fold a comparison or narrow a live bit.
//!
//! Widths/signedness combinations follow the FIRRTL inference rules the
//! netlist builder produces (and the kernel `debug_assert`s demand, e.g.
//! `cat`'s `dst = a.w + b.w`).

use essent_bits::{words, Bits};
use essent_netlist::analysis::absval::{value_of, AbsVal};
use essent_netlist::analysis::transfer::transfer;
use essent_netlist::eval::{eval_op, Operand};
use essent_netlist::OpKind;

/// Deterministic xorshift64* — no external PRNG needed for a test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn low_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// A random abstract value at (width, signed): ⊤, a known-bits mask with
/// a few free bits, or the hull of two random concrete values.
fn sample(rng: &mut Rng, width: u32, signed: bool) -> AbsVal {
    let mut v = AbsVal::top(width, signed);
    if width == 0 {
        return v;
    }
    match rng.below(3) {
        0 => {} // ⊤
        1 => {
            let unknown = rng.below(u64::from(width).min(4) + 1) as u32;
            let pattern = rng.next() & low_mask(width);
            let mut known = low_mask(width);
            for _ in 0..unknown {
                known &= !(1u64 << rng.below(u64::from(width)));
            }
            v.zeros[0] |= !pattern & known;
            v.ones[0] |= pattern & known;
            v.canonicalize();
        }
        _ => {
            let a = [rng.next() & low_mask(width)];
            let b = [rng.next() & low_mask(width)];
            let x = value_of(&a, width, signed);
            let y = value_of(&b, width, signed);
            v.range = Some((x.min(y), x.max(y)));
            v.canonicalize();
        }
    }
    v
}

/// Every concrete value the abstract value contains (widths ≤ 6 keep
/// this exhaustive and tiny).
fn concretize(v: &AbsVal) -> Vec<Bits> {
    assert!(v.width <= 6, "oracle widths stay enumerable");
    (0..1u64 << v.width)
        .map(|x| Bits::from_u64(x, v.width))
        .filter(|b| v.contains(b))
        .collect()
}

/// The oracle: abstract transfer vs. exhaustive concrete evaluation.
fn check(kind: OpKind, params: &[u64], dst_w: u32, dst_signed: bool, srcs: &[AbsVal]) {
    let refs: Vec<&AbsVal> = srcs.iter().collect();
    let out = transfer(kind, params, dst_w, dst_signed, &refs);
    assert_eq!(out.width, dst_w);
    assert_eq!(out.signed, dst_signed);

    let concrete: Vec<Vec<Bits>> = srcs.iter().map(concretize).collect();
    let mut index = vec![0usize; srcs.len()];
    'outer: loop {
        let combo: Vec<&Bits> = index.iter().zip(&concrete).map(|(&i, c)| &c[i]).collect();
        let operands: Vec<Operand> = combo
            .iter()
            .zip(srcs)
            .map(|(b, s)| Operand::new(b.limbs(), s.width, s.signed))
            .collect();
        let mut dst = vec![0u64; words(dst_w)];
        eval_op(kind, params, &mut dst, dst_w, &operands);
        let result = Bits::from_limbs(dst, dst_w);
        assert!(
            out.contains(&result),
            "unsound transfer: {kind:?} params={params:?} dst_w={dst_w} dst_signed={dst_signed}\n\
             operands: {combo:?}\nabstract operands: {srcs:?}\n\
             concrete result {result:?} not contained in {out:?}"
        );
        // Odometer over the cartesian product.
        for pos in (0..index.len()).rev() {
            index[pos] += 1;
            if index[pos] < concrete[pos].len() {
                continue 'outer;
            }
            index[pos] = 0;
        }
        break;
    }
}

const SAMPLES: u64 = 6;

/// Binary ops under FIRRTL's same-signedness convention.
#[test]
fn binary_ops_are_sound() {
    use OpKind::*;
    let mut rng = Rng(0x9e3779b97f4a7c15);
    for signed in [false, true] {
        for aw in 1..=6u32 {
            for bw in [1, aw, 6] {
                for kind in [
                    Add, Sub, Mul, Div, Rem, Lt, Leq, Gt, Geq, Eq, Neq, And, Or, Xor, Cat, Dshl,
                    Dshr,
                ] {
                    // cat/dshl/dshr read the second operand as unsigned
                    // (a raw layout or a shift amount).
                    let b_signed = signed && !matches!(kind, Cat | Dshl | Dshr);
                    let (dst_w, dst_signed) = match kind {
                        Add | Sub => (aw.max(bw) + 1, signed),
                        Mul => (aw + bw, signed),
                        Div => (aw + u32::from(signed), signed),
                        Rem => (aw.min(bw), signed),
                        Lt | Leq | Gt | Geq | Eq | Neq => (1, false),
                        And | Or | Xor => (aw.max(bw), false),
                        Cat => (aw + bw, false),
                        // Keep the width explosion enumerable.
                        Dshl => (aw + (1u32 << bw.min(3)) - 1, signed),
                        Dshr => (aw, signed),
                        _ => unreachable!(),
                    };
                    let bw = if kind == Dshl { bw.min(3) } else { bw };
                    for _ in 0..SAMPLES {
                        let a = sample(&mut rng, aw, signed);
                        let b = sample(&mut rng, bw, b_signed);
                        check(kind, &[], dst_w, dst_signed, &[a, b]);
                    }
                }
            }
        }
    }
}

/// Unary and parameterized ops.
#[test]
fn unary_and_param_ops_are_sound() {
    use OpKind::*;
    let mut rng = Rng(0xd1b54a32d192ed03);
    for signed in [false, true] {
        for aw in 1..=6u32 {
            for _ in 0..SAMPLES {
                let a = sample(&mut rng, aw, signed);
                check(Not, &[], aw, false, std::slice::from_ref(&a));
                check(Neg, &[], aw + 1, true, std::slice::from_ref(&a));
                check(Andr, &[], 1, false, std::slice::from_ref(&a));
                check(Orr, &[], 1, false, std::slice::from_ref(&a));
                check(Xorr, &[], 1, false, std::slice::from_ref(&a));

                let sh = rng.below(5);
                check(Shl, &[sh], aw + sh as u32, signed, std::slice::from_ref(&a));
                let sh = rng.below(8);
                check(
                    Shr,
                    &[sh],
                    (aw as i64 - sh as i64).max(1) as u32,
                    signed,
                    std::slice::from_ref(&a),
                );

                let lo = rng.below(u64::from(aw)) as u32;
                let hi = lo + rng.below(u64::from(aw - lo)) as u32;
                check(
                    Bits,
                    &[u64::from(hi), u64::from(lo)],
                    hi - lo + 1,
                    false,
                    std::slice::from_ref(&a),
                );

                // Copy adapts to arbitrary destination types.
                let dst_w = 1 + rng.below(7) as u32;
                check(Copy, &[], dst_w, rng.below(2) == 1, &[a]);
            }
        }
    }
}

/// Three-operand mux, including partially-known selectors.
#[test]
fn mux_is_sound() {
    let mut rng = Rng(0xafc58ed867e34c11);
    for signed in [false, true] {
        for aw in 1..=6u32 {
            for bw in [1, aw, 6] {
                for _ in 0..SAMPLES {
                    let sel = sample(&mut rng, 1, false);
                    let a = sample(&mut rng, aw, signed);
                    let b = sample(&mut rng, bw, signed);
                    check(OpKind::Mux, &[], aw.max(bw), signed, &[sel, a, b]);
                }
            }
        }
    }
}

/// Regression pins for corner semantics the kernels define explicitly:
/// division by zero yields 0, remainder by zero yields the dividend, and
/// the empty AND-reduction is true.
#[test]
fn corner_semantics_are_contained() {
    let zero = AbsVal::exact(&Bits::zero(4), false);
    let x = AbsVal::top(4, false);
    let div = transfer(OpKind::Div, &[], 4, false, &[&x, &zero]);
    assert!(div.contains(&Bits::zero(4)));
    let rem = transfer(OpKind::Rem, &[], 4, false, &[&x, &zero]);
    for v in 0..16u64 {
        assert!(
            rem.contains(&Bits::from_u64(v, 4)),
            "rem-by-zero keeps dividend"
        );
    }
}

/// The bit-at-a-time forms of the transfer functions that
/// `analysis::transfer` computes a limb at a time: each result bit from a
/// per-position fact function, as the analysis first did. Test-only: the
/// word-level forms must give exactly these `AbsVal`s.
mod bitwise {
    use essent_bits::words;
    use essent_netlist::analysis::absval::{domain, AbsVal, Limbs, RANGE_MAX_WIDTH};
    use essent_netlist::eval::{eval_op, Operand};
    use essent_netlist::OpKind;

    /// The reference transfer of the ops with word-level forms.
    pub fn transfer(
        kind: OpKind,
        params: &[u64],
        dst_w: u32,
        dst_signed: bool,
        srcs: &[&AbsVal],
    ) -> AbsVal {
        if srcs.iter().all(|s| s.singleton_limbs().is_some()) {
            let vals: Vec<Limbs> = srcs.iter().map(|s| s.singleton_limbs().unwrap()).collect();
            let operands: Vec<Operand> = vals
                .iter()
                .zip(srcs)
                .map(|(v, s)| Operand::new(v, s.width, s.signed))
                .collect();
            let mut dst = Limbs::zeroed(words(dst_w));
            eval_op(kind, params, &mut dst, dst_w, &operands);
            return AbsVal::exact_limbs(&dst, dst_w, dst_signed);
        }
        use OpKind::*;
        let s0 = srcs[0].signed;
        match kind {
            Copy => cast(srcs[0], dst_w, dst_signed),
            Mux => match (srcs[0].width == 0).then_some(false).or(srcs[0].bit(0)) {
                Some(true) => cast(srcs[1], dst_w, dst_signed),
                Some(false) => cast(srcs[2], dst_w, dst_signed),
                None => cast(srcs[1], dst_w, dst_signed).join(&cast(srcs[2], dst_w, dst_signed)),
            },
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
                let tz = trailing_zeros(srcs[0], s0, dst_w) + trailing_zeros(srcs[1], s0, dst_w);
                from_bit_fn(dst_w, dst_signed, range, |i| {
                    ((i as u64) < tz as u64).then_some(false)
                })
            }
            Dshl => {
                if let Some(b) = srcs[1].singleton_limbs() {
                    let sh = if b[1..].iter().any(|&w| w != 0) {
                        u64::MAX
                    } else {
                        b[0]
                    };
                    return shl_static(sh, dst_w, dst_signed, srcs[0]);
                }
                let min_sh = srcs[1]
                    .num_range(false)
                    .map(|(lo, _)| lo.clamp(0, u32::MAX as i128) as u32)
                    .unwrap_or(0);
                let tz = trailing_zeros(srcs[0], false, dst_w).saturating_add(min_sh);
                let range = (|| {
                    let (al, ah) = srcs[0].num_range(s0)?;
                    let (bl, bh) = srcs[1].num_range(false)?;
                    if al < 0 || (srcs[0].width as i128).checked_add(bh)? > dst_w as i128 {
                        return None;
                    }
                    Some((shl_checked(al, bl)?, shl_checked(ah, bh)?))
                })();
                from_bit_fn(dst_w, dst_signed, range, |i| (i < tz).then_some(false))
            }
            Eq | Neq => {
                let (a, b) = (srcs[0], srcs[1]);
                let mut verdict = None;
                if let Some(((al, ah), (bl, bh))) = a.num_range(s0).zip(b.num_range(s0)) {
                    if ah < bl || al > bh {
                        verdict = Some(kind == Neq);
                    }
                }
                if verdict.is_none() {
                    for i in 0..a.width.max(b.width) {
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
            Shl => shl_static(params[0], dst_w, dst_signed, srcs[0]),
            Shr => shr_static(params[0], dst_w, dst_signed, srcs[0]),
            Not => from_bit_fn(dst_w, dst_signed, None, |i| {
                bit_ext(srcs[0], s0, i).map(|b| !b)
            }),
            And => from_bit_fn(dst_w, dst_signed, None, |i| {
                match (bit_ext(srcs[0], s0, i), bit_ext(srcs[1], s0, i)) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                }
            }),
            Or => from_bit_fn(dst_w, dst_signed, None, |i| {
                match (bit_ext(srcs[0], s0, i), bit_ext(srcs[1], s0, i)) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                }
            }),
            Xor => from_bit_fn(dst_w, dst_signed, None, |i| {
                match (bit_ext(srcs[0], s0, i), bit_ext(srcs[1], s0, i)) {
                    (Some(a), Some(b)) => Some(a ^ b),
                    _ => None,
                }
            }),
            Andr | Orr | Xorr => {
                let a = srcs[0];
                let bits: Vec<Option<bool>> = (0..a.width).map(|i| a.bit(i)).collect();
                let v = match kind {
                    Andr if bits.contains(&Some(false)) => Some(false),
                    Andr => bits.iter().all(|b| *b == Some(true)).then_some(true),
                    Orr => {
                        let nonzero = a
                            .num_range(a.signed)
                            .is_some_and(|(lo, hi)| lo > 0 || hi < 0);
                        if bits.contains(&Some(true)) || nonzero {
                            Some(true)
                        } else {
                            bits.iter().all(|b| *b == Some(false)).then_some(false)
                        }
                    }
                    _ => bits.iter().try_fold(false, |p, b| b.map(|b| p ^ b)),
                };
                bool_result(dst_w, dst_signed, v)
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
                let range = if lo == 0 && dst_w >= a.width {
                    a.num_range(false)
                } else {
                    None
                };
                from_bit_fn(dst_w, dst_signed, range, |i| bit_ext(a, false, i + lo))
            }
            other => panic!("{other:?} has no word-level form"),
        }
    }

    pub fn cast(v: &AbsVal, dst_w: u32, dst_signed: bool) -> AbsVal {
        let range = v.num_range(v.signed);
        from_bit_fn(dst_w, dst_signed, range, |i| bit_ext(v, v.signed, i))
    }

    fn bit_ext(v: &AbsVal, signed: bool, i: u32) -> Option<bool> {
        if i < v.width {
            v.bit(i)
        } else if v.width == 0 || !signed {
            Some(false)
        } else {
            v.bit(v.width - 1)
        }
    }

    fn trailing_zeros(v: &AbsVal, signed: bool, cap: u32) -> u32 {
        let mut n = 0;
        while n < cap && bit_ext(v, signed, n) == Some(false) {
            n += 1;
        }
        n
    }

    fn shl_checked(x: i128, sh: i128) -> Option<i128> {
        if !(0..=(RANGE_MAX_WIDTH as i128)).contains(&sh) {
            return None;
        }
        x.checked_mul(1i128.checked_shl(sh as u32)?)
    }

    fn sar(x: i128, sh: i128) -> i128 {
        x >> sh.clamp(0, 127) as u32
    }

    fn bin_range(
        a: &AbsVal,
        b: &AbsVal,
        signed: bool,
        f: impl Fn((i128, i128), (i128, i128)) -> Option<(i128, i128)>,
    ) -> Option<(i128, i128)> {
        f(a.num_range(signed)?, b.num_range(signed)?)
    }

    fn from_bit_fn(
        dst_w: u32,
        dst_signed: bool,
        range: Option<(i128, i128)>,
        mut f: impl FnMut(u32) -> Option<bool>,
    ) -> AbsVal {
        let range = range.filter(|&(lo, hi)| {
            dst_w <= RANGE_MAX_WIDTH && {
                let (dlo, dhi) = domain(dst_w, dst_signed);
                lo >= dlo && hi <= dhi
            }
        });
        let mut out = AbsVal {
            width: dst_w,
            signed: dst_signed,
            zeros: Limbs::zeroed(words(dst_w)),
            ones: Limbs::zeroed(words(dst_w)),
            range,
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

    fn bool_result(dst_w: u32, dst_signed: bool, v: Option<bool>) -> AbsVal {
        match v {
            Some(b) => {
                let mut limbs = Limbs::zeroed(words(dst_w));
                limbs[0] = b as u64;
                AbsVal::exact_limbs(&limbs, dst_w, dst_signed)
            }
            None => from_bit_fn(dst_w, dst_signed, None, |i| (i > 0).then_some(false)),
        }
    }

    fn shl_static(sh: u64, dst_w: u32, dst_signed: bool, a: &AbsVal) -> AbsVal {
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

    fn shr_static(sh: u64, dst_w: u32, dst_signed: bool, a: &AbsVal) -> AbsVal {
        let range = a
            .num_range(a.signed)
            .map(|(lo, hi)| (sar(lo, sh.min(127) as i128), sar(hi, sh.min(127) as i128)));
        from_bit_fn(dst_w, dst_signed, range, |i| {
            let pos = (i as u64).saturating_add(sh);
            if pos < a.width as u64 {
                a.bit(pos as u32)
            } else if a.width == 0 || !a.signed {
                Some(false)
            } else {
                a.bit(a.width - 1)
            }
        })
    }
}

/// A random abstract value at any width: ⊤, random known bits at a
/// random density (sometimes every bit, sometimes the sign bit), or a
/// random interval, canonicalized.
fn sample_wide(rng: &mut Rng, width: u32, signed: bool) -> AbsVal {
    let mut v = AbsVal::top(width, signed);
    let n = words(width);
    let limbs = |rng: &mut Rng| -> Vec<u64> { (0..n).map(|_| rng.next()).collect() };
    match rng.below(5) {
        0 => {}
        1..=3 => {
            let pattern = limbs(rng);
            let (x, y) = (limbs(rng), limbs(rng));
            let shape = rng.below(4);
            for k in 0..n {
                let known = match shape {
                    0 => x[k] & y[k],
                    1 => x[k] | y[k],
                    2 => u64::MAX,
                    _ => x[k],
                };
                v.zeros[k] = known & !pattern[k];
                v.ones[k] = known & pattern[k];
            }
            if width > 0 && rng.below(2) == 0 {
                // Pin the sign position, which extension reads.
                let (limb, bit) = (((width - 1) / 64) as usize, (width - 1) % 64);
                v.zeros[limb] &= !(1 << bit);
                v.ones[limb] &= !(1 << bit);
                if rng.below(2) == 0 {
                    v.ones[limb] |= 1 << bit;
                } else {
                    v.zeros[limb] |= 1 << bit;
                }
            }
        }
        _ => {
            if width <= essent_netlist::analysis::absval::RANGE_MAX_WIDTH {
                let mut a = limbs(rng);
                let mut b = limbs(rng);
                essent_bits::kernels::normalize(&mut a, width);
                essent_bits::kernels::normalize(&mut b, width);
                let (x, y) = (value_of(&a, width, signed), value_of(&b, width, signed));
                v.range = Some((x.min(y), x.max(y)));
            }
        }
    }
    v.canonicalize();
    v
}

/// The word-level transfers equal the bit-at-a-time reference on random
/// operands of widths 0–130 (so every limb boundary is crossed), signed
/// and unsigned, for every `Bits`, `Cat` and shift parameter shape.
#[test]
fn word_level_transfers_match_the_bitwise_reference() {
    use OpKind::*;
    let mut rng = Rng(0x5851_f42d_4c95_7f2d);
    let check = |kind: OpKind, params: &[u64], dst_w: u32, dst_signed: bool, srcs: &[&AbsVal]| {
        let word = transfer(kind, params, dst_w, dst_signed, srcs);
        let bit = bitwise::transfer(kind, params, dst_w, dst_signed, srcs);
        assert_eq!(
            word, bit,
            "{kind:?} params={params:?} dst_w={dst_w} dst_signed={dst_signed}\noperands: {srcs:?}"
        );
    };
    for _ in 0..3000 {
        let signed = rng.below(2) == 1;
        let aw = rng.below(131) as u32;
        let bw = rng.below(131) as u32;
        let a = sample_wide(&mut rng, aw, signed);
        let b = sample_wide(&mut rng, bw, signed);
        let ub = sample_wide(&mut rng, bw, false);

        // Copy to any type, and the mux ways it casts.
        let dst_w = rng.below(131) as u32;
        let dst_signed = rng.below(2) == 1;
        check(Copy, &[], dst_w, dst_signed, &[&a]);
        let sel = sample_wide(&mut rng, 1, false);
        check(Mux, &[], aw.max(bw), signed, &[&sel, &a, &b]);

        check(Not, &[], aw, false, &[&a]);
        for kind in [And, Or, Xor] {
            check(kind, &[], aw.max(bw), false, &[&a, &b]);
        }
        for kind in [Andr, Orr, Xorr, Eq, Neq] {
            let srcs: &[&AbsVal] = if matches!(kind, Eq | Neq) {
                &[&a, &b]
            } else {
                &[&a]
            };
            check(kind, &[], 1, false, srcs);
        }
        check(Mul, &[], aw + bw, signed, &[&a, &b]);
        check(Cat, &[], aw + bw, false, &[&a, &ub]);

        // A shift amount of at most three bits keeps `dshl`'s growth small.
        let sw = rng.below(4) as u32;
        let sh = sample_wide(&mut rng, sw, false);
        check(Dshl, &[], aw + (1 << sw) - 1, signed, &[&a, &sh]);

        // Static shifts by amounts on, across and past limb boundaries.
        let amount = [0, 1, 63, 64, 65, 127, 128, 200, rng.below(140)][rng.below(9) as usize];
        check(Shl, &[amount], aw + amount as u32, signed, &[&a]);
        let shr_w = aw.saturating_sub(amount as u32).max(1);
        check(Shr, &[amount], shr_w, signed, &[&a]);

        if aw > 0 {
            let lo = rng.below(u64::from(aw)) as u32;
            let hi = lo + rng.below(u64::from(aw - lo)) as u32;
            check(
                Bits,
                &[u64::from(hi), u64::from(lo)],
                hi - lo + 1,
                false,
                &[&a],
            );
        }
    }
}
