//! Word-level construction on top of the AIG: the "HDL operators" layer.
//!
//! The paper's reference FPU is deliberately written with high-level VHDL
//! operators such as `+` and `sll` rather than gate-level blocks. This module
//! provides those operators: multi-bit words, adders, subtractors, barrel
//! shifters, comparators, leading-zero counters, and multiplexers, all
//! synthesized down to 2-input AND gates and inverters at construction time.

use crate::aig::{Netlist, Signal};

/// A multi-bit signal bundle, least-significant bit first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Word {
    bits: Vec<Signal>,
}

impl Word {
    /// Wraps a bit vector (LSB first) as a word.
    pub fn from_bits(bits: Vec<Signal>) -> Word {
        Word { bits }
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The bit at position `i` (0 = LSB).
    ///
    /// # Panics
    /// Panics if `i >= width()`.
    pub fn bit(&self, i: usize) -> Signal {
        self.bits[i]
    }

    /// The most significant bit.
    ///
    /// # Panics
    /// Panics if the word is empty.
    pub fn msb(&self) -> Signal {
        *self.bits.last().expect("empty word")
    }

    /// All bits, LSB first.
    pub fn bits(&self) -> &[Signal] {
        &self.bits
    }

    /// The sub-word `[lo, hi)` (bit positions, LSB-based).
    ///
    /// # Panics
    /// Panics if the range is out of bounds or reversed.
    pub fn slice(&self, lo: usize, hi: usize) -> Word {
        assert!(lo <= hi && hi <= self.bits.len(), "bad slice {lo}..{hi}");
        Word {
            bits: self.bits[lo..hi].to_vec(),
        }
    }

    /// Concatenates `self` (low part) with `high`.
    pub fn concat(&self, high: &Word) -> Word {
        let mut bits = self.bits.clone();
        bits.extend_from_slice(&high.bits);
        Word { bits }
    }

    /// Keeps the low `w` bits.
    ///
    /// # Panics
    /// Panics if `w > width()`.
    pub fn truncate(&self, w: usize) -> Word {
        self.slice(0, w)
    }

    /// Reverses bit order (MSB becomes LSB).
    pub fn reversed(&self) -> Word {
        let mut bits = self.bits.clone();
        bits.reverse();
        Word { bits }
    }
}

impl Netlist {
    /// Creates a `width`-bit input word; bits are named `name[i]`.
    pub fn word_input(&mut self, name: &str, width: usize) -> Word {
        Word {
            bits: (0..width)
                .map(|i| self.input(format!("{name}[{i}]")))
                .collect(),
        }
    }

    /// A constant word from the low `width` bits of `value`.
    ///
    /// # Panics
    /// Panics if `value` does not fit in `width` bits.
    pub fn word_const(&mut self, width: usize, value: u128) -> Word {
        assert!(
            width >= 128 || value >> width == 0,
            "constant {value} does not fit in {width} bits"
        );
        Word {
            bits: (0..width)
                .map(|i| {
                    if i < 128 && value >> i & 1 == 1 {
                        Signal::TRUE
                    } else {
                        Signal::FALSE
                    }
                })
                .collect(),
        }
    }

    /// Zero-extends (or keeps) `a` to `width` bits.
    ///
    /// # Panics
    /// Panics if `width < a.width()`.
    pub fn zext(&mut self, a: &Word, width: usize) -> Word {
        assert!(width >= a.width(), "zext cannot shrink");
        let mut bits = a.bits.clone();
        bits.resize(width, Signal::FALSE);
        Word { bits }
    }

    /// Sign-extends `a` to `width` bits.
    ///
    /// # Panics
    /// Panics if `width < a.width()` or `a` is empty.
    pub fn sext(&mut self, a: &Word, width: usize) -> Word {
        assert!(width >= a.width(), "sext cannot shrink");
        let mut bits = a.bits.clone();
        let sign = a.msb();
        bits.resize(width, sign);
        Word { bits }
    }

    /// Bitwise NOT.
    pub fn not_word(&mut self, a: &Word) -> Word {
        Word {
            bits: a.bits.iter().map(|&b| !b).collect(),
        }
    }

    /// Bitwise OR of equal-width words.
    ///
    /// # Panics
    /// Panics on width mismatch (also for `xor_word`).
    pub fn or_word(&mut self, a: &Word, b: &Word) -> Word {
        assert_eq!(a.width(), b.width(), "width mismatch");
        Word {
            bits: a
                .bits
                .iter()
                .zip(&b.bits)
                .map(|(&x, &y)| self.or(x, y))
                .collect(),
        }
    }

    /// Bitwise XOR of equal-width words.
    pub fn xor_word(&mut self, a: &Word, b: &Word) -> Word {
        assert_eq!(a.width(), b.width(), "width mismatch");
        Word {
            bits: a
                .bits
                .iter()
                .zip(&b.bits)
                .map(|(&x, &y)| self.xor(x, y))
                .collect(),
        }
    }

    /// Bitwise multiplexer: `if sel then t else e`.
    pub fn mux_word(&mut self, sel: Signal, t: &Word, e: &Word) -> Word {
        assert_eq!(t.width(), e.width(), "width mismatch");
        Word {
            bits: t
                .bits
                .iter()
                .zip(&e.bits)
                .map(|(&x, &y)| self.mux(sel, x, y))
                .collect(),
        }
    }

    /// Full adder on three bits, returning `(sum, carry)`.
    pub fn full_adder(&mut self, a: Signal, b: Signal, c: Signal) -> (Signal, Signal) {
        let ab = self.xor(a, b);
        let sum = self.xor(ab, c);
        let ab_and = self.and(a, b);
        let abc = self.and(ab, c);
        let carry = self.or(ab_and, abc);
        (sum, carry)
    }

    /// Ripple-carry addition with carry-in; returns `(sum, carry_out)` where
    /// `sum` has the width of the operands.
    pub fn add_carry(&mut self, a: &Word, b: &Word, carry_in: Signal) -> (Word, Signal) {
        assert_eq!(a.width(), b.width(), "width mismatch");
        let mut carry = carry_in;
        let mut bits = Vec::with_capacity(a.width());
        for (&x, &y) in a.bits.iter().zip(&b.bits) {
            let (s, c) = self.full_adder(x, y, carry);
            bits.push(s);
            carry = c;
        }
        (Word { bits }, carry)
    }

    /// Addition, dropping the final carry (modular).
    pub fn add(&mut self, a: &Word, b: &Word) -> Word {
        self.add_carry(a, b, Signal::FALSE).0
    }

    /// Subtraction `a - b` (two's complement); returns `(difference,
    /// no_borrow)` where `no_borrow` is true iff `a >= b` unsigned.
    pub fn sub_borrow(&mut self, a: &Word, b: &Word) -> (Word, Signal) {
        let nb = self.not_word(b);
        self.add_carry(a, &nb, Signal::TRUE)
    }

    /// Subtraction, dropping the borrow.
    pub fn sub(&mut self, a: &Word, b: &Word) -> Word {
        self.sub_borrow(a, b).0
    }

    /// Two's-complement negation.
    pub fn neg(&mut self, a: &Word) -> Word {
        let zero = self.word_const(a.width(), 0);
        self.sub(&zero, a)
    }

    /// Increment by 1 (modular).
    pub fn inc(&mut self, a: &Word) -> Word {
        let one = self.word_const(a.width(), 1);
        self.add(a, &one)
    }

    /// Unsigned schoolbook multiplication; the product has width
    /// `a.width() + b.width()`.
    pub fn mul(&mut self, a: &Word, b: &Word) -> Word {
        let w = a.width() + b.width();
        let mut acc = self.word_const(w, 0);
        for (i, &bi) in b.bits.iter().enumerate() {
            // Partial product: (a & bi) << i, zero-extended to w.
            let mut bits = vec![Signal::FALSE; i];
            for &aj in &a.bits {
                bits.push(self.and(aj, bi));
            }
            bits.resize(w, Signal::FALSE);
            acc = self.add(&acc, &Word { bits });
        }
        acc
    }

    /// Left shift by a constant, keeping the width (bits shifted out are
    /// dropped, zeros shift in).
    pub fn shl_const(&mut self, a: &Word, sh: usize) -> Word {
        let w = a.width();
        let mut bits = vec![Signal::FALSE; sh.min(w)];
        bits.extend_from_slice(&a.bits[..w - sh.min(w)]);
        Word { bits }
    }

    /// Logical right shift by a constant, keeping the width.
    pub fn lshr_const(&mut self, a: &Word, sh: usize) -> Word {
        let w = a.width();
        let mut bits = a.bits[sh.min(w)..].to_vec();
        bits.resize(w, Signal::FALSE);
        Word { bits }
    }

    /// Barrel shifter: left shift by a variable amount. Shift amounts at or
    /// beyond the width produce zero.
    pub fn shl_var(&mut self, a: &Word, amount: &Word) -> Word {
        let w = a.width();
        let mut cur = a.clone();
        for (k, &sbit) in amount.bits.iter().enumerate() {
            // A stage shift at or beyond the width zeroes the word, which
            // shl_const already produces when clamped to w.
            let sh = 1usize.checked_shl(k as u32).map_or(w, |s| s.min(w));
            let shifted = self.shl_const(&cur, sh);
            cur = self.mux_word(sbit, &shifted, &cur);
        }
        cur
    }

    /// Barrel shifter: logical right shift by a variable amount.
    pub fn lshr_var(&mut self, a: &Word, amount: &Word) -> Word {
        let w = a.width();
        let mut cur = a.clone();
        for (k, &sbit) in amount.bits.iter().enumerate() {
            let sh = 1usize.checked_shl(k as u32).map_or(w, |s| s.min(w));
            let shifted = self.lshr_const(&cur, sh);
            cur = self.mux_word(sbit, &shifted, &cur);
        }
        cur
    }

    /// Equality of two equal-width words.
    pub fn eq_word(&mut self, a: &Word, b: &Word) -> Signal {
        assert_eq!(a.width(), b.width(), "width mismatch");
        let mut acc = Signal::TRUE;
        for (&x, &y) in a.bits.iter().zip(&b.bits) {
            let e = self.xnor(x, y);
            acc = self.and(acc, e);
        }
        acc
    }

    /// Equality with a constant.
    pub fn eq_const(&mut self, a: &Word, value: u128) -> Signal {
        let c = self.word_const(a.width(), value);
        self.eq_word(a, &c)
    }

    /// Unsigned less-than.
    pub fn ult(&mut self, a: &Word, b: &Word) -> Signal {
        let (_, no_borrow) = self.sub_borrow(a, b);
        !no_borrow
    }

    /// Unsigned less-or-equal.
    pub fn ule(&mut self, a: &Word, b: &Word) -> Signal {
        let lt = self.ult(b, a);
        !lt
    }

    /// Signed less-than (two's complement).
    pub fn slt(&mut self, a: &Word, b: &Word) -> Signal {
        assert_eq!(a.width(), b.width(), "width mismatch");
        // a < b  <=>  (a - b) overflow-adjusted sign.
        let (diff, _) = self.sub_borrow(a, b);
        let sa = a.msb();
        let sb = b.msb();
        let sd = diff.msb();
        // If signs differ, a < b iff a is negative; else look at diff sign.
        let signs_differ = self.xor(sa, sb);
        self.mux(signs_differ, sa, sd)
    }

    /// Signed less-or-equal.
    pub fn sle(&mut self, a: &Word, b: &Word) -> Signal {
        let lt = self.slt(b, a);
        !lt
    }

    /// OR of all bits.
    pub fn or_reduce(&mut self, a: &Word) -> Signal {
        let mut acc = Signal::FALSE;
        for &b in &a.bits {
            acc = self.or(acc, b);
        }
        acc
    }

    /// AND of all bits.
    pub fn and_reduce(&mut self, a: &Word) -> Signal {
        let mut acc = Signal::TRUE;
        for &b in &a.bits {
            acc = self.and(acc, b);
        }
        acc
    }

    /// Returns `true` iff the word is zero.
    pub fn is_zero(&mut self, a: &Word) -> Signal {
        let r = self.or_reduce(a);
        !r
    }

    /// Counts leading zeros (from the MSB). The result is a word wide enough
    /// to hold `a.width()` (the all-zero count).
    pub fn count_leading_zeros(&mut self, a: &Word) -> Word {
        let w = a.width();
        let out_w = usize::BITS as usize - (w + 1).leading_zeros() as usize;
        let mut result = self.word_const(out_w.max(1), w as u128);
        // From LSB to MSB: a set bit at position i means clz = w-1-i; later
        // (more significant) updates win, so the final value reflects the
        // most significant set bit.
        for i in 0..w {
            let val = self.word_const(out_w.max(1), (w - 1 - i) as u128);
            result = self.mux_word(a.bit(i), &val, &result);
        }
        result
    }

    /// Decodes a binary word into a one-hot vector of `1 << a.width()` bits.
    pub fn decode_one_hot(&mut self, a: &Word) -> Word {
        let n = 1usize << a.width();
        let mut bits = Vec::with_capacity(n);
        for v in 0..n {
            let mut acc = Signal::TRUE;
            for (k, &bk) in a.bits.iter().enumerate() {
                let want = v >> k & 1 == 1;
                let lit = if want { bk } else { !bk };
                acc = self.and(acc, lit);
            }
            bits.push(acc);
        }
        Word { bits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Evaluates a netlist whose inputs are the word inputs named in `vals`.
    fn eval(n: &Netlist, vals: &[(&str, u128, usize)]) -> HashMap<String, bool> {
        let mut inputs: Vec<(String, bool)> = Vec::new();
        for (name, v, w) in vals {
            for i in 0..*w {
                inputs.push((format!("{name}[{i}]"), v >> i & 1 == 1));
            }
        }
        let refs: Vec<(&str, bool)> = inputs.iter().map(|(s, b)| (s.as_str(), *b)).collect();
        n.eval_comb(&refs)
    }

    fn out_word(outs: &HashMap<String, bool>, name: &str, w: usize) -> u128 {
        (0..w)
            .map(|i| u128::from(outs[&format!("{name}[{i}]")]) << i)
            .sum()
    }

    fn output_word(n: &mut Netlist, name: &str, word: &Word) {
        for (i, &b) in word.bits().iter().enumerate() {
            n.output(format!("{name}[{i}]"), b);
        }
    }

    #[test]
    fn add_sub_values() {
        let mut n = Netlist::new();
        let a = n.word_input("a", 8);
        let b = n.word_input("b", 8);
        let sum = n.add(&a, &b);
        let (diff, no_borrow) = n.sub_borrow(&a, &b);
        output_word(&mut n, "sum", &sum);
        output_word(&mut n, "diff", &diff);
        n.output("nb", no_borrow);
        for (va, vb) in [
            (0u128, 0u128),
            (1, 1),
            (200, 100),
            (100, 200),
            (255, 255),
            (37, 199),
        ] {
            let outs = eval(&n, &[("a", va, 8), ("b", vb, 8)]);
            assert_eq!(out_word(&outs, "sum", 8), (va + vb) & 0xff);
            assert_eq!(out_word(&outs, "diff", 8), va.wrapping_sub(vb) & 0xff);
            assert_eq!(outs["nb"], va >= vb);
        }
    }

    #[test]
    fn mul_values() {
        let mut n = Netlist::new();
        let a = n.word_input("a", 6);
        let b = n.word_input("b", 6);
        let p = n.mul(&a, &b);
        assert_eq!(p.width(), 12);
        output_word(&mut n, "p", &p);
        for (va, vb) in [(0u128, 5u128), (63, 63), (17, 33), (42, 1), (9, 7)] {
            let outs = eval(&n, &[("a", va, 6), ("b", vb, 6)]);
            assert_eq!(out_word(&outs, "p", 12), va * vb);
        }
    }

    #[test]
    fn shifts() {
        let mut n = Netlist::new();
        let a = n.word_input("a", 16);
        let sh = n.word_input("sh", 5);
        let left = n.shl_var(&a, &sh);
        let right = n.lshr_var(&a, &sh);
        let lc = n.shl_const(&a, 3);
        let rc = n.lshr_const(&a, 3);
        output_word(&mut n, "left", &left);
        output_word(&mut n, "right", &right);
        output_word(&mut n, "lc", &lc);
        output_word(&mut n, "rc", &rc);
        for (va, vsh) in [
            (0xabcdu128, 0u128),
            (0xabcd, 4),
            (0xffff, 15),
            (0x8001, 16),
            (1, 31),
        ] {
            let outs = eval(&n, &[("a", va, 16), ("sh", vsh, 5)]);
            let shifted_l = if vsh >= 16 { 0 } else { (va << vsh) & 0xffff };
            let shifted_r = if vsh >= 16 { 0 } else { va >> vsh };
            assert_eq!(
                out_word(&outs, "left", 16),
                shifted_l,
                "shl {va:x} by {vsh}"
            );
            assert_eq!(
                out_word(&outs, "right", 16),
                shifted_r,
                "lshr {va:x} by {vsh}"
            );
            assert_eq!(out_word(&outs, "lc", 16), (va << 3) & 0xffff);
            assert_eq!(out_word(&outs, "rc", 16), va >> 3);
        }
    }

    #[test]
    fn comparisons() {
        let mut n = Netlist::new();
        let a = n.word_input("a", 6);
        let b = n.word_input("b", 6);
        let eq = n.eq_word(&a, &b);
        let lt = n.ult(&a, &b);
        let le = n.ule(&a, &b);
        let slt = n.slt(&a, &b);
        n.output("eq", eq);
        n.output("lt", lt);
        n.output("le", le);
        n.output("slt", slt);
        for va in 0u128..64 {
            for vb in [0u128, 1, 31, 32, 33, 63] {
                let outs = eval(&n, &[("a", va, 6), ("b", vb, 6)]);
                assert_eq!(outs["eq"], va == vb);
                assert_eq!(outs["lt"], va < vb);
                assert_eq!(outs["le"], va <= vb);
                let sa = if va >= 32 {
                    va as i128 - 64
                } else {
                    va as i128
                };
                let sb = if vb >= 32 {
                    vb as i128 - 64
                } else {
                    vb as i128
                };
                assert_eq!(outs["slt"], sa < sb, "slt {sa} {sb}");
            }
        }
    }

    #[test]
    fn clz_values() {
        let mut n = Netlist::new();
        let a = n.word_input("a", 10);
        let clz = n.count_leading_zeros(&a);
        output_word(&mut n, "clz", &clz);
        let w = clz.width();
        for va in [0u128, 1, 2, 3, 512, 513, 0x3ff, 0x100, 0x0ff] {
            let outs = eval(&n, &[("a", va, 10)]);
            let expect = if va == 0 {
                10
            } else {
                10 - (128 - va.leading_zeros() as u128)
            };
            assert_eq!(out_word(&outs, "clz", w), expect, "clz of {va:#x}");
        }
    }

    #[test]
    fn reductions_and_mux() {
        let mut n = Netlist::new();
        let a = n.word_input("a", 4);
        let b = n.word_input("b", 4);
        let s = n.input("s");
        let orr = n.or_reduce(&a);
        let andr = n.and_reduce(&a);
        let z = n.is_zero(&a);
        let m = n.mux_word(s, &a, &b);
        n.output("orr", orr);
        n.output("andr", andr);
        n.output("z", z);
        output_word(&mut n, "m", &m);
        for va in 0u128..16 {
            for vb in [0u128, 9, 15] {
                for vs in [false, true] {
                    let mut ins: Vec<(String, bool)> = Vec::new();
                    for i in 0..4 {
                        ins.push((format!("a[{i}]"), va >> i & 1 == 1));
                        ins.push((format!("b[{i}]"), vb >> i & 1 == 1));
                    }
                    ins.push(("s".into(), vs));
                    let refs: Vec<(&str, bool)> =
                        ins.iter().map(|(s, b)| (s.as_str(), *b)).collect();
                    let outs = n.eval_comb(&refs);
                    assert_eq!(outs["orr"], va != 0);
                    assert_eq!(outs["andr"], va == 15);
                    assert_eq!(outs["z"], va == 0);
                    assert_eq!(out_word(&outs, "m", 4), if vs { va } else { vb });
                }
            }
        }
    }

    #[test]
    fn neg_inc_const() {
        let mut n = Netlist::new();
        let a = n.word_input("a", 8);
        let neg = n.neg(&a);
        let inc = n.inc(&a);
        output_word(&mut n, "neg", &neg);
        output_word(&mut n, "inc", &inc);
        for va in [0u128, 1, 127, 128, 255] {
            let outs = eval(&n, &[("a", va, 8)]);
            assert_eq!(out_word(&outs, "neg", 8), va.wrapping_neg() & 0xff);
            assert_eq!(out_word(&outs, "inc", 8), (va + 1) & 0xff);
        }
    }

    #[test]
    fn decode_one_hot_values() {
        let mut n = Netlist::new();
        let a = n.word_input("a", 3);
        let oh = n.decode_one_hot(&a);
        assert_eq!(oh.width(), 8);
        output_word(&mut n, "oh", &oh);
        for va in 0u128..8 {
            let outs = eval(&n, &[("a", va, 3)]);
            assert_eq!(out_word(&outs, "oh", 8), 1 << va);
        }
    }

    #[test]
    fn slicing() {
        let mut n = Netlist::new();
        let a = n.word_input("a", 8);
        let hi = a.slice(4, 8);
        let lo = a.slice(0, 4);
        let re = lo.concat(&hi);
        assert_eq!(re.width(), 8);
        let rev = a.reversed();
        output_word(&mut n, "re", &re);
        output_word(&mut n, "rev", &rev);
        let outs = eval(&n, &[("a", 0b1010_0110, 8)]);
        assert_eq!(out_word(&outs, "re", 8), 0b1010_0110);
        assert_eq!(out_word(&outs, "rev", 8), 0b0110_0101);
    }

    #[test]
    fn sext_zext() {
        let mut n = Netlist::new();
        let a = n.word_input("a", 4);
        let z = n.zext(&a, 8);
        let s = n.sext(&a, 8);
        output_word(&mut n, "z", &z);
        output_word(&mut n, "s", &s);
        for va in 0u128..16 {
            let outs = eval(&n, &[("a", va, 4)]);
            assert_eq!(out_word(&outs, "z", 8), va);
            let expect = if va >= 8 { va | 0xf0 } else { va };
            assert_eq!(out_word(&outs, "s", 8), expect);
        }
    }
}
