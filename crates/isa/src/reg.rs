//! Architectural register names for the ReStore ISA.
//!
//! The ISA has 32 integer registers of 64 bits each. Register 31 reads as
//! zero and ignores writes, exactly like the Alpha `r31`. Software-facing
//! aliases follow the Alpha calling convention so the synthetic workloads in
//! [`restore-workloads`](https://example.invalid/restore) read naturally.

use core::fmt;

/// An architectural register index in `0..=31`.
///
/// `Reg` is a validated newtype: constructing one via [`Reg::new`] checks the
/// range, so downstream code (the decoder, the renamer) can index register
/// files without bounds panics.
///
/// # Examples
///
/// ```
/// use restore_isa::Reg;
/// let r = Reg::new(30).unwrap();
/// assert_eq!(r, Reg::SP);
/// assert!(Reg::new(32).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Function return value register (`r0`).
    pub const V0: Reg = Reg(0);
    /// Caller-saved temporaries `t0..t7` (`r1..r8`).
    pub const T0: Reg = Reg(1);
    /// Caller-saved temporary `t1` (`r2`).
    pub const T1: Reg = Reg(2);
    /// Caller-saved temporary `t2` (`r3`).
    pub const T2: Reg = Reg(3);
    /// Caller-saved temporary `t3` (`r4`).
    pub const T3: Reg = Reg(4);
    /// Caller-saved temporary `t4` (`r5`).
    pub const T4: Reg = Reg(5);
    /// Caller-saved temporary `t5` (`r6`).
    pub const T5: Reg = Reg(6);
    /// Caller-saved temporary `t6` (`r7`).
    pub const T6: Reg = Reg(7);
    /// Caller-saved temporary `t7` (`r8`).
    pub const T7: Reg = Reg(8);
    /// Callee-saved registers `s0..s5` (`r9..r14`).
    pub const S0: Reg = Reg(9);
    /// Callee-saved register `s1` (`r10`).
    pub const S1: Reg = Reg(10);
    /// Callee-saved register `s2` (`r11`).
    pub const S2: Reg = Reg(11);
    /// Callee-saved register `s3` (`r12`).
    pub const S3: Reg = Reg(12);
    /// Callee-saved register `s4` (`r13`).
    pub const S4: Reg = Reg(13);
    /// Callee-saved register `s5` (`r14`).
    pub const S5: Reg = Reg(14);
    /// Frame pointer (`r15`).
    pub const FP: Reg = Reg(15);
    /// Argument registers `a0..a5` (`r16..r21`).
    pub const A0: Reg = Reg(16);
    /// Argument register `a1` (`r17`).
    pub const A1: Reg = Reg(17);
    /// Argument register `a2` (`r18`).
    pub const A2: Reg = Reg(18);
    /// Argument register `a3` (`r19`).
    pub const A3: Reg = Reg(19);
    /// Argument register `a4` (`r20`).
    pub const A4: Reg = Reg(20);
    /// Argument register `a5` (`r21`).
    pub const A5: Reg = Reg(21);
    /// More caller-saved temporaries `t8..t11` (`r22..r25`).
    pub const T8: Reg = Reg(22);
    /// Caller-saved temporary `t9` (`r23`).
    pub const T9: Reg = Reg(23);
    /// Caller-saved temporary `t10` (`r24`).
    pub const T10: Reg = Reg(24);
    /// Caller-saved temporary `t11` (`r25`).
    pub const T11: Reg = Reg(25);
    /// Return address register (`r26`).
    pub const RA: Reg = Reg(26);
    /// Procedure value register (`r27`).
    pub const PV: Reg = Reg(27);
    /// Assembler temporary (`r28`).
    pub const AT: Reg = Reg(28);
    /// Global pointer (`r29`).
    pub const GP: Reg = Reg(29);
    /// Stack pointer (`r30`).
    pub const SP: Reg = Reg(30);
    /// Hardwired zero (`r31`): reads as 0, writes are discarded.
    pub const ZERO: Reg = Reg(31);

    /// Creates a register from a raw index, returning `None` if out of range.
    #[inline]
    pub fn new(index: u8) -> Option<Reg> {
        (index < 32).then_some(Reg(index))
    }

    /// Creates a register from the low five bits of `raw`.
    ///
    /// Used by the decoder, where the field is five bits wide by
    /// construction and truncation is the architecturally defined behaviour.
    #[inline]
    pub fn from_field(raw: u32) -> Reg {
        Reg((raw & 0x1f) as u8)
    }

    /// Raw index in `0..=31`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// `true` for the hardwired zero register `r31`.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 31
    }

    /// Iterates over all 32 registers in index order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..32).map(Reg)
    }

    /// Conventional software alias (e.g. `"sp"`, `"t3"`).
    pub fn alias(self) -> &'static str {
        const NAMES: [&str; 32] = [
            "v0", "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "s0", "s1", "s2", "s3", "s4",
            "s5", "fp", "a0", "a1", "a2", "a3", "a4", "a5", "t8", "t9", "t10", "t11", "ra", "pv",
            "at", "gp", "sp", "zero",
        ];
        NAMES[self.index()]
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.alias())
    }
}

impl From<Reg> for usize {
    fn from(r: Reg) -> usize {
        r.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_range() {
        assert_eq!(Reg::new(0), Some(Reg::V0));
        assert_eq!(Reg::new(31), Some(Reg::ZERO));
        assert_eq!(Reg::new(32), None);
        assert_eq!(Reg::new(255), None);
    }

    #[test]
    fn from_field_truncates_to_five_bits() {
        assert_eq!(Reg::from_field(0x20), Reg::V0);
        assert_eq!(Reg::from_field(0x3f), Reg::ZERO);
    }

    #[test]
    fn zero_register_identity() {
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::SP.is_zero());
    }

    #[test]
    fn aliases_are_unique_and_displayed() {
        let mut seen = std::collections::HashSet::new();
        for r in Reg::all() {
            assert!(seen.insert(r.alias()), "duplicate alias {}", r.alias());
        }
        assert_eq!(Reg::SP.to_string(), "sp");
        assert_eq!(Reg::T3.to_string(), "t3");
    }

    #[test]
    fn all_yields_32_in_order() {
        let v: Vec<_> = Reg::all().collect();
        assert_eq!(v.len(), 32);
        assert_eq!(v[0], Reg::V0);
        assert_eq!(v[31], Reg::ZERO);
    }
}
