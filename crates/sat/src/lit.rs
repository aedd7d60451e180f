//! Variables, literals, and ternary logic values.

use std::fmt;
use std::ops::Not;

/// A propositional variable, numbered from 0.
///
/// Variables are created through [`crate::Solver::new_var`]; the numbering is
/// dense, which lets the solver index per-variable state by `Var::index`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Creates a variable from a dense 0-based index.
    #[inline]
    pub fn from_index(index: usize) -> Var {
        Var(index as u32)
    }

    /// Returns the dense 0-based index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// Returns the negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0 + 1)
    }
}

/// A literal: a variable together with a polarity.
///
/// Encoded as `2*var + (positive ? 0 : 1)` so that a literal and its negation
/// are adjacent, and so that literals can directly index watch lists.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal over `var` with the given polarity (`true` = positive).
    #[inline]
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit(var.0 << 1 | u32::from(!positive))
    }

    /// Creates a literal from its dense code (as produced by [`Lit::code`]).
    #[inline]
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }

    /// Returns the dense code of this literal, usable as an array index.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Returns the underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if this is the positive literal of its variable.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Parses a DIMACS-style signed integer (non-zero) into a literal.
    ///
    /// `1` is the positive literal of variable 0, `-1` its negation.
    ///
    /// # Panics
    /// Panics if `dimacs == 0`.
    pub fn from_dimacs(dimacs: i64) -> Lit {
        assert!(dimacs != 0, "DIMACS literal must be non-zero");
        let var = Var((dimacs.unsigned_abs() - 1) as u32);
        Lit::new(var, dimacs > 0)
    }

    /// Converts this literal to its DIMACS signed-integer representation.
    pub fn to_dimacs(self) -> i64 {
        let v = i64::from(self.0 >> 1) + 1;
        if self.is_positive() {
            v
        } else {
            -v
        }
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "v{}", self.var().index())
        } else {
            write!(f, "!v{}", self.var().index())
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

/// Ternary truth value used for partial assignments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Unassigned.
    #[default]
    Undef,
}

impl LBool {
    /// Logical negation; `Undef` stays `Undef`.
    #[inline]
    pub fn negate(self) -> LBool {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }

    /// XORs a defined value with a `bool`; `Undef` stays `Undef`.
    #[inline]
    pub fn xor(self, flip: bool) -> LBool {
        if flip {
            self.negate()
        } else {
            self
        }
    }

    /// Returns `true` iff the value is `True`.
    #[inline]
    pub fn is_true(self) -> bool {
        self == LBool::True
    }

    /// Returns `true` iff the value is `False`.
    #[inline]
    pub fn is_false(self) -> bool {
        self == LBool::False
    }

    /// Returns `true` iff the value is unassigned.
    #[inline]
    pub fn is_undef(self) -> bool {
        self == LBool::Undef
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_roundtrip() {
        let v = Var::from_index(7);
        let p = v.positive();
        let n = v.negative();
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_eq!(p.code() ^ 1, n.code());
    }

    #[test]
    fn dimacs_roundtrip() {
        for d in [1i64, -1, 5, -5, 100, -100] {
            assert_eq!(Lit::from_dimacs(d).to_dimacs(), d);
        }
        assert_eq!(Lit::from_dimacs(1).var().index(), 0);
    }

    #[test]
    #[should_panic]
    fn dimacs_zero_panics() {
        let _ = Lit::from_dimacs(0);
    }

    #[test]
    fn lbool_ops() {
        assert_eq!(LBool::True.negate(), LBool::False);
        assert_eq!(LBool::Undef.negate(), LBool::Undef);
        assert_eq!(LBool::True.xor(true), LBool::False);
        assert_eq!(LBool::False.xor(false), LBool::False);
        assert!(LBool::Undef.is_undef());
    }
}
