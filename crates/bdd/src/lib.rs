//! A reduced ordered binary decision diagram (ROBDD) package with complement
//! edges, built for the FMA FPU verification methodology of Jacobi et al.
//! (DATE 2005).
//!
//! Beyond the standard `ite` operation, the package provides the two
//! care-set minimization operators the paper evaluates —
//! [`BddManager::constrain`] (Coudert–Madre generalized cofactor, the
//! paper's overall winner) and [`BddManager::restrict`] — plus node
//! accounting ([`BddStats`]) used to regenerate Table 1, and apply-based
//! reordering ([`sift`], [`BddManager::set_order`]) used by the
//! variable-ordering ablation.
//!
//! # Examples
//!
//! ```
//! use fmaverify_bdd::{Bdd, BddManager};
//!
//! let mut mgr = BddManager::new();
//! let x = mgr.new_var();
//! let y = mgr.new_var();
//! let fx = mgr.var_bdd(x);
//! let fy = mgr.var_bdd(y);
//!
//! // (x AND y) restricted to the care set "x == y" simplifies to x.
//! let f = mgr.and(fx, fy);
//! let care = mgr.xnor(fx, fy);
//! let g = mgr.constrain(f, care);
//! assert_eq!(g, fx);
//! ```

#![warn(missing_docs)]

mod manager;
mod reorder;

pub use manager::{
    Bdd, BddManager, BddStats, BddVar, FastHasher, DEFAULT_CACHE_SIZE, MIN_CACHE_SIZE,
};
pub use reorder::{sift, ReorderResult};
