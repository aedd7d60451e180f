//! Variable-reordering heuristics.
//!
//! The paper's methodology relies on *static* orders derived from the operand
//! structure and disables dynamic reordering ("it unnecessarily consumes
//! run-time without yielding a superior order"). To reproduce that comparison
//! (experiment S5d), this module provides a greedy sifting-style driver built
//! on [`BddManager::set_order`], which rebuilds the roots under candidate
//! orders and keeps improvements.

use crate::manager::{Bdd, BddManager, BddVar};

/// Outcome of a reordering pass.
#[derive(Clone, Debug)]
pub struct ReorderResult {
    /// The remapped roots (all other handles are invalidated).
    pub roots: Vec<Bdd>,
    /// Reachable node count before the pass.
    pub nodes_before: usize,
    /// Reachable node count after the pass.
    pub nodes_after: usize,
    /// Number of candidate orders actually evaluated (rebuilt and counted).
    /// Candidates whose trial order equals the current order are skipped and
    /// not counted, and neither is the final settling rebuild — this counts
    /// evaluations, not `set_order` calls.
    pub orders_tried: usize,
}

/// Greedy sifting: variables are processed in decreasing order of the number
/// of nodes labelled with them; each is tried at a set of candidate levels
/// (top, bottom, and halving positions) and left at the best one.
///
/// This is an apply-based (rebuilding) variant of Rudell sifting: it explores
/// fewer positions per variable than classical in-place sifting but is sound
/// by construction. `max_vars` bounds how many variables are sifted (pass
/// `usize::MAX` for all).
pub fn sift(mgr: &mut BddManager, roots: &[Bdd], max_vars: usize) -> ReorderResult {
    let nodes_before = mgr.reachable_count(roots);
    let mut roots: Vec<Bdd> = roots.to_vec();
    let mut best_count = nodes_before;
    let mut orders_tried = 0usize;

    // Rank variables by how many reachable nodes are labelled with them.
    let occupancy = var_occupancy(mgr, &roots);
    let mut ranked: Vec<BddVar> = (0..mgr.num_vars()).map(BddVar::from_index).collect();
    ranked.sort_by_key(|v| std::cmp::Reverse(occupancy[v.index()]));
    ranked.truncate(max_vars);

    let n = mgr.num_vars();
    // Scratch buffers reused across every candidate evaluation, so trying an
    // order costs no allocation beyond the rebuild itself.
    let mut candidates: Vec<usize> = Vec::with_capacity(7);
    let mut trial_order: Vec<BddVar> = Vec::with_capacity(n);
    for v in ranked {
        let current_level = mgr.level_of(v);
        candidates.clear();
        candidates.extend_from_slice(&[0, n / 4, n / 2, 3 * n / 4, n.saturating_sub(1)]);
        candidates.push(current_level.saturating_sub(2));
        candidates.push((current_level + 2).min(n - 1));
        candidates.sort_unstable();
        candidates.dedup();
        let mut best_level = current_level;
        for &cand in &candidates {
            order_with_var_at(mgr, v, cand, &mut trial_order);
            // Skip any candidate whose trial order is the order we already
            // hold (not just the literal `cand == level_of(v)` case): the
            // rebuild would be a no-op evaluation.
            if order_is_current(mgr, &trial_order) {
                continue;
            }
            let trial_roots = mgr.set_order(&trial_order, &roots);
            orders_tried += 1;
            let count = mgr.reachable_count(&trial_roots);
            roots = trial_roots;
            if count < best_count {
                best_count = count;
                best_level = cand;
            }
        }
        // Settle the variable at its best level (a re-application of an
        // already-evaluated order, so it does not count as a new trial).
        if mgr.level_of(v) != best_level {
            order_with_var_at(mgr, v, best_level, &mut trial_order);
            if !order_is_current(mgr, &trial_order) {
                roots = mgr.set_order(&trial_order, &roots);
            }
        }
    }
    let nodes_after = mgr.reachable_count(&roots);
    ReorderResult {
        roots,
        nodes_before,
        nodes_after,
        orders_tried,
    }
}

/// Cheap occupancy proxy: how many roots each variable appears in.
fn var_occupancy(mgr: &BddManager, roots: &[Bdd]) -> Vec<usize> {
    let mut counts = vec![0usize; mgr.num_vars()];
    for r in roots {
        for v in mgr.support(*r) {
            counts[v.index()] += 1;
        }
    }
    counts
}

/// Builds the current order with `v` moved to `target_level`, into the
/// caller's scratch buffer.
fn order_with_var_at(mgr: &BddManager, v: BddVar, target_level: usize, out: &mut Vec<BddVar>) {
    out.clear();
    out.extend(
        (0..mgr.num_vars())
            .map(|l| mgr.var_at_level(l))
            .filter(|&x| x != v),
    );
    let pos = target_level.min(out.len());
    out.insert(pos, v);
}

/// Returns `true` when `order` equals the manager's current order (without
/// allocating).
fn order_is_current(mgr: &BddManager, order: &[BddVar]) -> bool {
    order.iter().enumerate().all(|(l, v)| mgr.level_of(*v) == l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sift_improves_blocked_equality() {
        // Equality with blocked order is exponential; sifting should shrink it
        // substantially while preserving the function.
        let n = 6;
        let mut m = BddManager::new();
        let vars = m.new_vars(2 * n);
        let mut eq = Bdd::TRUE;
        for i in 0..n {
            let a = m.var_bdd(vars[i]);
            let b = m.var_bdd(vars[n + i]);
            let bit_eq = m.xnor(a, b);
            eq = m.and(eq, bit_eq);
        }
        let result = sift(&mut m, &[eq], usize::MAX);
        assert!(result.nodes_after <= result.nodes_before);
        // The function is preserved.
        let root = result.roots[0];
        for bits in 0..(1u32 << (2 * n)) {
            let a: Vec<bool> = (0..2 * n).map(|i| bits >> i & 1 == 1).collect();
            let expect = (0..n).all(|i| a[i] == a[n + i]);
            assert_eq!(m.eval(root, &a), expect);
        }
    }

    #[test]
    fn sift_noop_on_constant() {
        let mut m = BddManager::new();
        m.new_vars(4);
        let result = sift(&mut m, &[Bdd::TRUE], usize::MAX);
        assert_eq!(result.roots[0], Bdd::TRUE);
    }
}
