//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! The design follows the MiniSat lineage: two-watched-literal propagation,
//! first-UIP conflict analysis with clause minimization, VSIDS variable
//! activities with phase saving, Luby restarts, and activity/LBD-driven
//! deletion of learnt clauses. This is the workhorse engine the paper uses for
//! the far-out cases, the multiply instruction, the multiplier-isolation
//! soundness obligations, and SAT sweeping.
//!
//! Every clause lives inline in one flat `u32` arena (see [`ClauseArena`]),
//! so a watcher visit touches one contiguous block, and the value of a
//! literal is one load from a per-literal table. Deleted clauses are only
//! marked; one sweep over the watch lists drops their watchers, and the
//! arena is compacted in place once more than half of it is garbage.

use crate::lit::{LBool, Lit, Var};

/// Offset of a clause's header in the [`ClauseArena`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ClauseRef(u32);

impl ClauseRef {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Every clause in one `Vec<u32>`. A clause at offset `c` is laid out as:
///
/// | words | content |
/// |---|---|
/// | `c` | `len << 2 \| DELETED \| LEARNT` |
/// | `c + 1` | forwarding offset, written only while compacting |
/// | `c + 2 ..` | the `len` literal codes |
/// | learnt only, after the literals | LBD, then the `f64` activity as two words |
///
/// The literals always start at `c + 2`, so propagation never branches on
/// the clause kind. Problem clauses carry no activity or LBD: neither is
/// ever read for them.
#[derive(Debug, Default)]
struct ClauseArena {
    words: Vec<u32>,
    /// Words occupied by deleted clauses, reclaimed by [`Solver::compact`].
    wasted: usize,
}

const LEARNT: u32 = 1;
const DELETED: u32 = 2;
/// Words before the literals.
const HEADER: usize = 2;
/// Learnt-only words after the literals: LBD and activity.
const LEARNT_EXTRA: usize = 3;

impl ClauseArena {
    fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        let c = ClauseRef(u32::try_from(self.words.len()).expect("clause arena exceeds 4G words"));
        assert!(lits.len() < 1 << 30, "clause too long");
        let flags = if learnt { LEARNT } else { 0 };
        self.words.extend([((lits.len() as u32) << 2) | flags, 0]);
        self.words.extend(lits.iter().map(|l| l.code() as u32));
        if learnt {
            // The LBD, then activity 0.0 (all-zero bits).
            self.words.extend([lbd, 0, 0]);
        }
        c
    }

    #[inline]
    fn len(&self, c: ClauseRef) -> usize {
        (self.words[c.index()] >> 2) as usize
    }

    #[inline]
    fn is_learnt(&self, c: ClauseRef) -> bool {
        self.words[c.index()] & LEARNT != 0
    }

    #[inline]
    fn is_deleted(&self, c: ClauseRef) -> bool {
        self.words[c.index()] & DELETED != 0
    }

    /// Total words the clause occupies, header and extras included.
    fn size(&self, c: ClauseRef) -> usize {
        let extra = if self.is_learnt(c) { LEARNT_EXTRA } else { 0 };
        HEADER + self.len(c) + extra
    }

    fn delete(&mut self, c: ClauseRef) {
        debug_assert!(!self.is_deleted(c));
        self.words[c.index()] |= DELETED;
        self.wasted += self.size(c);
    }

    #[inline]
    fn lit(&self, c: ClauseRef, k: usize) -> Lit {
        Lit::from_code(self.words[c.index() + HEADER + k] as usize)
    }

    /// The literal codes of a clause.
    #[inline]
    fn lits_mut(&mut self, c: ClauseRef) -> &mut [u32] {
        let start = c.index() + HEADER;
        let len = self.len(c);
        &mut self.words[start..start + len]
    }

    fn extra(&self, c: ClauseRef) -> usize {
        debug_assert!(self.is_learnt(c));
        c.index() + HEADER + self.len(c)
    }

    fn lbd(&self, c: ClauseRef) -> u32 {
        self.words[self.extra(c)]
    }

    fn activity(&self, c: ClauseRef) -> f64 {
        let x = self.extra(c);
        f64::from_bits(u64::from(self.words[x + 1]) | (u64::from(self.words[x + 2]) << 32))
    }

    fn set_activity(&mut self, c: ClauseRef, a: f64) {
        let x = self.extra(c);
        let bits = a.to_bits();
        self.words[x + 1] = bits as u32;
        self.words[x + 2] = (bits >> 32) as u32;
    }

    /// Offsets of every clause, live or deleted, in arena order.
    #[cfg(test)]
    fn refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut c = 0;
        std::iter::from_fn(move || {
            (c < self.words.len()).then(|| {
                let r = ClauseRef(c as u32);
                c += self.size(r);
                r
            })
        })
    }
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause is satisfied and the watcher need not be inspected.
    blocker: Lit,
}

/// Result of a satisfiability query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a decision was reached.
    Unknown,
}

/// Aggregate solver statistics, useful for experiment reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Number of problem (original) clauses added.
    pub original_clauses: u64,
}

/// Max-heap of variables ordered by VSIDS activity.
#[derive(Debug, Default)]
struct VarOrderHeap {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or `usize::MAX` if absent.
    indices: Vec<usize>,
}

impl VarOrderHeap {
    fn ensure_var(&mut self, v: Var) {
        if self.indices.len() <= v.index() {
            self.indices.resize(v.index() + 1, usize::MAX);
        }
    }

    fn contains(&self, v: Var) -> bool {
        self.indices
            .get(v.index())
            .is_some_and(|&i| i != usize::MAX)
    }

    fn insert(&mut self, v: Var, activity: &[f64]) {
        self.ensure_var(v);
        if self.contains(v) {
            return;
        }
        self.indices[v.index()] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.indices[top.index()] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.indices[last.index()] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn bumped(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            let i = self.indices[v.index()];
            self.sift_up(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i].index()] > activity[self.heap[parent].index()] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && activity[self.heap[l].index()] > activity[self.heap[best].index()]
            {
                best = l;
            }
            if r < self.heap.len()
                && activity[self.heap[r].index()] > activity[self.heap[best].index()]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.indices[self.heap[a].index()] = a;
        self.indices[self.heap[b].index()] = b;
    }
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use fmaverify_sat::{Solver, SolveResult};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var().positive();
/// let b = solver.new_var().positive();
/// solver.add_clause(&[a, b]);
/// solver.add_clause(&[!a]);
/// assert_eq!(solver.solve(), SolveResult::Sat);
/// assert!(solver.model_value(b.var()).is_true());
/// ```
#[derive(Debug, Default)]
pub struct Solver {
    ca: ClauseArena,
    /// Watchers of the clauses that become unit or false when the indexing
    /// literal becomes true (that is, clauses watching its negation).
    watches: Vec<Vec<Watcher>>,
    /// Current value of every literal, indexed by [`Lit::code`].
    values: Vec<LBool>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarOrderHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    qhead: usize,
    ok: bool,
    seen: Vec<bool>,
    analyze_stack: Vec<Lit>,
    analyze_toclear: Vec<Lit>,
    /// Scratch buffer for the clause being learnt.
    learnt: Vec<Lit>,
    /// `lbd_stamp[level] == lbd_gen` marks a level already counted by the
    /// current [`Solver::compute_lbd`] call.
    lbd_stamp: Vec<u64>,
    lbd_gen: u64,
    learnt_refs: Vec<ClauseRef>,
    max_learnts: f64,
    conflict_budget: Option<u64>,
    stats: SolverStats,
    conflict_assumptions: Vec<Lit>,
    model: Vec<LBool>,
    #[cfg(test)]
    reductions: u64,
    #[cfg(test)]
    compactions: u64,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            ok: true,
            var_inc: 1.0,
            cla_inc: 1.0,
            max_learnts: 0.0,
            ..Solver::default()
        }
    }

    /// Returns the number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Returns aggregate statistics for this solver.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Limits the next [`Solver::solve`] call to at most `conflicts`
    /// conflicts; the call returns [`SolveResult::Unknown`] when exhausted.
    /// Pass `None` to remove the limit.
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.conflict_budget = conflicts;
    }

    /// Randomizes the saved decision phases from a seed (a cheap xorshift).
    /// Successive satisfiable solves then tend to produce *different*
    /// models, which the semi-formal stimulus generator exploits.
    pub fn randomize_polarities(&mut self, seed: u64) {
        let mut x = seed | 1;
        for p in &mut self.polarity {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *p = x & 1 == 1;
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars());
        self.values.push(LBool::Undef);
        self.values.push(LBool::Undef);
        self.polarity.push(false);
        self.activity.push(0.0);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v, &self.activity);
        v
    }

    /// Current value of a literal under the partial assignment.
    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.values[l.code()]
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Returns `false` if the solver detected unsatisfiability at the root
    /// level while adding the clause; the solver is then permanently
    /// unsatisfiable.
    ///
    /// # Panics
    /// Panics if called between `solve` invocations while decisions are still
    /// on the trail (the solver always backtracks fully, so this cannot occur
    /// through the public API) or if a literal's variable was not created by
    /// this solver.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(
            self.trail_lim.is_empty(),
            "clauses must be added at level 0"
        );
        if !self.ok {
            return false;
        }
        // Sort, dedup, and discard tautologies / falsified literals.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        let mut out = Vec::with_capacity(ls.len());
        let mut i = 0;
        while i < ls.len() {
            let l = ls[i];
            assert!(l.var().index() < self.num_vars(), "unknown variable {l:?}");
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => out.push(l),
            }
            i += 1;
        }
        self.stats.original_clauses += 1;
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(out[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_new_clause(&out, false, 0);
                true
            }
        }
    }

    fn attach_new_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let (w0, w1) = (lits[0], lits[1]);
        let cref = self.ca.alloc(lits, learnt, lbd);
        self.watches[(!w0).code()].push(Watcher { cref, blocker: w1 });
        self.watches[(!w1).code()].push(Watcher { cref, blocker: w0 });
        if learnt {
            self.learnt_refs.push(cref);
            self.stats.learnt_clauses = self.learnt_refs.len() as u64;
        }
        cref
    }

    #[inline]
    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert!(self.lit_value(l).is_undef());
        let vi = l.var().index();
        self.values[l.code()] = LBool::True;
        self.values[(!l).code()] = LBool::False;
        self.level[vi] = self.trail_lim.len() as u32;
        self.reason[vi] = reason;
        self.trail.push(l);
    }

    /// Runs unit propagation; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        // Borrow the fields apart so the hot loop keeps them in registers.
        let Solver {
            ca,
            watches,
            values,
            trail,
            trail_lim,
            reason,
            level,
            qhead,
            stats,
            ..
        } = self;
        let decision_level = trail_lim.len() as u32;
        while *qhead < trail.len() {
            let p = trail[*qhead];
            *qhead += 1;
            stats.propagations += 1;
            let false_lit = (!p).code() as u32;
            let mut ws = std::mem::take(&mut watches[p.code()]);
            let mut keep = 0;
            let mut wi = 0;
            'watchers: while wi < ws.len() {
                let w = ws[wi];
                wi += 1;
                if values[w.blocker.code()].is_true() {
                    ws[keep] = w;
                    keep += 1;
                    continue;
                }
                let cref = w.cref;
                debug_assert!(!ca.is_deleted(cref));
                // Inspect the clause; make sure the false literal is lits[1].
                let lits = ca.lits_mut(cref);
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = Lit::from_code(lits[0] as usize);
                let watcher = Watcher {
                    cref,
                    blocker: first,
                };
                if first != w.blocker && values[first.code()].is_true() {
                    ws[keep] = watcher;
                    keep += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let lk = Lit::from_code(lits[k] as usize);
                    if !values[lk.code()].is_false() {
                        lits.swap(1, k);
                        watches[(!lk).code()].push(watcher);
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[keep] = watcher;
                keep += 1;
                if values[first.code()].is_false() {
                    // Conflict: copy remaining watchers back and stop.
                    ws.copy_within(wi.., keep);
                    keep += ws.len() - wi;
                    ws.truncate(keep);
                    watches[p.code()] = ws;
                    *qhead = trail.len();
                    return Some(cref);
                }
                // Unit: enqueue `first` with this clause as its reason.
                debug_assert!(values[first.code()].is_undef());
                values[first.code()] = LBool::True;
                values[(!first).code()] = LBool::False;
                level[first.var().index()] = decision_level;
                reason[first.var().index()] = Some(cref);
                trail.push(first);
            }
            ws.truncate(keep);
            watches[p.code()] = ws;
        }
        None
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let vi = l.var().index();
            self.values[l.code()] = LBool::Undef;
            self.values[(!l).code()] = LBool::Undef;
            self.polarity[vi] = l.is_positive();
            self.reason[vi] = None;
            self.order.insert(l.var(), &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    fn var_decay(&mut self) {
        self.var_inc /= 0.95;
    }

    /// Bumps a learnt clause's activity, rescaling every learnt activity
    /// (and `cla_inc`) when it passes 1e20. Problem clauses have no activity:
    /// bumping them would let a never-rescaled clause trigger a rescale on
    /// every bump and drive `cla_inc` to zero.
    fn clause_bump(&mut self, cref: ClauseRef) {
        if !self.ca.is_learnt(cref) {
            return;
        }
        let a = self.ca.activity(cref) + self.cla_inc;
        self.ca.set_activity(cref, a);
        if a > 1e20 {
            for &r in &self.learnt_refs {
                let a = self.ca.activity(r);
                self.ca.set_activity(r, a * 1e-20);
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn clause_decay(&mut self) {
        self.cla_inc /= 0.999;
    }

    /// First-UIP conflict analysis. Leaves the learnt clause (asserting
    /// literal first) in `self.learnt` and returns the backtrack level.
    fn analyze(&mut self, conflict: ClauseRef) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::from_code(0)); // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = conflict;
        let mut index = self.trail.len();

        loop {
            self.clause_bump(cref);
            let start = usize::from(p.is_some());
            for k in start..self.ca.len(cref) {
                let q = self.ca.lit(cref, k);
                let vi = q.var().index();
                if !self.seen[vi] && self.level[vi] > 0 {
                    self.seen[vi] = true;
                    self.var_bump(q.var());
                    if self.level[vi] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let l = self.trail[index];
            p = Some(l);
            self.seen[l.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            cref = self.reason[l.var().index()].expect("implied literal has a reason");
        }
        learnt[0] = !p.expect("UIP literal");

        // Conflict-clause minimization: drop literals implied by the rest.
        self.analyze_toclear.clear();
        self.analyze_toclear.extend_from_slice(&learnt);
        for l in &self.analyze_toclear {
            self.seen[l.var().index()] = true;
        }
        let mut kept = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if !self.lit_redundant(l) {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        for l in &self.analyze_toclear {
            self.seen[l.var().index()] = false;
        }
        self.analyze_toclear.clear();
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }

        // Find the backtrack level: the max level among non-UIP literals.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        self.learnt = learnt;
        bt_level
    }

    /// Checks whether `l` is redundant in the learnt clause: every literal in
    /// its reason chain is already in the clause (seen) or at level 0.
    fn lit_redundant(&mut self, l: Lit) -> bool {
        let Some(_) = self.reason[l.var().index()] else {
            return false;
        };
        self.analyze_stack.clear();
        self.analyze_stack.push(l);
        let top = self.analyze_toclear.len();
        while let Some(q) = self.analyze_stack.pop() {
            let Some(r) = self.reason[q.var().index()] else {
                // Decision encountered: `l` is not redundant. Undo marks.
                for lit in self.analyze_toclear.drain(top..) {
                    self.seen[lit.var().index()] = false;
                }
                return false;
            };
            for k in 1..self.ca.len(r) {
                let x = self.ca.lit(r, k);
                let vi = x.var().index();
                if !self.seen[vi] && self.level[vi] > 0 {
                    if self.reason[vi].is_none() {
                        for lit in self.analyze_toclear.drain(top..) {
                            self.seen[lit.var().index()] = false;
                        }
                        return false;
                    }
                    self.seen[vi] = true;
                    self.analyze_stack.push(x);
                    self.analyze_toclear.push(x);
                }
            }
        }
        true
    }

    /// Literal block distance of `self.learnt`: its number of distinct
    /// decision levels.
    fn compute_lbd(&mut self) -> u32 {
        self.lbd_gen += 1;
        let mut lbd = 0;
        for l in &self.learnt {
            let lvl = self.level[l.var().index()] as usize;
            if lvl >= self.lbd_stamp.len() {
                self.lbd_stamp.resize(lvl + 1, 0);
            }
            if self.lbd_stamp[lvl] != self.lbd_gen {
                self.lbd_stamp[lvl] = self.lbd_gen;
                lbd += 1;
            }
        }
        lbd
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.values[v.positive().code()].is_undef() {
                return Some(v);
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        // Sort learnt clauses by (lbd asc, activity desc); drop the worse half,
        // keeping binary and locked (reason) clauses.
        let mut refs = std::mem::take(&mut self.learnt_refs);
        refs.sort_by(|&a, &b| {
            self.ca.lbd(a).cmp(&self.ca.lbd(b)).then(
                self.ca
                    .activity(b)
                    .partial_cmp(&self.ca.activity(a))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let keep_count = refs.len() / 2;
        let mut kept = 0;
        for i in 0..refs.len() {
            let r = refs[i];
            let w = self.ca.lit(r, 0);
            let locked = self.reason[w.var().index()] == Some(r) && !self.lit_value(w).is_undef();
            if i < keep_count || self.ca.len(r) == 2 || locked || self.ca.lbd(r) <= 2 {
                refs[kept] = r;
                kept += 1;
            } else {
                self.ca.delete(r);
            }
        }
        refs.truncate(kept);
        self.learnt_refs = refs;
        self.stats.learnt_clauses = self.learnt_refs.len() as u64;
        // One sweep drops every watcher of a deleted clause, in order.
        let ca = &self.ca;
        for ws in &mut self.watches {
            ws.retain(|w| !ca.is_deleted(w.cref));
        }
        if self.ca.wasted * 2 > self.ca.words.len() {
            self.compact();
        }
        #[cfg(test)]
        {
            self.reductions += 1;
            self.check_invariants();
        }
    }

    /// Slides every live clause down over the deleted ones, in place.
    ///
    /// Live clauses keep their relative order and only move down, so each
    /// one's new offset can be written into its old header's spare word
    /// first; every reference is then remapped through it before anything
    /// moves.
    fn compact(&mut self) {
        let mut to = 0u32;
        let mut from = 0;
        while from < self.ca.words.len() {
            let c = ClauseRef(from as u32);
            let size = self.ca.size(c);
            if !self.ca.is_deleted(c) {
                self.ca.words[from + 1] = to;
                to += size as u32;
            }
            from += size;
        }
        let forward = |ca: &ClauseArena, c: ClauseRef| ClauseRef(ca.words[c.index() + 1]);
        for ws in &mut self.watches {
            for w in ws {
                w.cref = forward(&self.ca, w.cref);
            }
        }
        for r in self.reason.iter_mut().flatten() {
            *r = forward(&self.ca, *r);
        }
        for r in &mut self.learnt_refs {
            *r = forward(&self.ca, *r);
        }
        let mut from = 0;
        while from < self.ca.words.len() {
            let c = ClauseRef(from as u32);
            let size = self.ca.size(c);
            if !self.ca.is_deleted(c) {
                let to = forward(&self.ca, c).index();
                self.ca.words.copy_within(from..from + size, to);
            }
            from += size;
        }
        self.ca.words.truncate(to as usize);
        self.ca.wasted = 0;
        #[cfg(test)]
        {
            self.compactions += 1;
        }
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On [`SolveResult::Unsat`], [`Solver::conflict_assumptions`] returns a
    /// subset of the assumptions sufficient for unsatisfiability.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.model.clear();
        self.conflict_assumptions.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.max_learnts = (self.stats.original_clauses as f64 * 0.3).max(1000.0);
        let budget_start = self.stats.conflicts;
        let mut restart_seq = 0u64;
        let result = loop {
            restart_seq += 1;
            let conflict_limit = 64 * luby(restart_seq);
            match self.search(conflict_limit, assumptions, budget_start) {
                Some(r) => break r,
                None => {
                    self.stats.restarts += 1;
                }
            }
        };
        self.cancel_until(0);
        result
    }

    /// After an unsatisfiable [`Solver::solve_with_assumptions`] call, the
    /// subset of assumptions involved in the refutation.
    pub fn conflict_assumptions(&self) -> &[Lit] {
        &self.conflict_assumptions
    }

    /// Runs the CDCL search loop. Returns `None` to request a restart.
    fn search(
        &mut self,
        conflict_limit: u64,
        assumptions: &[Lit],
        budget_start: u64,
    ) -> Option<SolveResult> {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                let bt = self.analyze(confl);
                // Backtracking may undo assumption levels; they are re-assumed
                // by the decision loop below, which also detects failed
                // assumptions.
                self.cancel_until(bt);
                let lbd = self.compute_lbd();
                let asserting = self.learnt[0];
                if self.learnt.len() == 1 {
                    self.unchecked_enqueue(asserting, None);
                } else {
                    let learnt = std::mem::take(&mut self.learnt);
                    let cref = self.attach_new_clause(&learnt, true, lbd);
                    self.learnt = learnt;
                    self.clause_bump(cref);
                    self.unchecked_enqueue(asserting, Some(cref));
                }
                self.var_decay();
                self.clause_decay();
                if self.learnt_refs.len() as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
            } else {
                if let Some(budget) = self.conflict_budget {
                    if self.stats.conflicts - budget_start >= budget {
                        return Some(SolveResult::Unknown);
                    }
                }
                if conflicts_here >= conflict_limit {
                    self.cancel_until(self.assumption_level(assumptions));
                    return None; // restart
                }
                // Place assumptions as pseudo-decisions.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already satisfied: create an empty decision level.
                            self.new_decision_level();
                        }
                        LBool::False => {
                            self.analyze_final(a);
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            self.new_decision_level();
                            self.unchecked_enqueue(a, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        self.model = self.values.iter().step_by(2).copied().collect();
                        return Some(SolveResult::Sat);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.new_decision_level();
                        let l = Lit::new(v, self.polarity[v.index()]);
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }

    fn assumption_level(&self, assumptions: &[Lit]) -> u32 {
        (self.decision_level() as usize).min(assumptions.len()) as u32
    }

    /// Computes the subset of assumptions responsible for forcing `!failed`,
    /// storing it (including `failed` itself) in `conflict_assumptions`.
    fn analyze_final(&mut self, failed: Lit) {
        self.conflict_assumptions.clear();
        self.conflict_assumptions.push(failed);
        if self.decision_level() == 0 {
            return;
        }
        let fi = failed.var().index();
        self.seen[fi] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let vi = l.var().index();
            if !self.seen[vi] {
                continue;
            }
            match self.reason[vi] {
                None => {
                    if self.level[vi] > 0 {
                        self.conflict_assumptions.push(l);
                    }
                }
                Some(r) => {
                    for k in 1..self.ca.len(r) {
                        let x = self.ca.lit(r, k);
                        if self.level[x.var().index()] > 0 {
                            self.seen[x.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[vi] = false;
        }
        self.seen[fi] = false;
    }

    /// Value of `v` in the most recent satisfying assignment.
    ///
    /// Returns [`LBool::Undef`] if the last solve was not satisfiable or the
    /// variable did not exist at that time.
    pub fn model_value(&self, v: Var) -> LBool {
        self.model.get(v.index()).copied().unwrap_or(LBool::Undef)
    }

    /// Value of a literal in the most recent satisfying assignment.
    pub fn model_lit_value(&self, l: Lit) -> LBool {
        self.model_value(l.var()).xor(!l.is_positive())
    }

    /// Checks the clause store's structural invariants, panicking on the
    /// first violation:
    /// - every live clause is watched exactly twice, through the negations
    ///   of its first two literals, and no watcher points at a deleted one;
    /// - every assigned variable's reason is a live clause whose first
    ///   literal is the one it implied;
    /// - `learnt_refs` lists exactly the live learnt clauses, and `wasted`
    ///   counts exactly the words of the deleted ones.
    #[cfg(test)]
    fn check_invariants(&self) {
        let mut watched = std::collections::HashMap::new();
        for (code, ws) in self.watches.iter().enumerate() {
            for w in ws {
                assert!(!self.ca.is_deleted(w.cref), "watcher of a deleted clause");
                let watched_lit = !Lit::from_code(code);
                let k = (0..2)
                    .find(|&k| self.ca.lit(w.cref, k) == watched_lit)
                    .expect("watcher not on lits[0..2]");
                let slots: &mut [u32; 2] = watched.entry(w.cref.0).or_default();
                slots[k] += 1;
            }
        }
        let (mut live_learnts, mut wasted) = (0, 0);
        for c in self.ca.refs() {
            if self.ca.is_deleted(c) {
                wasted += self.ca.size(c);
                continue;
            }
            assert_eq!(watched.get(&c.0), Some(&[1, 1]), "clause {c:?} watches");
            live_learnts += usize::from(self.ca.is_learnt(c));
        }
        assert_eq!(wasted, self.ca.wasted);
        assert_eq!(live_learnts, self.learnt_refs.len());
        for &r in &self.learnt_refs {
            assert!(self.ca.is_learnt(r) && !self.ca.is_deleted(r));
        }
        for &l in &self.trail {
            if let Some(r) = self.reason[l.var().index()] {
                assert!(!self.ca.is_deleted(r), "reason is a deleted clause");
                assert_eq!(self.ca.lit(r, 0), l, "reason does not imply lits[0]");
            }
        }
    }
}

/// The Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
fn luby(i: u64) -> u64 {
    let mut x = i - 1; // 0-based index into the sequence
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_var().positive()).collect()
    }

    #[test]
    fn luby_sequence() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64 + 1), e, "luby({})", i + 1);
        }
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        assert!(s.add_clause(&[v[0]]));
        assert!(!s.add_clause(&[!v[0]]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        s.add_clause(&[v[0]]);
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        s.add_clause(&[!v[2], v[3]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for l in &v {
            assert!(s.model_lit_value(*l).is_true());
        }
    }

    #[test]
    fn xor_chain_unsat() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, x0 ^ x2 = 1 is unsatisfiable.
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            s.add_clause(&[v[a], v[b]]);
            s.add_clause(&[!v[a], !v[b]]);
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_3() {
        // PHP(4,3): 4 pigeons, 3 holes — classic small hard UNSAT instance.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..4)
            .map(|_| (0..3).map(|_| s.new_var().positive()).collect())
            .collect();
        for pigeon in &p {
            s.add_clause(pigeon);
        }
        #[allow(clippy::needless_range_loop)]
        for h in 0..3 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    s.add_clause(&[!p[i][h], !p[j][h]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_sat_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve_with_assumptions(&[!v[0]]), SolveResult::Sat);
        assert!(s.model_lit_value(v[1]).is_true());
        assert_eq!(
            s.solve_with_assumptions(&[!v[0], !v[1]]),
            SolveResult::Unsat
        );
        // Solver remains usable and satisfiable without assumptions.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn conflict_assumption_subset() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0]]);
        assert_eq!(s.solve_with_assumptions(&[v[2], !v[0]]), SolveResult::Unsat);
        assert!(s.conflict_assumptions().contains(&!v[0]));
    }

    #[test]
    fn budget_unknown() {
        // A hard instance with a 0-conflict budget returns Unknown.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..7)
            .map(|_| (0..6).map(|_| s.new_var().positive()).collect())
            .collect();
        for pigeon in &p {
            s.add_clause(pigeon);
        }
        #[allow(clippy::needless_range_loop)]
        for h in 0..6 {
            for i in 0..7 {
                for j in (i + 1)..7 {
                    s.add_clause(&[!p[i][h], !p[j][h]]);
                }
            }
        }
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn problem_clause_bumps_leave_cla_inc_finite() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0], v[1], v[2]]);
        let problem = ClauseRef(0);
        assert!(!s.ca.is_learnt(problem));
        let learnt = s.attach_new_clause(&[!v[0], v[1]], true, 2);
        s.cla_inc = 1e19;
        for _ in 0..1000 {
            s.clause_bump(problem);
            s.clause_decay();
            assert!(s.cla_inc.is_finite() && s.cla_inc > 1e19, "{}", s.cla_inc);
        }
        // A learnt clause still triggers exactly one rescale when it passes
        // the threshold.
        let mut bumps = 0;
        while s.cla_inc > 1e19 {
            s.clause_bump(learnt);
            bumps += 1;
        }
        assert_eq!(bumps, 4);
        assert!(s.cla_inc > 0.0 && s.ca.activity(learnt) < 2.0);
    }

    /// Planted random 3-SAT, large enough for several clause-DB reductions
    /// and an arena compaction, solved incrementally under assumptions.
    /// `reduce_db` checks the invariants after every reduction; this test
    /// also checks them between calls.
    #[test]
    fn arena_invariants_hold_across_reductions_and_compaction() {
        let mut s = Solver::new();
        let n = 250;
        let v = vars(&mut s, n);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let planted: Vec<Lit> = v
            .iter()
            .map(|&l| if next() & 1 == 1 { l } else { !l })
            .collect();
        let mut added = 0;
        while added < n * 43 / 10 {
            let c: Vec<Lit> = (0..3)
                .map(|_| {
                    let l = planted[next() as usize % n];
                    if next() & 1 == 1 {
                        l
                    } else {
                        !l
                    }
                })
                .collect();
            if c.iter().any(|l| planted.contains(l)) {
                s.add_clause(&c);
                added += 1;
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        s.check_invariants();
        for k in 0..8 {
            let mut assumptions = planted[k * 10..k * 10 + 16].to_vec();
            assumptions[k] = !assumptions[k];
            s.solve_with_assumptions(&assumptions);
            s.check_invariants();
        }
        assert!(s.reductions >= 3, "{} reductions", s.reductions);
        assert!(s.compactions >= 1, "{} compactions", s.compactions);
    }

    #[test]
    fn incremental_use() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0], v[1], v[2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[!v[0]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[!v[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_lit_value(v[2]).is_true());
        s.add_clause(&[!v[2]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }
}
