//! Search-trajectory pins for the CDCL kernel.
//!
//! The solver is deterministic: the same clauses, added in the same order,
//! give the same decisions, conflicts, propagations and restarts. These
//! tests pin those counters on a few fixed instances. A change to the
//! kernel's data structures (clause storage, watch lists, value tables)
//! must leave every number here unchanged; a change that alters the search
//! itself (heuristics, restart or deletion policy) must re-record them and
//! say why.

use fmaverify_sat::{Lit, SolveResult, Solver, SolverStats};

/// `(conflicts, decisions, propagations, restarts)`.
type Effort = (u64, u64, u64, u64);

fn effort(s: &SolverStats) -> Effort {
    (s.conflicts, s.decisions, s.propagations, s.restarts)
}

/// The pigeonhole formula PHP(`pigeons`, `holes`).
fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
    let p: Vec<Vec<Lit>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var().positive()).collect())
        .collect();
    for pigeon in &p {
        s.add_clause(pigeon);
    }
    for h in 0..holes {
        for (i, pi) in p.iter().enumerate() {
            for pj in &p[i + 1..] {
                s.add_clause(&[!pi[h], !pj[h]]);
            }
        }
    }
}

/// A fixed-seed xorshift64 stream, so the instances do not depend on any
/// random-number crate.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Random 3-SAT over `n` variables with `m` clauses, each satisfied by a
/// planted assignment (returned as one literal per variable).
fn planted_3sat(s: &mut Solver, n: usize, m: usize, seed: u64) -> Vec<Lit> {
    let mut rng = XorShift(seed);
    let vars: Vec<_> = (0..n).map(|_| s.new_var()).collect();
    let planted: Vec<Lit> = vars
        .iter()
        .map(|&v| {
            if rng.next() & 1 == 1 {
                v.positive()
            } else {
                v.negative()
            }
        })
        .collect();
    let mut added = 0;
    while added < m {
        let clause: Vec<Lit> = (0..3)
            .map(|_| {
                let l = planted[rng.below(n)];
                if rng.next() & 1 == 1 {
                    l
                } else {
                    !l
                }
            })
            .collect();
        if clause.iter().any(|l| planted.contains(l)) {
            s.add_clause(&clause);
            added += 1;
        }
    }
    planted
}

#[test]
fn pigeonhole_7_6() {
    let mut s = Solver::new();
    pigeonhole(&mut s, 7, 6);
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert_eq!(effort(&s.stats()), (635, 789, 7903, 6));
}

/// Unsatisfiable random 3-SAT at clause/variable ratio 4.5: enough
/// conflicts for several learnt-clause reductions.
#[test]
fn random_3sat_unsat() {
    let mut s = Solver::new();
    let mut rng = XorShift(12345);
    let n = 160;
    let vars: Vec<_> = (0..n).map(|_| s.new_var()).collect();
    for _ in 0..(n * 9 / 2) {
        let clause: Vec<Lit> = (0..3)
            .map(|_| Lit::new(vars[rng.below(n)], rng.next() & 1 == 1))
            .collect();
        s.add_clause(&clause);
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert_eq!(effort(&s.stats()), (1551, 1953, 49264, 14));
}

/// One solver, many incremental calls: a plain solve, a solve under a
/// slice of the planted assignment, then calls that flip one assumed
/// literal each, some satisfiable and some not. The learnt clauses,
/// activities and saved phases carry over between calls, so every call's
/// counters depend on the whole history.
#[test]
fn planted_3sat_incremental_assumptions() {
    use SolveResult::{Sat, Unsat};
    let mut s = Solver::new();
    let planted = planted_3sat(&mut s, 200, 860, 0x9e37_79b9_7f4a_7c15);
    let mut got = vec![(s.solve(), effort(&s.stats()), 0)];
    got.push((
        s.solve_with_assumptions(&planted[..40]),
        effort(&s.stats()),
        0,
    ));
    for k in 0..6 {
        let mut assumptions: Vec<Lit> = planted[k * 7..k * 7 + 12].to_vec();
        assumptions[k] = !assumptions[k];
        assumptions.push(!planted[150 + k]);
        let r = s.solve_with_assumptions(&assumptions);
        got.push((r, effort(&s.stats()), s.conflict_assumptions().len()));
    }
    let expect = [
        (Sat, (5813, 7359, 228961, 37), 0),
        (Sat, (5813, 7383, 229161, 37), 0),
        (Sat, (5814, 7417, 229394, 37), 0),
        (Unsat, (6034, 7718, 237341, 39), 13),
        (Sat, (6153, 7901, 242117, 40), 0),
        (Sat, (6343, 8188, 249168, 42), 0),
        (Unsat, (6355, 8202, 249565, 42), 12),
        (Unsat, (6437, 8300, 252692, 43), 13),
    ];
    assert_eq!(got, expect);
}
