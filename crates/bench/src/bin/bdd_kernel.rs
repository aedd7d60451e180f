//! **Experiment K1 — BDD kernel microbench**: ITE stress suites plus a
//! mid-size FMA case, timed cold and warm.
//!
//! Every engine in the flow (symbolic simulation of the 585 cases,
//! `constrain` minimization, BDD sweeping) bottoms out in the ROBDD kernel,
//! so kernel throughput directly scales Table 1 and the mutation campaigns.
//! This binary pins that claim to numbers: each suite is a deterministic
//! workload over the public `BddManager` API, run `iters` times in-process —
//! the first run is reported as *cold*, the mean of the remaining runs as
//! *warm* (same manager where the workload allows, so the computed cache and
//! unique table are primed).
//!
//! Results go to `results/bdd_kernel.json` (schema-versioned envelope) with
//! `FMAVERIFY_JSON=1`; EXPERIMENTS.md K1 records the before/after numbers
//! for the kernel overhaul. `FMAVERIFY_KERNEL_ITERS` overrides the
//! iteration count (default 3).

use std::time::{Duration, Instant};

use fmaverify::{
    build_harness, check_miter_bdd_parts, paper_order, BddEngineOptions, CaseId, FpuOp,
    HarnessOptions, JsonValue,
};
use fmaverify_bdd::{sift, Bdd, BddManager};
use fmaverify_bench::{banner, bench_config, dur, env_u32, maybe_write_json};

/// One measured suite: name, cold time, warm time, and a work counter
/// (suite-specific: ITE calls, nodes, ...) for sanity-checking that the
/// kernels under comparison did the same work.
/// The suites that make up the "ITE stress" acceptance group for the kernel
/// overhaul: engine-pattern workloads (a live working set re-verified across
/// GC waves) where computed-cache preservation across collections pays off.
const ITE_STRESS_SUITES: &[&str] = &["gc_warm", "sweep_warm", "case_sweep"];

struct SuiteResult {
    name: &'static str,
    cold: Duration,
    warm: Duration,
    work: u64,
    checksum: u64,
}

fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

/// Runs `body` `iters` times against fresh state and reports (cold, warm).
fn run_suite(name: &'static str, iters: u32, mut body: impl FnMut() -> (u64, u64)) -> SuiteResult {
    let (cold, (work, checksum)) = time(&mut body);
    let mut warm_total = Duration::ZERO;
    let warm_iters = iters.saturating_sub(1).max(1);
    for _ in 0..warm_iters {
        let (d, (w, c)) = time(&mut body);
        assert_eq!(w, work, "{name}: non-deterministic work counter");
        assert_eq!(c, checksum, "{name}: non-deterministic checksum");
        warm_total += d;
    }
    SuiteResult {
        name,
        cold,
        warm: warm_total / warm_iters,
        work,
        checksum,
    }
}

/// A tiny deterministic generator (xorshift*), so suites do not depend on
/// the `rand` shim's stream staying stable.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The classic ITE stress: the n-queens placement function. Deterministic,
/// memory-bounded, and dominated by `ite` recursion over a growing shared
/// DAG — exactly the unique-table/computed-cache workload the symbolic
/// simulator generates.
fn queens(n: usize) -> (u64, u64) {
    let mut m = BddManager::new();
    let vars = m.new_vars(n * n);
    let cell = |i: usize, j: usize| vars[i * n + j];
    let mut board = Bdd::TRUE;
    for i in 0..n {
        // Exactly one queen per row.
        let mut row_any = Bdd::FALSE;
        for j in 0..n {
            let q = m.var_bdd(cell(i, j));
            row_any = m.or(row_any, q);
        }
        board = m.and(board, row_any);
        for j in 0..n {
            let q = m.var_bdd(cell(i, j));
            let mut no_attack = Bdd::TRUE;
            for jj in 0..n {
                if jj != j {
                    let other = m.nvar_bdd(cell(i, jj));
                    no_attack = m.and(no_attack, other);
                }
            }
            for ii in 0..n {
                if ii == i {
                    continue;
                }
                let other = m.nvar_bdd(cell(ii, j));
                no_attack = m.and(no_attack, other);
                let d = ii.abs_diff(i);
                if j + d < n {
                    let diag = m.nvar_bdd(cell(ii, j + d));
                    no_attack = m.and(no_attack, diag);
                }
                if j >= d {
                    let diag = m.nvar_bdd(cell(ii, j - d));
                    no_attack = m.and(no_attack, diag);
                }
            }
            let constraint = m.implies(q, no_attack);
            board = m.and(board, constraint);
        }
    }
    let solutions = m.sat_count(board) as u64;
    (m.stats().ite_calls, solutions)
}

/// Blocked n-bit equality: the classic bad-order workload (exponential
/// intermediate BDDs), heavy on unique-table inserts and mk_node.
fn blocked_equality(n: usize) -> (u64, u64) {
    let mut m = BddManager::new();
    let vars = m.new_vars(2 * n);
    let mut eq = Bdd::TRUE;
    for i in 0..n {
        let a = m.var_bdd(vars[i]);
        let b = m.var_bdd(vars[n + i]);
        let bit = m.xnor(a, b);
        eq = m.and(eq, bit);
    }
    let stats = m.stats();
    (stats.nodes_created, m.reachable_count(&[eq]) as u64)
}

/// Constrain/restrict minimization stress over random functions: the
/// operator the paper's case split leans on hardest.
fn constrain_stress(nvars: usize, rounds: usize) -> (u64, u64) {
    let mut m = BddManager::new();
    let vars = m.new_vars(nvars);
    let mut rng = XorShift(0xBADC0FFEE0DDF00D);
    let mk_random = |m: &mut BddManager, rng: &mut XorShift, depth: usize| -> Bdd {
        let mut f = m.var_bdd(vars[rng.below(nvars)]);
        for _ in 0..depth {
            let g = m.var_bdd(vars[rng.below(nvars)]);
            f = match rng.below(3) {
                0 => m.and(f, g),
                1 => m.or(f, g),
                _ => m.xor(f, g),
            };
        }
        f
    };
    let mut checksum = 0u64;
    for _ in 0..rounds {
        let f = mk_random(&mut m, &mut rng, 24);
        let c = mk_random(&mut m, &mut rng, 12);
        if c.is_false() {
            continue;
        }
        let fc = m.constrain(f, c);
        let fr = m.restrict(f, c);
        checksum = checksum
            .wrapping_mul(31)
            .wrapping_add(m.reachable_count(&[fc, fr]) as u64);
    }
    (m.stats().ite_calls, checksum)
}

/// GC churn: builds garbage between collections with a small live set of
/// subset-parity functions (whose BDDs stay linear in `nvars`, so the
/// workload is memory-bounded by construction — conjunctions of two
/// parities track a four-state product per level). On the old kernel every
/// GC dropped the whole computed cache and rebuilt the unique table.
fn gc_churn(nvars: usize, waves: usize, ops_per_wave: usize) -> (u64, u64) {
    let mut m = BddManager::new();
    let vars = m.new_vars(nvars);
    let mut rng = XorShift(0x0DDBA11CAFEF00D5);
    let mut live: Vec<Bdd> = vars.iter().take(8).map(|&v| m.var_bdd(v)).collect();
    let mut checksum = 0u64;
    for _ in 0..waves {
        for _ in 0..ops_per_wave {
            let a = m.var_bdd(vars[rng.below(nvars)]);
            let x = live[rng.below(live.len())];
            let y = live[rng.below(live.len())];
            // Garbage: a conjunction/disjunction of two parities (small but
            // real work); live update: a parity rotation (stays linear).
            let g1 = m.and(x, y);
            let g2 = m.or(g1, a);
            checksum = checksum.wrapping_add(g2.is_false() as u64);
            let slot = rng.below(live.len());
            live[slot] = m.xor(live[slot], a);
        }
        live = m.gc(&live);
    }
    let stats = m.stats();
    let reach: u64 = live.iter().map(|&f| m.reachable_count(&[f]) as u64).sum();
    (stats.gc_runs, checksum.wrapping_mul(31).wrapping_add(reach))
}

/// Warm re-verification across GC waves: the engine's dominant pattern. A
/// sweep holds a handle per netlist gate (here: the variables, the per-bit
/// equalities, and every conjunction prefix), re-derives the same functions
/// on each refinement wave, and collects transient garbage between waves.
/// A kernel that preserves live computed-cache entries across GC answers
/// every wave after the first from the cache; a kernel that drops the cache
/// wholesale re-traverses the (exponential, blocked-order) accumulator
/// every wave.
fn gc_warm(n: usize, rounds: usize) -> (u64, u64) {
    let mut m = BddManager::new();
    let vars = m.new_vars(2 * n);
    let mut rng = XorShift(0x5EED5EED5EED5EED);
    let mut live: Vec<Bdd> = Vec::new();
    let mut final_eq = Bdd::TRUE;
    for _ in 0..rounds {
        live.clear();
        let mut acc = Bdd::TRUE;
        for i in 0..n {
            let a = m.var_bdd(vars[i]);
            let b = m.var_bdd(vars[n + i]);
            let bit = m.xnor(a, b);
            acc = m.and(acc, bit);
            live.extend_from_slice(&[a, b, bit, acc]);
        }
        // Transient garbage: xor chains that die before the collection.
        for _ in 0..150 {
            let x = m.var_bdd(vars[rng.below(2 * n)]);
            let y = m.var_bdd(vars[rng.below(2 * n)]);
            let z = m.var_bdd(vars[rng.below(2 * n)]);
            let g = m.xor(x, y);
            let _ = m.xor(g, z);
        }
        let kept = m.gc(&live);
        final_eq = kept[live.len() - 1];
    }
    let solutions = m.sat_count(final_eq) as u64;
    (rounds as u64, solutions)
}

/// Sweeping-style equivalence checks repeated across GC waves: `k` gate
/// functions (deterministic cube DNFs) are pairwise miter-checked every
/// wave, with the gate and miter handles held live (as a sweep's node →
/// BDD map does) and fresh garbage collected in between. Old kernel: every
/// wave recomputes every miter from scratch after GC.
fn sweep_warm(nvars: usize, k: usize, waves: usize) -> (u64, u64) {
    let mut m = BddManager::new();
    let vars = m.new_vars(nvars);
    let mut rng = XorShift(0xC0DEC0DEC0DEC0DE);
    // Deterministic "gate" functions: DNFs of random 5-literal cubes.
    let mut gates: Vec<Bdd> = Vec::with_capacity(k);
    for _ in 0..k {
        let mut f = Bdd::FALSE;
        for _ in 0..10 {
            let mut cube = Bdd::TRUE;
            for _ in 0..5 {
                let v = m.var_bdd(vars[rng.below(nvars)]);
                let lit = if rng.next() & 1 == 0 { v } else { v.not() };
                cube = m.and(cube, lit);
            }
            f = m.or(f, cube);
        }
        gates.push(f);
    }
    let mut equal_pairs = 0u64;
    let mut miters: Vec<Bdd> = Vec::new();
    for _ in 0..waves {
        miters.clear();
        for i in 0..k {
            for j in (i + 1)..k {
                let x = m.xnor(gates[i], gates[j]);
                equal_pairs += u64::from(x == Bdd::TRUE);
                miters.push(x);
            }
        }
        // Transient garbage between waves.
        for _ in 0..100 {
            let a = m.var_bdd(vars[rng.below(nvars)]);
            let b = m.var_bdd(vars[rng.below(nvars)]);
            let _ = m.and(a, b.not());
        }
        let mut roots = gates.clone();
        roots.extend_from_slice(&miters);
        let kept = m.gc(&roots);
        gates.copy_from_slice(&kept[..k]);
    }
    let tally: u64 = miters
        .iter()
        .map(|&x| m.sat_count(x) as u64)
        .fold(0, |a, b| a.wrapping_mul(31).wrapping_add(b));
    (equal_pairs, tally)
}

/// Builds an `n`×`n` array multiplier out of manager operations, pushing
/// every intermediate gate BDD into `sink` (the sweep's gate → BDD map).
/// `flip` inverts one partial product — a single-gate mutant, as in the
/// mutation campaigns.
fn mult_gates(
    m: &mut BddManager,
    a: &[Bdd],
    b: &[Bdd],
    flip: Option<usize>,
    sink: &mut Vec<Bdd>,
) -> Vec<Bdd> {
    let n = a.len();
    let mut acc: Vec<Bdd> = vec![Bdd::FALSE; 2 * n];
    let mut k = 0;
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let mut pp = m.and(ai, bj);
            if flip == Some(k) {
                pp = pp.not();
            }
            k += 1;
            sink.push(pp);
            let mut carry = pp;
            let mut pos = i + j;
            while !carry.is_const() && pos < 2 * n {
                let s = m.xor(acc[pos], carry);
                let c = m.and(acc[pos], carry);
                sink.push(s);
                sink.push(c);
                acc[pos] = s;
                carry = c;
                pos += 1;
            }
        }
    }
    acc
}

/// Mutation-campaign re-simulation (the PR-4 pattern): one multiplier
/// commutativity miter, re-simulated once per single-gate mutant in the same
/// manager, collecting every few mutants (as the engine's dead-fraction
/// trigger does). The base circuit's gate BDDs stay live, so a
/// cache-preserving kernel re-simulates only the mutated cone; a
/// cache-dropping kernel re-traverses the whole circuit after every
/// collection.
fn mutation_resim(bits: usize) -> (u64, u64) {
    let mut m = BddManager::new();
    let vars = m.new_vars(2 * bits);
    let a: Vec<Bdd> = (0..bits).map(|i| m.var_bdd(vars[i])).collect();
    let b: Vec<Bdd> = (0..bits).map(|i| m.var_bdd(vars[bits + i])).collect();
    let mut live: Vec<Bdd> = Vec::new();
    live.extend_from_slice(&a);
    live.extend_from_slice(&b);
    let out_ab = mult_gates(&mut m, &a, &b, None, &mut live);
    let out_ba = mult_gates(&mut m, &b, &a, None, &mut live);
    for (x, y) in out_ab.iter().zip(&out_ba) {
        let eq = m.xnor(*x, *y);
        assert!(eq.is_true(), "multiplication must commute");
    }
    live.extend_from_slice(&out_ba);
    let mut mismatches = 0u64;
    let mut checksum = 0u64;
    for k in 0..bits * bits {
        // Re-slice the base handles out of the live set every iteration: a
        // collection is free to remap ids (the compacting path does).
        let a = live[..bits].to_vec();
        let b = live[bits..2 * bits].to_vec();
        let out_ba = live[live.len() - 2 * bits..].to_vec();
        let mut scratch = Vec::new();
        let out_mut = mult_gates(&mut m, &a, &b, Some(k), &mut scratch);
        for (x, y) in out_mut.iter().zip(&out_ba) {
            let eq = m.xnor(*x, *y);
            if !eq.is_true() {
                mismatches += 1;
                checksum = checksum
                    .wrapping_mul(31)
                    .wrapping_add(m.sat_count(eq) as u64);
            }
        }
        if k % 4 == 3 {
            live = m.gc(&live);
        }
    }
    (mismatches, checksum)
}

/// The paper's case-sweep loop: one circuit, verified under one case
/// constraint after another in the same manager. Every case re-derives the
/// same multiplier outputs (identical structure each time), constrains them
/// to the case's care cube, and collects the per-case garbage. With the
/// circuit's gates held live across collections, a cache-preserving kernel
/// re-derives the circuit from the computed cache; the old kernel rebuilt
/// it from scratch for every case.
fn case_sweep(bits: usize, cases: usize) -> (u64, u64) {
    let mut m = BddManager::new();
    let vars = m.new_vars(2 * bits);
    let mut rng = XorShift(0xFACE0FF5ACE0FF5A);
    let mut live: Vec<Bdd> = vars.iter().map(|&v| m.var_bdd(v)).collect();
    let mut work = 0u64;
    let mut checksum = 0u64;
    for _ in 0..cases {
        // Re-derive the full circuit; the gates go into the live set so the
        // collection keeps their cache entries.
        live.truncate(2 * bits);
        let a = live[..bits].to_vec();
        let b = live[bits..2 * bits].to_vec();
        let outs = mult_gates(&mut m, &a, &b, None, &mut live);
        // The case constraint: a care cube over the operand bits.
        let mut cube = Bdd::TRUE;
        for _ in 0..6 {
            let v = m.var_bdd(vars[rng.below(2 * bits)]);
            let lit = if rng.next() & 1 == 0 { v } else { v.not() };
            cube = m.and(cube, lit);
        }
        // A cube naming both polarities of a variable is empty; such a
        // "case" is skipped (deterministically), as the engine's case split
        // never emits an empty care set.
        if cube.is_false() {
            live = m.gc(&live);
            continue;
        }
        // Check each output under the case (constrain, then tally); the
        // cofactors and the cube die before the collection.
        for &o in &outs {
            let fc = m.constrain(o, cube);
            work += 1;
            checksum = checksum
                .wrapping_mul(31)
                .wrapping_add(m.sat_count(fc) as u64);
        }
        live = m.gc(&live);
    }
    (work, checksum)
}

/// Sifting on a blocked equality: exercises `set_order` rebuilds and the
/// reorder driver's scratch allocations.
fn sift_stress(n: usize) -> (u64, u64) {
    let mut m = BddManager::new();
    let vars = m.new_vars(2 * n);
    let mut eq = Bdd::TRUE;
    for i in 0..n {
        let a = m.var_bdd(vars[i]);
        let b = m.var_bdd(vars[n + i]);
        let bit = m.xnor(a, b);
        eq = m.and(eq, bit);
    }
    let result = sift(&mut m, &[eq], usize::MAX);
    (result.orders_tried as u64, result.nodes_after as u64)
}

/// A mid-size FMA cancellation case through the real engine path
/// (symbolic simulation of the miter under the paper's constraint and
/// static order).
fn fma_case() -> (u64, u64) {
    // Fixed mid-size format: one notch above the default bench format, so
    // the suite measures the same circuit regardless of FMAVERIFY_EXP/FRAC.
    let cfg = fmaverify::FpuConfig {
        format: fmaverify::FpFormat::new(4, 6),
        denormals: bench_config().denormals,
    };
    let mut harness = build_harness(&cfg, HarnessOptions::default());
    let case = CaseId::OverlapCancel {
        delta: 1,
        sha: fmaverify::ShaCase::Exact(2),
    };
    let parts = harness.case_constraint_parts(FpuOp::Fma, case);
    let order = paper_order(&harness, Some(1));
    let out = check_miter_bdd_parts(
        &harness.netlist,
        harness.miter,
        &parts,
        &BddEngineOptions {
            order,
            ..BddEngineOptions::default()
        },
    );
    assert!(out.holds && !out.aborted, "FMA case must hold");
    (out.manager_stats.ite_calls, out.peak_nodes as u64)
}

fn main() {
    banner(
        "bdd_kernel",
        "kernel microbench: ITE stress + mid-size FMA case (cold/warm)",
    );
    let iters = env_u32("FMAVERIFY_KERNEL_ITERS", 3);

    let suites: Vec<SuiteResult> = vec![
        run_suite("queens", iters, || queens(8)),
        run_suite("eq_blocked", iters, || blocked_equality(15)),
        run_suite("constrain", iters, || constrain_stress(16, 1_200)),
        run_suite("gc_churn", iters, || gc_churn(40, 8, 1_500)),
        run_suite("gc_warm", iters, || gc_warm(13, 32)),
        run_suite("sweep_warm", iters, || sweep_warm(14, 8, 40)),
        run_suite("case_sweep", iters, || case_sweep(6, 25)),
        run_suite("mut_resim", iters, || mutation_resim(6)),
        run_suite("sift", iters, || sift_stress(9)),
        run_suite("fma_case", iters, fma_case),
    ];

    println!(
        "{:<12} {:>10} {:>10} {:>14} {:>14}",
        "suite", "cold", "warm", "work", "checksum"
    );
    for s in &suites {
        println!(
            "{:<12} {:>10} {:>10} {:>14} {:>14}",
            s.name,
            dur(s.cold),
            dur(s.warm),
            s.work,
            s.checksum
        );
    }
    let geomean = |subset: &[&SuiteResult], pick: fn(&SuiteResult) -> Duration| -> f64 {
        let ln_sum: f64 = subset
            .iter()
            .map(|s| pick(s).as_secs_f64().max(1e-9).ln())
            .sum();
        (ln_sum / subset.len() as f64).exp()
    };
    let all: Vec<&SuiteResult> = suites.iter().collect();
    // The acceptance suite for the kernel overhaul: the engine-pattern
    // workloads (warm re-verification across GC waves), where computed-cache
    // preservation is exercised. The remaining suites are single-shot builds
    // that both kernels answer from a cold cache.
    let stress: Vec<&SuiteResult> = suites
        .iter()
        .filter(|s| ITE_STRESS_SUITES.contains(&s.name))
        .collect();
    let gm_cold = geomean(&all, |s| s.cold);
    let gm_warm = geomean(&all, |s| s.warm);
    let gm_stress_cold = geomean(&stress, |s| s.cold);
    let gm_stress_warm = geomean(&stress, |s| s.warm);
    println!(
        "\ngeomean (all):        cold {:.2}ms  warm {:.2}ms",
        gm_cold * 1e3,
        gm_warm * 1e3
    );
    println!(
        "geomean (ite-stress): cold {:.2}ms  warm {:.2}ms   [{}]",
        gm_stress_cold * 1e3,
        gm_stress_warm * 1e3,
        ITE_STRESS_SUITES.join(", ")
    );
    println!("(compare geomeans across kernels: speedup = old / new, per column)");

    maybe_write_json("bdd_kernel", || {
        JsonValue::object(vec![
            (
                "suites",
                JsonValue::Array(
                    suites
                        .iter()
                        .map(|s| {
                            JsonValue::object(vec![
                                ("name", JsonValue::string(s.name)),
                                ("cold_seconds", JsonValue::Number(s.cold.as_secs_f64())),
                                ("warm_seconds", JsonValue::Number(s.warm.as_secs_f64())),
                                ("work", JsonValue::int(s.work)),
                                ("checksum", JsonValue::int(s.checksum)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("geomean_cold_seconds", JsonValue::Number(gm_cold)),
            ("geomean_warm_seconds", JsonValue::Number(gm_warm)),
            (
                "ite_stress_suites",
                JsonValue::Array(
                    ITE_STRESS_SUITES
                        .iter()
                        .map(|&n| JsonValue::string(n))
                        .collect(),
                ),
            ),
            (
                "ite_stress_geomean_cold_seconds",
                JsonValue::Number(gm_stress_cold),
            ),
            (
                "ite_stress_geomean_warm_seconds",
                JsonValue::Number(gm_stress_warm),
            ),
            ("iters", JsonValue::int(u64::from(iters))),
        ])
    });
}
