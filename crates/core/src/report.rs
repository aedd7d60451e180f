//! Table-1-style aggregation and rendering of verification results.
//!
//! The paper's Table 1 reports, per instruction and case class, the average
//! and peak BDD node counts and run times. This module computes the same
//! rows from [`CaseResult`]s and renders them as a text table.

use std::fmt::Write as _;
use std::time::Duration;

use fmaverify_fpu::FpuOp;

use crate::cases::CaseClass;
use crate::engine::EngineKind;
use crate::runner::{CaseResult, InstructionReport};

/// One row of the Table-1 reproduction.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Instruction.
    pub op: FpuOp,
    /// Case class.
    pub class: CaseClass,
    /// Number of cases aggregated.
    pub cases: usize,
    /// Average peak BDD nodes (None for SAT rows — "n/a").
    pub nodes_avg: Option<f64>,
    /// Maximum peak BDD nodes.
    pub nodes_max: Option<usize>,
    /// Average per-case time.
    pub time_avg: Duration,
    /// Maximum per-case time.
    pub time_max: Duration,
    /// Accumulated time over all cases of the row.
    pub time_total: Duration,
}

/// Builds the Table-1 rows for a set of instruction reports.
pub fn table1_rows(reports: &[InstructionReport]) -> Vec<TableRow> {
    let mut rows = Vec::new();
    for report in reports {
        for class in CaseClass::ALL {
            let results: Vec<&CaseResult> = report.class_results(class);
            if results.is_empty() {
                continue;
            }
            rows.push(aggregate_row(report.op, class, &results));
        }
    }
    rows
}

fn aggregate_row(op: FpuOp, class: CaseClass, results: &[&CaseResult]) -> TableRow {
    let bdd: Vec<usize> = results.iter().filter_map(|r| r.bdd_peak_nodes()).collect();
    let (nodes_avg, nodes_max) = if bdd.is_empty() {
        (None, None)
    } else {
        (
            Some(bdd.iter().sum::<usize>() as f64 / bdd.len() as f64),
            Some(*bdd.iter().max().expect("non-empty")),
        )
    };
    let times: Vec<Duration> = results.iter().map(|r| r.duration).collect();
    let total: Duration = times.iter().sum();
    TableRow {
        op,
        class,
        cases: results.len(),
        nodes_avg,
        nodes_max,
        time_avg: total / times.len() as u32,
        time_max: *times.iter().max().expect("non-empty"),
        time_total: total,
    }
}

fn class_name(class: CaseClass) -> &'static str {
    match class {
        CaseClass::OverlapWithCancellation => "overlap w/ cancellation",
        CaseClass::OverlapNoCancellation => "overlap w/o cancellation",
        CaseClass::FarOut => "far-out",
        CaseClass::Monolithic => "n/a (single SAT run)",
    }
}

fn op_name(op: FpuOp) -> &'static str {
    match op {
        FpuOp::Fma => "FMA",
        FpuOp::Fms => "FMS",
        FpuOp::Add => "add",
        FpuOp::Mul => "mult",
        FpuOp::Fnma => "FNMA",
        FpuOp::Fnms => "FNMS",
    }
}

/// Renders rows in the layout of the paper's Table 1 (nodes in units of
/// 10^3 here — our formats are smaller than the paper's testbed).
pub fn render_table1(rows: &[TableRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:<26} {:>6} {:>12} {:>12} {:>10} {:>10}",
        "Instr.", "Case", "cases", "nodes avg", "nodes max", "t avg", "t max"
    );
    let _ = writeln!(out, "{}", "-".repeat(88));
    for r in rows {
        let nodes_avg = r
            .nodes_avg
            .map(|v| format!("{:.1}", v))
            .unwrap_or_else(|| "n/a".to_string());
        let nodes_max = r
            .nodes_max
            .map(|v| v.to_string())
            .unwrap_or_else(|| "n/a".to_string());
        let _ = writeln!(
            out,
            "{:<6} {:<26} {:>6} {:>12} {:>12} {:>9.1?} {:>9.1?}",
            op_name(r.op),
            class_name(r.class),
            r.cases,
            nodes_avg,
            nodes_max,
            r.time_avg,
            r.time_max,
        );
    }
    out
}

/// Renders a one-line summary of an instruction report (accumulated time,
/// engine split, escalations, pass/fail).
pub fn summarize(report: &InstructionReport) -> String {
    // A canceled case ran no engine and counts as neither.
    let count = |kind: EngineKind| {
        report
            .results
            .iter()
            .filter(|r| r.engine() == Some(kind))
            .count()
    };
    let bdd = count(EngineKind::Bdd);
    let sat = count(EngineKind::Sat);
    let escalated = report.escalated_cases();
    let escalation_note = if escalated > 0 {
        format!(", {escalated} escalated")
    } else {
        String::new()
    };
    let cached = report.results.iter().filter(|r| r.cached).count();
    let cache_note = if cached > 0 {
        format!(", {cached} cached")
    } else {
        String::new()
    };
    format!(
        "{}: {} cases ({} BDD, {} SAT{}{}), accumulated {:?}, wall {:?}, {}",
        op_name(report.op),
        report.results.len(),
        bdd,
        sat,
        escalation_note,
        cache_note,
        report.accumulated,
        report.wall,
        if report.all_hold() {
            "ALL HOLD"
        } else {
            "FAILURES"
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::CaseId;

    fn fake_result(case: CaseId, nodes: Option<usize>, ms: u64) -> CaseResult {
        use crate::engine::{EngineBudget, EngineStats};
        use crate::runner::{CaseAttempt, Verdict};
        let (engine, engine_name) = match nodes {
            Some(_) => (EngineKind::Bdd, "bdd/constrain"),
            None => (EngineKind::Sat, "sat"),
        };
        CaseResult {
            case,
            op: FpuOp::Fma,
            verdict: Verdict::Holds,
            counterexample: None,
            error: None,
            attempts: vec![CaseAttempt {
                engine,
                engine_name,
                budget: EngineBudget::UNLIMITED,
                verdict: Verdict::Holds,
                stats: EngineStats {
                    peak_bdd_nodes: nodes,
                    sat_conflicts: nodes.is_none().then_some(10),
                    ..EngineStats::default()
                },
            }],
            queue_latency: Duration::ZERO,
            stolen: false,
            cached: false,
            duration: Duration::from_millis(ms),
        }
    }

    #[test]
    fn aggregation() {
        let report = InstructionReport {
            op: FpuOp::Fma,
            results: vec![
                fake_result(CaseId::OverlapNoCancel { delta: 0 }, Some(100), 10),
                fake_result(CaseId::OverlapNoCancel { delta: 1 }, Some(300), 30),
                fake_result(CaseId::FarOut, None, 50),
            ],
            wall: Duration::from_millis(60),
            accumulated: Duration::from_millis(90),
        };
        let rows = table1_rows(std::slice::from_ref(&report));
        assert_eq!(rows.len(), 2);
        let ov = rows
            .iter()
            .find(|r| r.class == CaseClass::OverlapNoCancellation)
            .expect("overlap row");
        assert_eq!(ov.cases, 2);
        assert_eq!(ov.nodes_avg, Some(200.0));
        assert_eq!(ov.nodes_max, Some(300));
        assert_eq!(ov.time_max, Duration::from_millis(30));
        let fo = rows
            .iter()
            .find(|r| r.class == CaseClass::FarOut)
            .expect("farout row");
        assert_eq!(fo.nodes_avg, None);
        let text = render_table1(&rows);
        assert!(text.contains("FMA"));
        assert!(text.contains("n/a"));
        assert!(summarize(&report).contains("ALL HOLD"));
    }
}
