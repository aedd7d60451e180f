//! Content-addressed proof cache: incremental verification across runs.
//!
//! The paper's 585-case split re-proves every case on every regression run,
//! but each case verdict is a pure function of three things: the logic cone
//! the engines analyze (harness netlist + case constraints), the case being
//! proved, and the engine policy that drives the proof. This module
//! memoizes that function on disk.
//!
//! * A [`Fingerprint`] is a 256-bit content address: SHA-256 over the
//!   canonical structural hash of the miter-plus-constraint cone of
//!   influence ([`fmaverify_netlist::Netlist::coi_hash`]), the case and
//!   instruction, the escalation ladder (engine names and budgets), the
//!   cache schema version and the engine revision. Any change to the
//!   design, the constraints, the policy or the engines' effort changes the
//!   fingerprint — invalidation is automatic and there is no staleness to
//!   manage.
//! * A [`ProofCache`] holds fingerprint → [`CachedCase`] entries, persisted
//!   as JSONL shards under a cache directory (`results/cache/` by
//!   convention, sharded by the first fingerprint byte). Writes go through
//!   a temp file plus atomic rename; loads skip unreadable shards and
//!   malformed lines rather than failing the run.
//!
//! Only *definite* verdicts (holds / counterexample) are cached: a
//! budget-exceeded or errored attempt says nothing reusable about the case.
//! Replaying a hit is sound because the fingerprint pins the exact cone the
//! original engines proved — a cached "holds" is the same theorem, not a
//! similar one (see DESIGN.md §9 for the full argument).
//!
//! The scheduler consults the cache before dispatching each case (see
//! [`crate::runner`]); hits surface as [`crate::runner::CaseResult::cached`]
//! and the `cache.hits` / `cache.misses` / `cache.stores` counters.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use fmaverify_fpu::FpuOp;
use fmaverify_netlist::{Sha256, Signal};

use crate::cases::CaseId;
use crate::engine::{EngineBudget, EngineKind, EngineStats, ENGINE_NAMES};
use crate::harness::Harness;
use crate::json::{duration_json, JsonValue, ToJson};
use crate::runner::{CaseAttempt, CounterExample, EngineStage, Verdict};
use crate::trace::MetricSet;

/// Version stamp of the on-disk entry format; folded into every
/// [`Fingerprint`], so bumping it invalidates the whole cache.
///
/// Version 2 dropped the entry-level `verdict`, `engine`, `engine_name`
/// and `stats` copies: they are read from the last attempt.
pub const CACHE_SCHEMA_VERSION: u32 = 2;

/// Revision of the proof engines; folded into every [`Fingerprint`] next to
/// [`CACHE_SCHEMA_VERSION`].
///
/// An entry replays its attempts' effort stats (peak BDD nodes, ITE-driven
/// wall times, SAT conflicts), so an engine change that moves effort for
/// the same proof bumps this: a warm run then re-proves rather than report
/// the old engine's effort.
///
/// Revision 1: BDD symbolic simulation evaluates each XOR and MUX structure
/// of the AIG as one ITE.
pub const ENGINE_REVISION: u32 = 1;

/// How a run uses the proof cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CacheMode {
    /// No cache: every case runs its engine ladder (the default).
    #[default]
    Off,
    /// Replay hits but never write new entries (safe for exploratory runs
    /// against a shared cache).
    ReadOnly,
    /// Replay hits and persist fresh definite verdicts.
    ReadWrite,
}

impl CacheMode {
    /// Parses the accepted spellings (`off`/`0`, `ro`/`readonly`/`read-only`,
    /// `rw`/`readwrite`/`read-write`/`1`/`on`), case-insensitively.
    pub fn parse(text: &str) -> Option<CacheMode> {
        match text.to_ascii_lowercase().as_str() {
            "off" | "0" | "none" | "" => Some(CacheMode::Off),
            "ro" | "readonly" | "read-only" => Some(CacheMode::ReadOnly),
            "rw" | "readwrite" | "read-write" | "1" | "on" => Some(CacheMode::ReadWrite),
            _ => None,
        }
    }

    /// True unless the mode is [`CacheMode::Off`].
    pub fn is_enabled(self) -> bool {
        self != CacheMode::Off
    }
}

/// The 256-bit content address of one case proof.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fingerprint([u8; 32]);

impl Fingerprint {
    /// Computes the fingerprint of proving `case` of `op` on `harness`
    /// under `constraint_parts` with the given escalation `ladder`.
    ///
    /// The netlist contribution is the canonical structural hash of the
    /// sequential cone of influence of the miter and every constraint
    /// conjunct, so logic outside the analyzed cone cannot perturb the key.
    pub fn compute(
        harness: &Harness,
        op: FpuOp,
        case: CaseId,
        constraint_parts: &[Signal],
        ladder: &[EngineStage],
    ) -> Fingerprint {
        Fingerprint::at_revision(ENGINE_REVISION, harness, op, case, constraint_parts, ladder)
    }

    /// [`Fingerprint::compute`] under engine revision `revision`.
    fn at_revision(
        revision: u32,
        harness: &Harness,
        op: FpuOp,
        case: CaseId,
        constraint_parts: &[Signal],
        ladder: &[EngineStage],
    ) -> Fingerprint {
        let mut roots = Vec::with_capacity(constraint_parts.len() + 1);
        roots.push(harness.miter);
        roots.extend_from_slice(constraint_parts);
        let cone = harness.netlist.coi_hash(&roots);

        let mut h = Sha256::new();
        h.update_bytes(b"fmaverify-case-v1");
        h.update_u64(u64::from(CACHE_SCHEMA_VERSION));
        h.update_u64(u64::from(revision));
        h.update(&cone);
        h.update_bytes(format!("{op:?}").as_bytes());
        h.update_bytes(format!("{case:?}").as_bytes());
        h.update_u64(harness.options().pipeline.latency() as u64);
        h.update_u64(ladder.len() as u64);
        for stage in ladder {
            h.update_bytes(stage.engine.name().as_bytes());
            h.update_u64(encode_opt(stage.budget.node_limit.map(|v| v as u64)));
            h.update_u64(encode_opt(stage.budget.conflict_limit));
        }
        Fingerprint(h.finalize())
    }

    /// Lowercase hex form (64 chars) — the JSONL entry key.
    pub fn hex(&self) -> String {
        Sha256::to_hex(&self.0)
    }

    /// The shard file stem this fingerprint lives in (first byte, hex).
    pub fn shard(&self) -> String {
        format!("{:02x}", self.0[0])
    }
}

/// `None` ↦ 0, `Some(v)` ↦ v+1: keeps "unlimited" distinct from every
/// concrete budget in the fingerprint preimage.
fn encode_opt(v: Option<u64>) -> u64 {
    v.map(|v| v.saturating_add(1)).unwrap_or(0)
}

/// One memoized case proof: the attempts that decided it, sufficient to
/// replay a [`crate::runner::CaseResult`].
#[derive(Clone, Debug)]
pub struct CachedCase {
    /// The counterexample when the verdict is [`Verdict::Fails`].
    pub counterexample: Option<CounterExample>,
    /// The original attempt log (ladder order); the last attempt decided
    /// the case and carries its engine, verdict and stats.
    pub attempts: Vec<CaseAttempt>,
    /// Original total wall time across attempts — what the replay saved.
    pub duration: Duration,
}

impl CachedCase {
    /// The verdict of the deciding (last) attempt ([`Verdict::Error`] for
    /// an empty log, which the cache never stores).
    pub fn verdict(&self) -> Verdict {
        self.attempts.last().map_or(Verdict::Error, |a| a.verdict)
    }
}

/// Point-in-time cache activity counters (see [`ProofCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that replayed a stored verdict.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Fresh verdicts written back.
    pub stores: u64,
}

/// The on-disk, content-addressed proof cache.
///
/// Thread-safe: the scheduler's workers look up and store entries
/// concurrently. Stores buffer in memory; [`ProofCache::flush`] (called by
/// the run drivers at the end of each run) rewrites the dirty shards with
/// an atomic temp-file-plus-rename, so a crashed or concurrent run can
/// never leave a half-written shard behind — at worst a shard misses some
/// entries, which only costs re-proving.
pub struct ProofCache {
    dir: PathBuf,
    mode: CacheMode,
    entries: Mutex<HashMap<String, CachedCase>>,
    dirty: Mutex<Vec<String>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl std::fmt::Debug for ProofCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProofCache")
            .field("dir", &self.dir)
            .field("mode", &self.mode)
            .field("entries", &self.len())
            .finish()
    }
}

impl ProofCache {
    /// Opens (or initializes) the cache under `dir`.
    ///
    /// Never fails: a missing directory means an empty cache, and corrupted
    /// shards (unreadable files, truncated or malformed lines, foreign
    /// schema versions) are skipped entry by entry — the worst corruption
    /// can do is force a re-prove.
    pub fn open(dir: impl Into<PathBuf>, mode: CacheMode) -> ProofCache {
        let dir = dir.into();
        let mut entries = HashMap::new();
        if let Ok(listing) = std::fs::read_dir(&dir) {
            let mut shards: Vec<PathBuf> = listing
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
                .collect();
            shards.sort();
            for shard in shards {
                let Ok(text) = std::fs::read_to_string(&shard) else {
                    continue;
                };
                for line in text.lines() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    if let Some((fp, entry)) = parse_entry(line) {
                        entries.insert(fp, entry);
                    }
                }
            }
        }
        ProofCache {
            dir,
            mode,
            entries: Mutex::new(entries),
            dirty: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        }
    }

    /// The cache's mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of loaded entries (persisted plus pending).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache index").len()
    }

    /// True when no entries are loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Activity counters since the cache was opened.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }

    /// Looks up a fingerprint, counting the hit or miss.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<CachedCase> {
        let found = self
            .entries
            .lock()
            .expect("cache index")
            .get(&fp.hex())
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Records a fresh definite verdict under `fp`. No-op unless the mode
    /// is [`CacheMode::ReadWrite`] and the verdict is definite. The entry
    /// becomes visible to lookups immediately and durable at the next
    /// [`ProofCache::flush`].
    pub fn store(&self, fp: &Fingerprint, entry: CachedCase) {
        if self.mode != CacheMode::ReadWrite
            || !matches!(entry.verdict(), Verdict::Holds | Verdict::Fails)
        {
            return;
        }
        let hex = fp.hex();
        let shard = fp.shard();
        self.entries.lock().expect("cache index").insert(hex, entry);
        let mut dirty = self.dirty.lock().expect("dirty set");
        if !dirty.contains(&shard) {
            dirty.push(shard);
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    /// Persists every dirty shard (atomic per shard: write to a temp file
    /// in the same directory, then rename over the shard). Directory
    /// creation is create-once and tolerates concurrent creators; I/O
    /// errors are swallowed — the cache is an accelerator, never a reason
    /// to fail a verification run.
    pub fn flush(&self) {
        let dirty: Vec<String> = std::mem::take(&mut *self.dirty.lock().expect("dirty set"));
        if dirty.is_empty() {
            return;
        }
        // `create_dir_all` succeeds when the directory already exists, so
        // concurrent flushes racing on creation are benign.
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let entries = self.entries.lock().expect("cache index");
        for shard in dirty {
            let mut lines: Vec<(&String, String)> = entries
                .iter()
                .filter(|(fp, _)| fp.starts_with(&shard))
                .map(|(fp, e)| (fp, render_entry(fp, e)))
                .collect();
            // Deterministic shard contents make warm-run artifacts diffable.
            lines.sort_by(|a, b| a.0.cmp(b.0));
            let body: String = lines.into_iter().map(|(_, l)| l).collect();
            let tmp = self
                .dir
                .join(format!(".{shard}.tmp.{}", std::process::id()));
            let final_path = self.dir.join(format!("{shard}.jsonl"));
            if std::fs::write(&tmp, body).is_ok() && std::fs::rename(&tmp, &final_path).is_err() {
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }
}

/// Maps a stored engine-name string back to the static name the engines
/// use, so replayed results render identically to fresh ones.
fn intern_engine_name(name: &str) -> &'static str {
    ENGINE_NAMES
        .into_iter()
        .find(|&n| n == name)
        .unwrap_or("cached")
}

fn parse_duration(v: Option<&JsonValue>) -> Option<Duration> {
    v.and_then(|v| v.as_f64())
        .filter(|s| *s >= 0.0 && s.is_finite())
        .map(Duration::from_secs_f64)
}

fn stats_from_json(v: &JsonValue) -> EngineStats {
    let int = |key: &str| v.get(key).and_then(|v| v.as_u64());
    EngineStats {
        peak_bdd_nodes: int("peak_bdd_nodes").map(|n| n as usize),
        care_nodes: int("care_nodes").map(|n| n as usize),
        sat_conflicts: int("sat_conflicts"),
        coi_ands: int("coi_ands").map(|n| n as usize),
        wall: parse_duration(v.get("wall_seconds")).unwrap_or(Duration::ZERO),
        metrics: v
            .get("counters")
            .map(MetricSet::from_json)
            .unwrap_or_default(),
    }
}

/// The results-JSON counterexample plus the full input `assignment`,
/// which replay needs and results JSON omits.
fn cex_to_json(cex: &CounterExample) -> JsonValue {
    let mut assignment: Vec<(String, JsonValue)> = cex
        .assignment
        .iter()
        .map(|(k, v)| (k.clone(), JsonValue::Bool(*v)))
        .collect();
    assignment.sort_by(|a, b| a.0.cmp(&b.0));
    let mut v = cex.to_json();
    if let JsonValue::Object(fields) = &mut v {
        fields.push(("assignment".to_string(), JsonValue::Object(assignment)));
    }
    v
}

fn cex_from_json(v: &JsonValue) -> Option<CounterExample> {
    let word = |key: &str| -> Option<u128> {
        let s = v.get(key)?.as_str()?;
        u128::from_str_radix(s.strip_prefix("0x")?, 16).ok()
    };
    let assignment: HashMap<String, bool> = v
        .get("assignment")?
        .as_object()?
        .iter()
        .filter_map(|(k, b)| b.as_bool().map(|b| (k.clone(), b)))
        .collect();
    Some(CounterExample {
        assignment,
        a: word("a")?,
        b: word("b")?,
        c: word("c")?,
        op: v.get("op")?.as_u64()? as u32,
        rm: v.get("rm")?.as_u64()? as u32,
        replay_confirmed: v.get("replay_confirmed")?.as_bool()?,
    })
}

fn attempt_from_json(v: &JsonValue) -> Option<CaseAttempt> {
    // A canceled case never ran an attempt.
    let verdict =
        Verdict::from_label(v.get("verdict")?.as_str()?).filter(|v| *v != Verdict::Canceled)?;
    Some(CaseAttempt {
        engine: EngineKind::from_label(v.get("engine")?.as_str()?)?,
        engine_name: intern_engine_name(v.get("engine_name")?.as_str()?),
        budget: EngineBudget {
            node_limit: v
                .get("node_limit")
                .and_then(|v| v.as_u64())
                .map(|n| n as usize),
            conflict_limit: v.get("conflict_limit").and_then(|v| v.as_u64()),
        },
        verdict,
        stats: v.get("stats").map(stats_from_json).unwrap_or_default(),
    })
}

/// Renders one JSONL cache line (trailing newline included).
fn render_entry(fp: &str, entry: &CachedCase) -> String {
    let mut line = JsonValue::object(vec![
        ("v", JsonValue::int(CACHE_SCHEMA_VERSION)),
        ("fp", JsonValue::string(fp)),
        (
            "counterexample",
            JsonValue::opt(entry.counterexample.as_ref(), cex_to_json),
        ),
        ("attempts", entry.attempts.to_json()),
        ("duration_seconds", duration_json(entry.duration)),
    ])
    .render();
    line.push('\n');
    line
}

/// Parses one JSONL cache line; `None` on any malformation (the loader
/// skips such lines).
fn parse_entry(line: &str) -> Option<(String, CachedCase)> {
    let v = JsonValue::parse(line).ok()?;
    if v.get("v")?.as_u64()? != u64::from(CACHE_SCHEMA_VERSION) {
        return None;
    }
    let fp = v.get("fp")?.as_str()?;
    if fp.len() != 64 || !fp.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let attempts = v
        .get("attempts")?
        .as_array()?
        .iter()
        .map(attempt_from_json)
        .collect::<Option<Vec<_>>>()?;
    let counterexample = match v.get("counterexample") {
        None | Some(JsonValue::Null) => None,
        Some(c) => Some(cex_from_json(c)?),
    };
    // Only definite verdicts are memoized, and a failure entry without its
    // counterexample is useless for replay.
    match attempts.last()?.verdict {
        Verdict::Holds => {}
        Verdict::Fails if counterexample.is_some() => {}
        _ => return None,
    }
    Some((
        fp.to_string(),
        CachedCase {
            counterexample,
            attempts,
            duration: parse_duration(v.get("duration_seconds")).unwrap_or(Duration::ZERO),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holds_entry(wall_ms: u64) -> CachedCase {
        CachedCase {
            counterexample: None,
            attempts: vec![CaseAttempt {
                engine: EngineKind::Sat,
                engine_name: "sat/sweep",
                budget: EngineBudget::UNLIMITED,
                verdict: Verdict::Holds,
                stats: EngineStats {
                    sat_conflicts: Some(42),
                    coi_ands: Some(900),
                    wall: Duration::from_millis(wall_ms),
                    ..EngineStats::default()
                },
            }],
            duration: Duration::from_millis(wall_ms),
        }
    }

    #[test]
    fn engine_revision_changes_the_fingerprint() {
        use crate::config::RunConfig;
        use crate::harness::{build_harness, HarnessOptions};
        use crate::runner::SchedulePolicy;
        use fmaverify_fpu::{DenormalMode, FpuConfig};
        use fmaverify_softfloat::FpFormat;

        let cfg = FpuConfig {
            format: FpFormat::new(3, 2),
            denormals: DenormalMode::FlushToZero,
        };
        let (op, case) = (FpuOp::Mul, CaseId::Monolithic);
        let mut h = build_harness(&cfg, HarnessOptions::default());
        let parts = h.case_constraint_parts(op, case);
        let policy = SchedulePolicy::from_config(&RunConfig::default());
        let ladder = policy.ladder(op, case);
        let at = |rev| Fingerprint::at_revision(rev, &h, op, case, &parts, ladder);
        assert_eq!(
            Fingerprint::compute(&h, op, case, &parts, ladder),
            at(ENGINE_REVISION)
        );
        assert_ne!(at(ENGINE_REVISION), at(ENGINE_REVISION + 1));
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(CacheMode::parse("off"), Some(CacheMode::Off));
        assert_eq!(CacheMode::parse("RO"), Some(CacheMode::ReadOnly));
        assert_eq!(CacheMode::parse("rw"), Some(CacheMode::ReadWrite));
        assert_eq!(CacheMode::parse("1"), Some(CacheMode::ReadWrite));
        assert_eq!(CacheMode::parse("bogus"), None);
        assert!(!CacheMode::Off.is_enabled());
        assert!(CacheMode::ReadOnly.is_enabled());
    }

    #[test]
    fn entry_round_trips_through_jsonl() {
        let mut assignment = HashMap::new();
        assignment.insert("a[0]".to_string(), true);
        assignment.insert("b[1]".to_string(), false);
        let entry = CachedCase {
            counterexample: Some(CounterExample {
                assignment,
                a: 0x1f,
                b: 0,
                c: 0x7,
                op: 2,
                rm: 1,
                replay_confirmed: true,
            }),
            attempts: vec![CaseAttempt {
                engine: EngineKind::Bdd,
                engine_name: "bdd/constrain",
                budget: EngineBudget {
                    node_limit: Some(10_000),
                    conflict_limit: None,
                },
                verdict: Verdict::Fails,
                stats: EngineStats {
                    peak_bdd_nodes: Some(1234),
                    care_nodes: Some(56),
                    wall: Duration::from_millis(250),
                    ..EngineStats::default()
                },
            }],
            duration: Duration::from_millis(260),
        };
        let fp = "ab".repeat(32);
        let line = render_entry(&fp, &entry);
        let (fp2, parsed) = parse_entry(line.trim_end()).expect("parses");
        assert_eq!(fp2, fp);
        assert_eq!(parsed.verdict(), Verdict::Fails);
        assert_eq!(parsed.duration, Duration::from_millis(260));
        let cex = parsed.counterexample.expect("cex");
        assert_eq!(cex.a, 0x1f);
        assert_eq!(cex.assignment.get("a[0]"), Some(&true));
        assert!(cex.replay_confirmed);
        assert_eq!(parsed.attempts.len(), 1);
        let attempt = &parsed.attempts[0];
        assert_eq!(attempt.engine, EngineKind::Bdd);
        assert_eq!(attempt.engine_name, "bdd/constrain");
        assert_eq!(attempt.budget.node_limit, Some(10_000));
        assert_eq!(attempt.stats.peak_bdd_nodes, Some(1234));
        assert_eq!(attempt.stats.care_nodes, Some(56));
    }

    /// A schema-2 line whose single attempt has `verdict`.
    fn line_with_verdict(verdict: &str) -> String {
        format!(
            r#"{{"v":2,"fp":"{}","counterexample":null,"attempts":[{{"engine":"sat","engine_name":"sat","verdict":"{verdict}"}}]}}"#,
            "0".repeat(64)
        )
    }

    #[test]
    fn malformed_lines_are_skipped() {
        assert!(parse_entry(&line_with_verdict("holds")).is_some());
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"v":99,"fp":"00"}"#,
            // Fails without a counterexample is not replayable.
            &line_with_verdict("fails"),
            // Only a definite last attempt is memoized.
            &line_with_verdict("budget-exceeded"),
            &line_with_verdict("error"),
            // No attempt log, no verdict.
            &format!(r#"{{"v":2,"fp":"{}","attempts":[]}}"#, "0".repeat(64)),
            // Bad fingerprint shape.
            &line_with_verdict("holds").replace(&"0".repeat(64), "xyz"),
        ] {
            assert!(parse_entry(bad).is_none(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn schema_1_lines_are_skipped_on_load() {
        // A well-formed line as the previous format wrote it: the verdict,
        // engine and stats at entry level, copied from the last attempt.
        let line = format!(
            r#"{{"v":1,"fp":"{}","verdict":"holds","engine":"sat","engine_name":"sat","counterexample":null,"stats":{{"sat_conflicts":3}},"attempts":[{{"engine":"sat","engine_name":"sat","node_limit":null,"conflict_limit":null,"verdict":"holds","stats":{{"sat_conflicts":3}}}}],"duration_seconds":0.01}}"#,
            "0".repeat(64)
        );
        let dir = std::env::temp_dir().join(format!(
            "fmaverify-cache-v1-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("cache dir");
        std::fs::write(dir.join("00.jsonl"), format!("{line}\n")).expect("shard");
        let cache = ProofCache::open(&dir, CacheMode::ReadOnly);
        assert!(cache.is_empty(), "a schema-1 entry must be re-proved");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_flush_reload_and_modes() {
        let dir = std::env::temp_dir().join(format!(
            "fmaverify-cache-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let fp = Fingerprint([7u8; 32]);
        // ReadOnly never writes anything.
        let ro = ProofCache::open(&dir, CacheMode::ReadOnly);
        ro.store(&fp, holds_entry(10));
        ro.flush();
        assert!(!dir.exists(), "ReadOnly must not create the cache dir");
        assert_eq!(ro.stats().stores, 0);

        // ReadWrite persists, and a fresh cache sees the entry.
        let rw = ProofCache::open(&dir, CacheMode::ReadWrite);
        assert!(rw.lookup(&fp).is_none());
        rw.store(&fp, holds_entry(10));
        assert!(rw.lookup(&fp).is_some(), "stores are visible immediately");
        rw.flush();
        assert_eq!(
            rw.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                stores: 1
            }
        );

        let reloaded = ProofCache::open(&dir, CacheMode::ReadOnly);
        assert_eq!(reloaded.len(), 1);
        let entry = reloaded.lookup(&fp).expect("hit after reload");
        assert_eq!(entry.verdict(), Verdict::Holds);
        assert_eq!(entry.attempts[0].stats.sat_conflicts, Some(42));

        // Truncating the shard mid-line loses entries but never panics.
        let shard = dir.join(format!("{}.jsonl", fp.shard()));
        let text = std::fs::read_to_string(&shard).expect("shard exists");
        std::fs::write(&shard, &text[..text.len() / 2]).expect("truncate");
        let corrupted = ProofCache::open(&dir, CacheMode::ReadOnly);
        assert_eq!(corrupted.len(), 0);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
