//! Shared support for the experiment-regeneration binaries.
//!
//! Every binary in this crate regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index). The floating-point format is scaled
//! down by default so a full sweep runs on one machine; set
//! `FMAVERIFY_EXP`/`FMAVERIFY_FRAC` to change it, or `FMAVERIFY_FULL_DP=1`
//! to run the selected experiment at IEEE double precision (slow).

#![warn(missing_docs)]

use fmaverify_fpu::{DenormalMode, FpuConfig};
use fmaverify_softfloat::FpFormat;

/// The benchmark format, from the environment (default 4-bit exponent,
/// 4-bit fraction; `FMAVERIFY_FULL_DP=1` selects binary64).
pub fn bench_format() -> FpFormat {
    if std::env::var_os("FMAVERIFY_FULL_DP").is_some() {
        return FpFormat::DOUBLE;
    }
    let exp = env_u32("FMAVERIFY_EXP", 4);
    let frac = env_u32("FMAVERIFY_FRAC", 4);
    FpFormat::new(exp, frac)
}

/// The benchmark configuration (flush-to-zero unless `FMAVERIFY_FULL_IEEE`
/// is set).
pub fn bench_config() -> FpuConfig {
    FpuConfig {
        format: bench_format(),
        denormals: if std::env::var_os("FMAVERIFY_FULL_IEEE").is_some() {
            DenormalMode::FullIeee
        } else {
            DenormalMode::FlushToZero
        },
    }
}

/// Reads a `u32` from the environment with a default.
pub fn env_u32(name: &str, default: u32) -> u32 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Prints a standard experiment header.
pub fn banner(experiment: &str, paper_ref: &str) {
    let cfg = bench_config();
    println!("================================================================");
    println!("experiment: {experiment}");
    println!("paper:      {paper_ref}");
    println!(
        "format:     ({}, {}) {:?}",
        cfg.format.exp_bits(),
        cfg.format.frac_bits(),
        cfg.denormals
    );
    println!("================================================================\n");
}

/// Formats a duration compactly.
pub fn dur(d: std::time::Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2}s", d.as_secs_f64())
    } else {
        format!("{:.1}ms", d.as_secs_f64() * 1e3)
    }
}

/// True when the binary was asked for machine-readable output, via the
/// `--json` flag or `FMAVERIFY_JSON=1`.
pub fn json_requested() -> bool {
    std::env::args().any(|a| a == "--json") || std::env::var_os("FMAVERIFY_JSON").is_some()
}

/// Writes per-case results under `results/<experiment>.json` when
/// [`json_requested`] — the value is only rendered if the flag is set.
/// Returns the path written.
///
/// The payload is wrapped in a schema-versioned envelope (see DESIGN.md):
///
/// ```json
/// { "schema_version": 4, "experiment": "...", "format": {...}, "data": ... }
/// ```
pub fn maybe_write_json(
    experiment: &str,
    value: impl FnOnce() -> fmaverify::JsonValue,
) -> Option<std::path::PathBuf> {
    if !json_requested() {
        return None;
    }
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results/ directory");
    let path = dir.join(format!("{experiment}.json"));
    let cfg = bench_config();
    let envelope = fmaverify::JsonValue::object(vec![
        (
            "schema_version",
            fmaverify::JsonValue::int(u64::from(fmaverify::SCHEMA_VERSION)),
        ),
        ("experiment", fmaverify::JsonValue::string(experiment)),
        (
            "format",
            fmaverify::JsonValue::object(vec![
                (
                    "exp_bits",
                    fmaverify::JsonValue::int(u64::from(cfg.format.exp_bits())),
                ),
                (
                    "frac_bits",
                    fmaverify::JsonValue::int(u64::from(cfg.format.frac_bits())),
                ),
                (
                    "denormals",
                    fmaverify::JsonValue::string(format!("{:?}", cfg.denormals)),
                ),
            ]),
        ),
        ("data", value()),
    ]);
    std::fs::write(&path, envelope.render_pretty()).expect("write JSON results");
    println!("json:       wrote {}", path.display());
    Some(path)
}

/// Builds the tracer the environment asks for: `FMAVERIFY_TRACE=1` streams
/// JSONL telemetry to `results/<experiment>.trace.jsonl`,
/// `FMAVERIFY_TRACE=<path>` streams to that path, unset returns the
/// near-zero-cost disabled tracer.
pub fn tracer_from_env(experiment: &str) -> fmaverify::Tracer {
    let Some(value) = std::env::var_os("FMAVERIFY_TRACE") else {
        return fmaverify::Tracer::disabled();
    };
    let path = match value.to_str() {
        Some("") | Some("0") | None => return fmaverify::Tracer::disabled(),
        Some("1") => {
            std::fs::create_dir_all("results").expect("create results/ directory");
            std::path::PathBuf::from(format!("results/{experiment}.trace.jsonl"))
        }
        Some(p) => std::path::PathBuf::from(p),
    };
    let tracer = fmaverify::Tracer::to_jsonl_file(&path).expect("open trace file");
    println!("trace:      streaming to {}", path.display());
    tracer
}

/// The typed run configuration for one experiment: [`RunConfig::from_env`]
/// (budgets, threads, escalation, proof-cache mode via `FMAVERIFY_CACHE`)
/// with the experiment's tracer ([`tracer_from_env`]) attached — the one
/// env/arg parser shared by every binary in this crate.
///
/// [`RunConfig::from_env`]: fmaverify::RunConfig::from_env
pub fn run_config_from_env(experiment: &str) -> fmaverify::RunConfig {
    let config = fmaverify::RunConfig::from_env().tracer(tracer_from_env(experiment));
    if config.cache_mode.is_enabled() {
        println!(
            "cache:      {:?} at {}",
            config.cache_mode,
            config.cache_dir.display()
        );
    }
    config
}

/// A paper-vs-measured comparison line for EXPERIMENTS.md.
pub fn compare(label: &str, paper: &str, measured: &str, shape_holds: bool) {
    println!(
        "  {:<44} paper: {:<22} measured: {:<22} [{}]",
        label,
        paper,
        measured,
        if shape_holds { "shape OK" } else { "MISMATCH" }
    );
}
