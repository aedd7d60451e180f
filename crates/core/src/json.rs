//! JSON serialization of verification results.
//!
//! Machine-readable output for the bench binaries' `--json` flag: per-case
//! results, instruction reports and Table-1 rows are rendered as JSON so
//! downstream tooling (regression dashboards, plotting) can consume runs
//! without scraping text tables.
//!
//! This is a small hand-rolled emitter rather than a `serde` derive: the
//! workspace must build in offline environments where crates.io is not
//! reachable, and `serde`'s proc-macro stack cannot be vendored as a shim
//! the way plain-library dependencies can. The [`ToJson`] trait plays the
//! role of `Serialize` for the handful of report types that need it.
//!
//! [`JsonValue::parse`] is the other direction: a recursive-descent reader
//! that reads JSONL traces ([`crate::TraceEvent::from_json`]) and proof-cache
//! shards back, plus accessors (`get`/`as_str`/`as_u64`/…) for walking
//! parsed documents. All machine-readable output carries [`SCHEMA_VERSION`]; the
//! schema is documented in `DESIGN.md`.

use std::fmt::Write as _;
use std::time::Duration;

use crate::engine::{EngineKind, EngineStats};
use crate::error::Error;
use crate::report::TableRow;
use crate::runner::{CaseAttempt, CaseResult, CounterExample, InstructionReport, Verdict};

/// Version stamp emitted in every machine-readable document.
///
/// Version 2 added per-case telemetry: engine counters under `"counters"`,
/// scheduler fields (`queue_latency_seconds`, `stolen`), typed error
/// strings, and the JSONL trace event stream. Version 3 added the per-case
/// `"cached"` flag and the proof-cache counters (`cache.hits` /
/// `cache.misses` / `cache.stores`). Version 4 (this release) emits
/// integers exactly (a dedicated [`JsonValue::Int`] path instead of lossy
/// `f64`), renders non-finite numbers as `null`, adds the `campaign.*`
/// counters, and introduces the mutation-campaign document
/// (`results/mutation_campaign.json`).
pub const SCHEMA_VERSION: u32 = 4;

/// A JSON document fragment.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, emitted exactly (no `f64` round-trip). Parsed numbers
    /// without a fraction or exponent land here.
    Int(i128),
    /// Any other number. Non-finite values (NaN, ±∞) have no JSON
    /// representation and render as `null`.
    Number(f64),
    /// A string (escaped on render).
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for object values.
    pub fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A string value.
    pub fn string(s: impl Into<String>) -> JsonValue {
        JsonValue::String(s.into())
    }

    /// An integer value, exact for every primitive integer type. (The only
    /// fallible conversion is `u128` above `i128::MAX`, which saturates.)
    pub fn int(v: impl TryInto<i128>) -> JsonValue {
        JsonValue::Int(v.try_into().unwrap_or(i128::MAX))
    }

    /// `value.map(f)` or `null`.
    pub fn opt<T>(value: Option<T>, f: impl FnOnce(T) -> JsonValue) -> JsonValue {
        value.map(f).unwrap_or(JsonValue::Null)
    }

    /// Parses a JSON document (the inverse of [`JsonValue::render`]).
    ///
    /// Accepts exactly one value with optional surrounding whitespace.
    /// Number parsing goes through `f64`, matching what the emitter writes;
    /// string escapes cover the emitter's repertoire plus `\uXXXX` (basic
    /// multilingual plane; unpaired surrogates become U+FFFD).
    pub fn parse(text: &str) -> Result<JsonValue, Error> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (integers convert, losing
    /// precision above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            JsonValue::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 9e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> Error {
        Error::JsonParse {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape character")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        // Integer literals (no fraction, no exponent) round-trip exactly
        // through the dedicated integer path.
        if !text.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

impl JsonValue {
    /// Renders the value as a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    /// Renders the value with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize, pretty: bool) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::Number(n) => {
                if !n.is_finite() {
                    // NaN/±∞ have no JSON representation; `null` keeps the
                    // document valid (documented on `SCHEMA_VERSION`).
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                write_seq(out, depth, pretty, '[', ']', items.len(), |out, i| {
                    items[i].write(out, depth + 1, pretty);
                });
            }
            JsonValue::Object(fields) => {
                write_seq(out, depth, pretty, '{', '}', fields.len(), |out, i| {
                    write_escaped(out, &fields[i].0);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    fields[i].1.write(out, depth + 1, pretty);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    depth: usize,
    pretty: bool,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if pretty {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        }
        item(out, i);
    }
    if pretty && len > 0 {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Types renderable as JSON (the offline stand-in for `serde::Serialize`).
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> JsonValue;
}

pub(crate) fn duration_json(d: Duration) -> JsonValue {
    JsonValue::Number(d.as_secs_f64())
}

impl ToJson for EngineKind {
    fn to_json(&self) -> JsonValue {
        JsonValue::string(self.label())
    }
}

impl ToJson for Verdict {
    fn to_json(&self) -> JsonValue {
        JsonValue::string(self.label())
    }
}

impl ToJson for EngineStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            (
                "peak_bdd_nodes",
                JsonValue::opt(self.peak_bdd_nodes, JsonValue::int),
            ),
            (
                "care_nodes",
                JsonValue::opt(self.care_nodes, JsonValue::int),
            ),
            (
                "sat_conflicts",
                JsonValue::opt(self.sat_conflicts, JsonValue::int),
            ),
            ("coi_ands", JsonValue::opt(self.coi_ands, JsonValue::int)),
            ("wall_seconds", duration_json(self.wall)),
            ("counters", self.metrics.to_json()),
        ])
    }
}

impl ToJson for CounterExample {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("a", JsonValue::string(format!("{:#x}", self.a))),
            ("b", JsonValue::string(format!("{:#x}", self.b))),
            ("c", JsonValue::string(format!("{:#x}", self.c))),
            ("op", JsonValue::int(self.op)),
            ("rm", JsonValue::int(self.rm)),
            ("replay_confirmed", JsonValue::Bool(self.replay_confirmed)),
        ])
    }
}

impl ToJson for CaseAttempt {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("engine", self.engine.to_json()),
            ("engine_name", JsonValue::string(self.engine_name)),
            (
                "node_limit",
                JsonValue::opt(self.budget.node_limit, JsonValue::int),
            ),
            (
                "conflict_limit",
                JsonValue::opt(self.budget.conflict_limit, JsonValue::int),
            ),
            ("verdict", self.verdict.to_json()),
            ("stats", self.stats.to_json()),
        ])
    }
}

impl ToJson for CaseResult {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("case", JsonValue::string(format!("{:?}", self.case))),
            (
                "class",
                JsonValue::string(format!("{:?}", self.case.class())),
            ),
            ("op", JsonValue::string(format!("{:?}", self.op))),
            ("engine", JsonValue::opt(self.engine(), |e| e.to_json())),
            ("verdict", self.verdict.to_json()),
            (
                "counterexample",
                JsonValue::opt(self.counterexample.as_ref(), |c| c.to_json()),
            ),
            (
                "error",
                JsonValue::opt(self.error.as_ref(), |e| JsonValue::string(e.to_string())),
            ),
            ("stats", JsonValue::opt(self.stats(), |s| s.to_json())),
            ("attempts", self.attempts.to_json()),
            ("escalations", JsonValue::int(self.escalations() as u64)),
            ("queue_latency_seconds", duration_json(self.queue_latency)),
            ("stolen", JsonValue::Bool(self.stolen)),
            ("cached", JsonValue::Bool(self.cached)),
            ("duration_seconds", duration_json(self.duration)),
        ])
    }
}

impl ToJson for InstructionReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("schema_version", JsonValue::int(SCHEMA_VERSION)),
            ("op", JsonValue::string(format!("{:?}", self.op))),
            ("all_hold", JsonValue::Bool(self.all_hold())),
            ("cases", JsonValue::int(self.results.len() as u64)),
            (
                "escalated_cases",
                JsonValue::int(self.escalated_cases() as u64),
            ),
            ("wall_seconds", duration_json(self.wall)),
            ("accumulated_seconds", duration_json(self.accumulated)),
            (
                "results",
                JsonValue::Array(self.results.iter().map(|r| r.to_json()).collect()),
            ),
        ])
    }
}

impl ToJson for TableRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("op", JsonValue::string(format!("{:?}", self.op))),
            ("class", JsonValue::string(format!("{:?}", self.class))),
            ("cases", JsonValue::int(self.cases as u64)),
            (
                "nodes_avg",
                JsonValue::opt(self.nodes_avg, JsonValue::Number),
            ),
            ("nodes_max", JsonValue::opt(self.nodes_max, JsonValue::int)),
            ("time_avg_seconds", duration_json(self.time_avg)),
            ("time_max_seconds", duration_json(self.time_max)),
            ("time_total_seconds", duration_json(self.time_total)),
        ])
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(|t| t.to_json()).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        self.as_slice().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escapes_and_shapes() {
        let v = JsonValue::object(vec![
            ("s", JsonValue::string("a\"b\\c\nd")),
            ("n", JsonValue::Number(1.5)),
            ("i", JsonValue::int(42u64)),
            ("t", JsonValue::Bool(true)),
            ("z", JsonValue::Null),
            (
                "arr",
                JsonValue::Array(vec![JsonValue::int(1u8), JsonValue::int(2u8)]),
            ),
        ]);
        assert_eq!(
            v.render(),
            r#"{"s":"a\"b\\c\nd","n":1.5,"i":42,"t":true,"z":null,"arr":[1,2]}"#
        );
        // Pretty rendering parses back to the same structure shape-wise.
        let pretty = v.render_pretty();
        assert!(pretty.contains("\n  \"s\": "));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(JsonValue::Number(3.0).render(), "3");
        assert_eq!(JsonValue::Number(3.25).render(), "3.25");
    }

    #[test]
    fn integers_emit_exactly_and_round_trip() {
        // Values above 2^53 used to lose precision through the f64 path,
        // and failed i64 conversions silently became f64::MAX.
        for v in [0u64, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let rendered = JsonValue::int(v).render();
            assert_eq!(rendered, v.to_string(), "exact emission of {v}");
            let parsed = JsonValue::parse(&rendered).unwrap();
            assert_eq!(parsed, JsonValue::Int(v as i128));
            assert_eq!(parsed.as_u64(), Some(v), "round-trip of {v}");
        }
        for v in [i64::MIN, -1, i64::MAX] {
            let rendered = JsonValue::int(v).render();
            assert_eq!(rendered, v.to_string());
            assert_eq!(
                JsonValue::parse(&rendered).unwrap(),
                JsonValue::Int(v as i128)
            );
        }
        // The one fallible conversion saturates instead of turning into a
        // nonsense float.
        assert_eq!(JsonValue::int(u128::MAX), JsonValue::Int(i128::MAX));
        // Integer parses stay integral; float syntax stays a Number.
        assert_eq!(JsonValue::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(
            JsonValue::parse("4.5").unwrap(),
            JsonValue::Number(4.5),
            "fractional literals keep the float path"
        );
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::Number(1000.0));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        // NaN/±∞ would otherwise produce invalid JSON; the documented
        // behavior is `null`.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = JsonValue::object(vec![("x", JsonValue::Number(v))]);
            let text = doc.render();
            assert_eq!(text, r#"{"x":null}"#);
            let parsed = JsonValue::parse(&text).unwrap();
            assert_eq!(parsed.get("x"), Some(&JsonValue::Null));
        }
        // Finite values are untouched by the guard.
        assert_eq!(JsonValue::Number(2.5).render(), "2.5");
    }

    #[test]
    fn case_result_round_trips_key_fields() {
        use crate::engine::{EngineBudget, EngineStats};
        use crate::runner::Verdict;
        use fmaverify_fpu::FpuOp;

        let mut r = CaseResult {
            case: crate::cases::CaseId::FarOut,
            op: FpuOp::Fma,
            verdict: Verdict::Holds,
            counterexample: None,
            error: None,
            attempts: vec![CaseAttempt {
                engine: EngineKind::Sat,
                engine_name: "sat",
                budget: EngineBudget::UNLIMITED,
                verdict: Verdict::Holds,
                stats: EngineStats {
                    sat_conflicts: Some(12),
                    coi_ands: Some(900),
                    ..EngineStats::default()
                },
            }],
            queue_latency: Duration::ZERO,
            stolen: false,
            cached: false,
            duration: Duration::from_millis(5),
        };
        let text = r.to_json().render();
        assert!(text.contains(r#""verdict":"holds""#));
        assert!(text.contains(r#""engine":"sat""#));
        assert!(text.contains(r#""sat_conflicts":12"#));

        // Schema v2: the compact rendering parses back, and the telemetry
        // fields are reachable through the accessors.
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(
            parsed.get("verdict").and_then(|v| v.as_str()),
            Some("holds")
        );
        assert_eq!(
            parsed
                .get("stats")
                .and_then(|s| s.get("sat_conflicts"))
                .and_then(|v| v.as_u64()),
            Some(12)
        );
        assert_eq!(parsed.get("stolen").and_then(|v| v.as_bool()), Some(false));

        // A canceled case ran no attempt: no engine, no stats.
        r.verdict = Verdict::Canceled;
        r.attempts.clear();
        let parsed = JsonValue::parse(&r.to_json().render()).unwrap();
        assert_eq!(parsed.get("engine"), Some(&JsonValue::Null));
        assert_eq!(parsed.get("stats"), Some(&JsonValue::Null));
    }

    #[test]
    fn parser_round_trips_emitter_output() {
        let v = JsonValue::object(vec![
            ("s", JsonValue::string("a\"b\\c\nd\t\u{1}")),
            ("n", JsonValue::Number(1.5)),
            ("neg", JsonValue::int(-2)),
            ("e", JsonValue::Number(1e-3)),
            ("t", JsonValue::Bool(true)),
            ("z", JsonValue::Null),
            ("empty_arr", JsonValue::Array(vec![])),
            ("empty_obj", JsonValue::object(vec![])),
            (
                "nested",
                JsonValue::Array(vec![
                    JsonValue::int(1u8),
                    JsonValue::object(vec![("k", JsonValue::string("v"))]),
                ]),
            ),
        ]);
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
        assert_eq!(JsonValue::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{} {}",
        ] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert!(
                matches!(err, crate::error::Error::JsonParse { .. }),
                "{bad:?} should fail with JsonParse, got {err:?}"
            );
        }
    }

    #[test]
    fn parser_handles_unicode_escapes() {
        let v = JsonValue::parse(r#""Aé\ud800""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé\u{fffd}"));
    }
}
