//! The crate-wide typed error.
//!
//! Before PR 2 every failure path carried a bare `String`: engine panics,
//! missing SAT models, and I/O problems were indistinguishable to callers.
//! [`Error`] collapses those into one enum with enough source context to
//! route on (`EngineOutcome::Error` and `CaseResult::error` now carry it).
//!
//! The enum is `Clone` because `EngineOutcome` is `Clone` (results are
//! duplicated into the per-case attempt log); `std::io::Error` is not, so
//! I/O causes are captured as rendered strings at the point of failure.

use std::fmt;

use crate::cases::CaseId;
use crate::engine::EngineKind;

/// Typed error for verification runs, telemetry sinks, and trace parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A case engine panicked mid-check. The scheduler catches the unwind,
    /// records the payload, and keeps the run alive.
    EnginePanic {
        /// Name of the engine that panicked (e.g. `"bdd"`, `"sat"`).
        engine: &'static str,
        /// The panic payload, rendered to a string.
        message: String,
    },
    /// An engine reported a failed property but could not produce a model
    /// to decode into a counterexample.
    MissingModel {
        /// Which engine kind dropped the model.
        engine: EngineKind,
    },
    /// A harness handed to the scheduler still has registers. The engines
    /// do not step registers, so every verdict would be false; check a
    /// pipelined harness through its unrolled view
    /// ([`crate::sequential::engine_view`]).
    SequentialNetlist {
        /// Registers in the netlist.
        latches: usize,
    },
    /// The schedule policy gives a case an empty engine ladder
    /// ([`crate::SchedulePolicy::ladder`]), so no engine can decide it.
    EmptyLadder {
        /// The case without engines.
        case: CaseId,
    },
    /// An I/O failure, typically from a JSONL trace sink or a results
    /// writer. The underlying `std::io::Error` is rendered eagerly because
    /// it is not `Clone`.
    Io {
        /// What was being attempted (e.g. a file path).
        context: String,
        /// The rendered `std::io::Error`.
        message: String,
    },
    /// Malformed JSON fed to [`crate::json::JsonValue::parse`].
    JsonParse {
        /// Byte offset of the first unparseable input.
        offset: usize,
        /// What the parser expected.
        message: String,
    },
    /// A JSONL trace stream parsed as JSON but did not match the trace
    /// event schema (see `DESIGN.md` §"Machine-readable schema v2").
    TraceSchema {
        /// Description of the mismatch.
        message: String,
    },
}

impl Error {
    /// Builds an [`Error::Io`] from a `std::io::Error` plus context.
    pub fn io(context: impl Into<String>, err: &std::io::Error) -> Self {
        Error::Io {
            context: context.into(),
            message: err.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EnginePanic { engine, message } => {
                write!(f, "{engine} engine panicked: {message}")
            }
            Error::MissingModel { engine } => {
                write!(f, "{engine:?} engine reported failure without a model")
            }
            Error::SequentialNetlist { latches } => write!(
                f,
                "netlist has {latches} registers; check the pipelined harness through engine_view"
            ),
            Error::EmptyLadder { case } => write!(f, "no engine in the ladder for case {case:?}"),
            Error::Io { context, message } => write!(f, "i/o error ({context}): {message}"),
            Error::JsonParse { offset, message } => {
                write!(f, "json parse error at byte {offset}: {message}")
            }
            Error::TraceSchema { message } => write!(f, "malformed trace event: {message}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_source_context() {
        let e = Error::EnginePanic {
            engine: "sat",
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "sat engine panicked: boom");
        let e = Error::MissingModel {
            engine: EngineKind::Bdd,
        };
        assert!(e.to_string().contains("without a model"));
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = Error::io("results/x.jsonl", &io);
        assert!(e.to_string().contains("results/x.jsonl"));
        assert!(e.to_string().contains("gone"));
    }
}
