//! # mondrian-obs
//!
//! The deterministic observability layer: every number this crate emits
//! derives from the *simulated* machines — never from the host clock,
//! the worker count, or thread scheduling — so traces and metrics are
//! byte-identical for every `--jobs` value.
//!
//! Two surfaces, plus one naming helper:
//!
//! * [`Tracer`] — spans and counter samples stamped in simulated
//!   picoseconds, exported as Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`).
//! * [`ProgressSink`] — the hook surface (stage started/finished, wave
//!   completed, sweep point done) the CLI wires to `--progress jsonl`.
//! * [`exit_counter_key`] — the `engine.exits.<reason>` path under which
//!   campaign exit reasons roll into the artifact's `metrics` block. The
//!   block itself is a [`mondrian_sim::Stats`] registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod progress;
mod trace;

pub use counters::exit_counter_key;
pub use progress::{ProgressEvent, ProgressSink};
pub use trace::{Arg, Tracer};

/// Escapes `s` as the body of a JSON string literal (quotes not
/// included). Control characters become `\uXXXX`.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders `f` the way the artifact serializer does: integral finite
/// floats below 1e15 as `x.0`, everything else shortest-roundtrip — so
/// observability output is byte-stable alongside `result.json`.
pub(crate) fn format_f64(f: f64) -> String {
    if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_control_and_quotes() {
        assert_eq!(escape_json("a\"b\\c\u{1}"), "a\\\"b\\\\c\\u0001");
        assert_eq!(escape_json("plain"), "plain");
    }

    #[test]
    fn float_format_matches_artifact_convention() {
        assert_eq!(format_f64(2.0), "2.0");
        assert_eq!(format_f64(0.5), "0.5");
        // >= 1e15 falls through to Rust's shortest-roundtrip Display,
        // matching the artifact serializer exactly.
        assert_eq!(format_f64(1e18), "1000000000000000000");
    }
}
