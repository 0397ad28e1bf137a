//! Error types for the PHY.

use std::fmt;

/// Errors surfaced by PHY configuration and framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhyError {
    /// A configuration field is out of its valid range.
    InvalidConfig {
        /// Which field.
        field: &'static str,
        /// Why it is invalid.
        reason: String,
    },
    /// A frame failed to parse (bad length header, truncated body, …).
    MalformedFrame {
        /// Human-readable cause.
        reason: String,
    },
    /// The payload exceeds what the length header can express.
    PayloadTooLarge {
        /// Bytes requested.
        got: usize,
        /// Maximum representable.
        max: usize,
    },
    /// A trace sink could not be built or failed while writing (bad path,
    /// full disk, or a sink requested in a build without the `trace`
    /// feature).
    TraceSink {
        /// Human-readable cause.
        reason: String,
    },
    /// A cooperative run was cancelled (client cancel or per-job timeout)
    /// before completing; checked between frames, so partial work up to
    /// `frames_done` completed normally and was then discarded.
    Cancelled {
        /// Frames that finished before the cancellation was observed.
        frames_done: u64,
    },
}

impl fmt::Display for PhyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhyError::InvalidConfig { field, reason } => {
                write!(f, "invalid config: {field}: {reason}")
            }
            PhyError::MalformedFrame { reason } => write!(f, "malformed frame: {reason}"),
            PhyError::PayloadTooLarge { got, max } => {
                write!(f, "payload of {got} bytes exceeds maximum {max}")
            }
            PhyError::TraceSink { reason } => write!(f, "trace sink: {reason}"),
            PhyError::Cancelled { frames_done } => {
                write!(f, "run cancelled after {frames_done} frames")
            }
        }
    }
}

impl std::error::Error for PhyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PhyError::InvalidConfig {
            field: "feedback_ratio",
            reason: "must be even".into(),
        };
        assert_eq!(e.to_string(), "invalid config: feedback_ratio: must be even");
        let e = PhyError::PayloadTooLarge { got: 70000, max: 65535 };
        assert!(e.to_string().contains("70000"));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&PhyError::MalformedFrame { reason: "x".into() });
    }
}
