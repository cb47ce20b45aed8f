//! Error types for the correlated-aggregation framework.

use cora_sketch::SketchError;
use std::fmt;

/// Errors produced by correlated sketches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Algorithm 3, step 1: no level `ℓ` has `Y_ℓ > c`, so the structure
    /// cannot answer the query. Under the paper's parameter choices this
    /// happens with probability at most `δ`; with aggressively small practical
    /// parameters it can also indicate that `alpha` was chosen too small for
    /// the stream.
    QueryFailed {
        /// The threshold that could not be answered.
        threshold: u64,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// What went wrong.
        detail: String,
    },
    /// The query threshold exceeds the configured `y_max`.
    ThresholdOutOfRange {
        /// The requested threshold.
        threshold: u64,
        /// The configured maximum y value.
        y_max: u64,
    },
    /// An inserted tuple's y value exceeds the configured `y_max`.
    YOutOfRange {
        /// The offending y value.
        y: u64,
        /// The configured maximum y value.
        y_max: u64,
    },
    /// Two correlated sketches cannot be merged: they were built with
    /// different configurations (accuracy parameters, y domain, level count,
    /// bucket policy, or hash seed). Property V requires merged structures to
    /// share all of these.
    IncompatibleMerge {
        /// What differed.
        detail: String,
    },
    /// A snapshot could not be decoded: wrong magic/version/kind, checksum
    /// mismatch, truncation, or a payload describing an impossible state.
    Snapshot {
        /// What was wrong with the snapshot bytes.
        detail: String,
    },
    /// A window query reaches back past the retention horizon: panes covering
    /// part of the requested span were already expired, so any answer would
    /// silently undercount. Re-issue the query with a window that starts at or
    /// after `earliest_available`.
    WindowExpired {
        /// The requested (inclusive) start of the window, in ticks.
        requested_start: u64,
        /// The earliest timestamp still covered by retained panes.
        earliest_available: u64,
    },
    /// An underlying whole-stream sketch failed (merge mismatch etc.).
    Sketch(SketchError),
}

/// Validate that an accuracy or failure-probability parameter lies in
/// `(0, 1)`.
pub(crate) fn check_unit_interval(name: &'static str, value: f64) -> Result<()> {
    if value > 0.0 && value < 1.0 {
        return Ok(());
    }
    Err(CoreError::InvalidParameter {
        name,
        detail: format!("must be in (0,1), got {value}"),
    })
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::QueryFailed { threshold } => write!(
                f,
                "correlated query for threshold {threshold} cannot be answered (all levels evicted past it)"
            ),
            CoreError::InvalidParameter { name, detail } => {
                write!(f, "invalid parameter `{name}`: {detail}")
            }
            CoreError::ThresholdOutOfRange { threshold, y_max } => {
                write!(f, "query threshold {threshold} exceeds y_max {y_max}")
            }
            CoreError::YOutOfRange { y, y_max } => {
                write!(f, "tuple y value {y} exceeds configured y_max {y_max}")
            }
            CoreError::IncompatibleMerge { detail } => {
                write!(f, "sketches cannot be merged: {detail}")
            }
            CoreError::Snapshot { detail } => {
                write!(f, "snapshot rejected: {detail}")
            }
            CoreError::WindowExpired { requested_start, earliest_available } => write!(
                f,
                "window starting at tick {requested_start} reaches past the retention horizon \
                 (earliest retained tick is {earliest_available})"
            ),
            CoreError::Sketch(e) => write!(f, "sketch error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Sketch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SketchError> for CoreError {
    fn from(e: SketchError) -> Self {
        CoreError::Sketch(e)
    }
}

/// Result alias for the core crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::QueryFailed { threshold: 42 };
        assert!(e.to_string().contains("42"));
        let e = CoreError::ThresholdOutOfRange { threshold: 10, y_max: 5 };
        assert!(e.to_string().contains("10") && e.to_string().contains("5"));
        let e = CoreError::YOutOfRange { y: 9, y_max: 7 };
        assert!(e.to_string().contains("y value 9"));
    }

    #[test]
    fn sketch_errors_convert() {
        let s = SketchError::EmptyQuery;
        let c: CoreError = s.into();
        assert!(matches!(c, CoreError::Sketch(_)));
        assert!(std::error::Error::source(&c).is_some());
    }
}
