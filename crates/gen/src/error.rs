use std::error::Error;
use std::fmt;

/// Errors from the graph generators.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GenError {
    /// A parameter combination is infeasible or out of range (message
    /// explains which constraint failed).
    InvalidParameter(String),
    /// Randomized construction failed to produce a simple graph after
    /// the configured number of restarts (can happen for extreme
    /// near-complete parameter choices).
    ConstructionFailed {
        /// How many full restarts were attempted.
        attempts: usize,
    },
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::InvalidParameter(message) => write!(f, "invalid parameter: {message}"),
            GenError::ConstructionFailed { attempts } => {
                write!(
                    f,
                    "randomized construction failed after {attempts} attempts"
                )
            }
        }
    }
}

impl Error for GenError {}

impl GenError {
    /// Rejects an element count whose ids would overflow the 32-bit id
    /// types (`VertexId` for vertices and cells, `NetId` for nets):
    /// generators cast ids with `as`, which would silently truncate.
    pub(crate) fn check_id_range(what: &str, count: usize) -> Result<(), GenError> {
        if count > u32::MAX as usize {
            return Err(GenError::InvalidParameter(format!(
                "{what} = {count} exceeds the 32-bit id range (at most {})",
                u32::MAX
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_invalid_parameter() {
        let e = GenError::InvalidParameter("d must be < n".into());
        assert_eq!(e.to_string(), "invalid parameter: d must be < n");
    }

    #[test]
    fn display_construction_failed() {
        let e = GenError::ConstructionFailed { attempts: 40 };
        assert!(e.to_string().contains("40"));
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GenError>();
    }
}
