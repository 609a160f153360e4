//! Error type for design space exploration.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, DseError>;

/// Errors raised while exploring a design space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DseError {
    /// A transformation failed while evaluating a design point.
    Xform(defacto_xform::XformError),
    /// A search had no design to choose from: an empty space or a zero
    /// evaluation budget.
    EmptySpace,
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::Xform(e) => write!(f, "transformation failed: {e}"),
            DseError::EmptySpace => write!(f, "no design to search: empty space or zero budget"),
        }
    }
}

impl std::error::Error for DseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DseError::Xform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<defacto_xform::XformError> for DseError {
    fn from(e: defacto_xform::XformError) -> Self {
        DseError::Xform(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(!DseError::EmptySpace.to_string().is_empty());
        assert!(DseError::Xform(defacto_xform::XformError::NotPerfectNest)
            .to_string()
            .contains("transformation"));
    }
}
