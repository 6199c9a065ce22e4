//! The front end's error type.

/// Errors surfaced by the RACC front end.
#[derive(Debug, Clone, PartialEq)]
pub enum RaccError {
    /// The backend could not satisfy an allocation (e.g. simulated device
    /// out of memory).
    Allocation(String),
    /// A requested backend is not recognized.
    BackendUnavailable(String),
    /// An array from one context was passed to another.
    WrongContext {
        /// Context the array belongs to.
        array_ctx: u64,
        /// Context that received the call.
        this_ctx: u64,
    },
    /// A shape/size mismatch in an array operation.
    ShapeMismatch(String),
    /// Invalid configuration (preferences, thread counts, ...).
    InvalidConfig(String),
    /// A device-side failure from a (simulated) accelerator runtime —
    /// invalid launch geometry, cross-device handles, bad copies. The
    /// simulator error types convert into this (or [`Allocation`] for
    /// out-of-memory) via `From`, so `?` unifies them.
    ///
    /// [`Allocation`]: RaccError::Allocation
    Device(String),
}

impl std::fmt::Display for RaccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaccError::Allocation(msg) => write!(f, "allocation failed: {msg}"),
            RaccError::BackendUnavailable(name) => {
                write!(f, "backend {name:?} is not available")
            }
            RaccError::WrongContext {
                array_ctx,
                this_ctx,
            } => write!(
                f,
                "array belongs to context {array_ctx}, not context {this_ctx}"
            ),
            RaccError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            RaccError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            RaccError::Device(msg) => write!(f, "device error: {msg}"),
        }
    }
}

impl std::error::Error for RaccError {}

// A malformed `FaultPlan` script is a configuration problem, so `?`
// unifies `FaultPlan::parse` with the builder's error flow.
impl From<racc_chaos::ParseError> for RaccError {
    fn from(e: racc_chaos::ParseError) -> Self {
        RaccError::InvalidConfig(e.to_string())
    }
}
