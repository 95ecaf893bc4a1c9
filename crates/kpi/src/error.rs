//! Typed errors for the KPI simulator: malformed inputs degrade into
//! values the caller can route, never aborts.

use std::fmt;

/// The snapshot's catalog lacks a parameter the traffic/handover
/// simulator needs to read (e.g. `qRxLevMin`, `sFreqPrio`,
/// `hysA3Offset`). Earlier versions panicked here, which turned a
/// malformed snapshot into an abort mid-feedback-loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingParameter {
    /// The vendor-style parameter name that could not be resolved.
    pub name: &'static str,
}

impl fmt::Display for MissingParameter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot catalog is missing parameter {:?}", self.name)
    }
}

impl std::error::Error for MissingParameter {}
