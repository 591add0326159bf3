//! No-op stand-ins for the rooting protocol of the mark/sweep collector
//! that per-pair compaction replaced. Kept only for campbench's traced
//! replay, which still calls them; nothing else may.

use campion_bdd::Manager;

use crate::driver::CampionOptions;
use crate::headerloc::RangeDag;
use crate::semantic::PolicyPath;

/// Kept only for campbench's traced replay: what
/// `CampionOptions::effective_gc` returns. There is no collector to
/// configure.
#[derive(Debug, Clone, Copy)]
pub struct NoGc;

impl NoGc {
    /// Kept only for campbench's traced replay: there is nothing to
    /// install.
    pub fn policy(self) {}
}

impl CampionOptions {
    /// Kept only for campbench's traced replay: there is no collector to
    /// configure.
    pub fn effective_gc(&self) -> NoGc {
        NoGc
    }
}

impl RangeDag {
    /// Kept only for campbench's traced replay: does nothing.
    pub fn release(&self, _manager: &mut Manager) {}
}

/// Kept only for campbench's traced replay: does nothing.
pub fn release_paths(_manager: &mut Manager, _paths: &[PolicyPath]) {}
