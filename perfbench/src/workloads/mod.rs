//! The four workloads. Each builds its inputs from the seed through
//! the program's public API, runs one pass per operation, and checks
//! every pass's output outside the timed region.

pub mod analyze;
pub mod ingest;
pub mod price;
pub mod schedule;

pub use analyze::Analyze;
pub use ingest::Ingest;
pub use price::Price;
pub use schedule::Schedule;

use pai_par::Threads;

use crate::spans::Tracer;

/// Every pass runs on one worker thread, set explicitly so that the
/// `PAI_THREADS` environment variable cannot change what is measured.
pub const ONE: Threads = Threads::SERIAL;

/// What a check learned from one pass's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Checked {
    /// Fingerprint of the whole output; every pass must match the
    /// warm-up pass's.
    pub digest: u64,
    /// Domain counts the traced run reports (per-layer metric name,
    /// value); they must not change from pass to pass.
    pub counts: Vec<(&'static str, f64)>,
}

/// One benchmark workload.
pub trait Workload {
    /// Name on the command line.
    const NAME: &'static str;
    /// Trace jobs the benchmark's inputs hold.
    const JOBS: usize;
    /// Everything a pass reads.
    type Inputs;
    /// What the checks compare passes against.
    type Reference;
    /// One pass's result.
    type Output;

    /// Builds, from the seed, everything a pass reads. This is what
    /// `setup_s` times.
    ///
    /// # Errors
    ///
    /// Any error a public call returns.
    fn setup(jobs: usize, seed: u64, t: &mut Tracer) -> Result<Self::Inputs, String>;

    /// Trace jobs one pass processes.
    fn jobs_per_pass(inputs: &Self::Inputs) -> usize;

    /// Builds the reference the checks use, once and untimed, by a
    /// path independent of the pass where the program offers one.
    ///
    /// # Errors
    ///
    /// Any error a public call returns.
    fn reference(inputs: &Self::Inputs) -> Result<Self::Reference, String>;

    /// One timed pass.
    ///
    /// # Errors
    ///
    /// Any error a public call returns; the pass counts as failed.
    fn pass(inputs: &Self::Inputs, t: &mut Tracer) -> Result<Self::Output, String>;

    /// Checks one pass's output.
    ///
    /// # Errors
    ///
    /// A description of the first property the output breaks.
    fn check(
        inputs: &Self::Inputs,
        reference: &Self::Reference,
        out: &Self::Output,
    ) -> Result<Checked, String>;
}

/// Turns a failed property into a check error.
pub(crate) fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}
