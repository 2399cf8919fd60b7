//! The [`Jobs`] abstraction: one read-only view over any job storage.
//!
//! The characterization passes used to take `&[WorkloadFeatures]`
//! slices, which forced every storage backend to materialize an
//! owned, contiguous copy of the population. `Jobs` replaces those
//! parameters with the minimal contract the passes actually need —
//! a length and per-index feature access — so the legacy `Vec` path
//! and the columnar `JobStore` in `pai-trace` compile against one
//! abstraction, and a 10M-job store never has to clone itself into a
//! slice just to be characterized.

use std::ops::Range;

use crate::features::WorkloadFeatures;

/// One index range of a store that keeps a column per
/// [`WorkloadFeatures`] field: row `k` of every slice is job
/// `range.start + k`, so all seven slices have the range's length.
///
/// Classes are [`crate::Architecture::index`] values; cNode counts and
/// batch sizes are `u32`, and the four volumes are the raw `f64`s the
/// record holds.
#[derive(Debug, Clone, Copy)]
pub struct JobColumns<'a> {
    /// Each job's class as its [`crate::Architecture::index`].
    pub arch: &'a [u8],
    /// cNode counts.
    pub cnodes: &'a [u32],
    /// Per-replica batch sizes.
    pub batch: &'a [u32],
    /// `S_d` in bytes.
    pub input_bytes: &'a [f64],
    /// `S_w` in bytes.
    pub weight_bytes: &'a [f64],
    /// `#FLOPs`.
    pub flops: &'a [f64],
    /// `S_mem_access` in bytes.
    pub mem_access_bytes: &'a [f64],
}

impl JobColumns<'_> {
    /// The row count: the length of the class column.
    pub fn len(&self) -> usize {
        self.arch.len()
    }

    /// True when the range holds no rows.
    pub fn is_empty(&self) -> bool {
        self.arch.is_empty()
    }
}

/// A read-only, indexable collection of jobs.
///
/// Implementations must be cheap to call per index (the chunked
/// passes call [`Jobs::get`] once per job) and `Sync` so chunks can
/// be evaluated on worker threads.
pub trait Jobs: Sync {
    /// The number of jobs.
    fn len(&self) -> usize;

    /// The features of job `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    fn get(&self, index: usize) -> WorkloadFeatures;

    /// True when the collection holds no jobs.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stable id of job `index`. Defaults to the index itself;
    /// stores that preserve externally assigned ids override this.
    fn id_at(&self, index: usize) -> usize {
        index
    }

    /// Iterates the jobs in index order.
    fn iter_jobs(&self) -> JobsIter<'_, Self> {
        JobsIter {
            jobs: self,
            next: 0,
        }
    }

    /// Jobs `range` as column slices, when the store keeps one column
    /// per field and holds the whole range contiguously. The default is
    /// `None`, which sends a pass back to [`Jobs::get`]: a
    /// `Vec<WorkloadFeatures>` keeps its records as they are, including
    /// cNode counts or batch sizes too large for a `u32` column.
    fn columns(&self, _range: Range<usize>) -> Option<JobColumns<'_>> {
        None
    }
}

/// Index-order iterator over any [`Jobs`] implementation.
#[derive(Debug)]
pub struct JobsIter<'a, J: Jobs + ?Sized> {
    jobs: &'a J,
    next: usize,
}

impl<J: Jobs + ?Sized> Iterator for JobsIter<'_, J> {
    type Item = WorkloadFeatures;

    fn next(&mut self) -> Option<WorkloadFeatures> {
        if self.next >= self.jobs.len() {
            return None;
        }
        let job = self.jobs.get(self.next);
        self.next += 1;
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.jobs.len().saturating_sub(self.next);
        (remaining, Some(remaining))
    }
}

impl Jobs for [WorkloadFeatures] {
    fn len(&self) -> usize {
        <[WorkloadFeatures]>::len(self)
    }

    fn get(&self, index: usize) -> WorkloadFeatures {
        self[index]
    }
}

impl Jobs for Vec<WorkloadFeatures> {
    fn len(&self) -> usize {
        <[WorkloadFeatures]>::len(self)
    }

    fn get(&self, index: usize) -> WorkloadFeatures {
        self[index]
    }
}

impl<J: Jobs + ?Sized> Jobs for &J {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn get(&self, index: usize) -> WorkloadFeatures {
        (**self).get(index)
    }

    fn id_at(&self, index: usize) -> usize {
        (**self).id_at(index)
    }

    fn columns(&self, range: Range<usize>) -> Option<JobColumns<'_>> {
        (**self).columns(range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;

    fn jobs(n: usize) -> Vec<WorkloadFeatures> {
        (0..n)
            .map(|i| {
                WorkloadFeatures::builder(Architecture::PsWorker)
                    .cnodes(2 + i)
                    .build()
            })
            .collect()
    }

    #[test]
    fn slice_and_vec_views_agree() {
        let v = jobs(5);
        let s: &[WorkloadFeatures] = &v;
        assert_eq!(Jobs::len(&v), 5);
        assert_eq!(Jobs::len(s), 5);
        assert!(!Jobs::is_empty(s));
        for i in 0..5 {
            assert_eq!(Jobs::get(&v, i), Jobs::get(s, i));
            assert_eq!(Jobs::id_at(s, i), i);
        }
    }

    #[test]
    fn iter_jobs_walks_index_order() {
        let v = jobs(4);
        let walked: Vec<usize> = v.iter_jobs().map(|j| j.cnodes()).collect();
        assert_eq!(walked, vec![2, 3, 4, 5]);
        assert_eq!(v.iter_jobs().size_hint(), (4, Some(4)));
    }

    #[test]
    fn empty_collection() {
        let v: Vec<WorkloadFeatures> = Vec::new();
        assert!(Jobs::is_empty(&v));
        assert_eq!(v.iter_jobs().count(), 0);
    }

    #[test]
    fn record_stores_lend_no_columns() {
        let v = jobs(3);
        assert!(Jobs::columns(&v, 0..3).is_none());
        assert!(Jobs::columns(&&v[..], 0..2).is_none());
    }
}
