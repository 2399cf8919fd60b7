//! The arena-backed columnar job store.
//!
//! [`JobStore`] replaces the old array-of-structs `Vec<JobRecord>`
//! population storage with one column per [`WorkloadFeatures`] field,
//! each held in a [`pai_par::ChunkedVec`] arena segmented at
//! [`crate::population::JOB_CHUNK`] rows. The layout buys three
//! things:
//!
//! - **Append without relocation.** Arena segments are allocated once
//!   and never copied, so ingest is amortized allocation-free — one
//!   segment allocation per [`crate::population::JOB_CHUNK`] rows per
//!   column, never a doubling `memcpy` of the whole population.
//! - **Chunk-aligned determinism.** Segment boundaries coincide with
//!   the sampling/scatter chunk grid, so a store built by parallel
//!   generation, serial generation or streaming ingest is the same
//!   object, row for row.
//! - **Narrow scans.** Aggregations that need one field (class
//!   counts, cNode totals) walk one dense column instead of striding
//!   over whole records.
//!
//! The store implements [`pai_core::Jobs`], so every analysis in
//! `pai-core` runs against it directly.

use std::ops::Range;

use pai_core::{Architecture, JobColumns, Jobs, WorkloadFeatures};
use pai_hw::{Bytes, Flops};
use pai_par::ChunkedVec;

use crate::population::JobRecord;

/// Columnar, arena-backed storage for a job population.
///
/// Rows are [`WorkloadFeatures`] records decomposed into one column
/// per field; [`JobStore::get`] reassembles a row exactly (every
/// column stores the field's full-width representation, so the
/// round-trip is lossless). Row ids default to the row index; only a
/// store loaded from records with non-sequential ids materializes an
/// id column.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobStore {
    arch: ChunkedVec<u8>,
    cnodes: ChunkedVec<u32>,
    batch: ChunkedVec<u32>,
    input_bytes: ChunkedVec<f64>,
    weight_bytes: ChunkedVec<f64>,
    flops: ChunkedVec<f64>,
    mem_access: ChunkedVec<f64>,
    ids: Option<ChunkedVec<usize>>,
}

impl JobStore {
    /// An empty store.
    pub fn new() -> JobStore {
        JobStore::default()
    }

    /// Stored row count.
    pub fn len(&self) -> usize {
        self.arch.len()
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.arch.is_empty()
    }

    /// Appends one job; its id is the new row's index.
    pub fn push(&mut self, features: &WorkloadFeatures) {
        if let Some(ids) = &mut self.ids {
            ids.push(self.arch.len());
        }
        self.push_columns(features);
    }

    /// Appends one job with an explicit id. Sequential ids (`id ==
    /// len()`) keep the implicit id encoding; anything else
    /// materializes the id column.
    pub fn push_record(&mut self, record: &JobRecord) {
        match &mut self.ids {
            Some(ids) => ids.push(record.id),
            None if record.id == self.arch.len() => {}
            None => {
                let mut ids: ChunkedVec<usize> = (0..self.arch.len()).collect();
                ids.push(record.id);
                self.ids = Some(ids);
            }
        }
        self.push_columns(&record.features);
    }

    fn push_columns(&mut self, features: &WorkloadFeatures) {
        self.arch.push(features.arch().index() as u8);
        // The generator bounds both fields at production-trace scale
        // (thousands of cNodes, power-of-two batches), so overflow here
        // is a corrupted-features bug that must stay loud.
        self.cnodes
            // pai-lint: allow(panic-in-lib)
            .push(u32::try_from(features.cnodes()).expect("cNode count fits a u32"));
        self.batch
            // pai-lint: allow(panic-in-lib)
            .push(u32::try_from(features.batch_size()).expect("batch size fits a u32"));
        self.input_bytes.push(features.input_bytes().as_f64());
        self.weight_bytes.push(features.weight_bytes().as_f64());
        self.flops.push(features.flops().as_f64());
        self.mem_access.push(features.mem_access_bytes().as_f64());
    }

    /// Reassembles row `index` into its exact original features.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn get(&self, index: usize) -> WorkloadFeatures {
        assert!(index < self.len(), "row {index} out of bounds");
        // Every column is a default arena, so one split of the index
        // addresses all seven.
        let cap = self.arch.seg_cap();
        let (seg, at) = (index / cap, index % cap);
        let arch = Architecture::ALL[self.arch.get_at(seg, at) as usize];
        WorkloadFeatures::builder(arch)
            .cnodes(self.cnodes.get_at(seg, at) as usize)
            .batch_size(self.batch.get_at(seg, at) as usize)
            .input_bytes(Bytes::from_f64(self.input_bytes.get_at(seg, at)))
            .weight_bytes(Bytes::from_f64(self.weight_bytes.get_at(seg, at)))
            .flops(Flops::from_f64(self.flops.get_at(seg, at)))
            .mem_access_bytes(Bytes::from_f64(self.mem_access.get_at(seg, at)))
            .build()
    }

    /// The stable id of row `index` (the index itself unless the store
    /// was loaded from records with non-sequential ids).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn id_at(&self, index: usize) -> usize {
        assert!(index < self.len(), "row {index} out of bounds");
        match &self.ids {
            Some(ids) => ids.get(index),
            None => index,
        }
    }

    /// Rows `range` as column slices, when the range lies inside one
    /// arena segment (every chunk of the
    /// [`crate::population::JOB_CHUNK`] grid does); `None` for an empty
    /// range or one that crosses a segment boundary.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > len()`.
    pub fn columns(&self, range: Range<usize>) -> Option<JobColumns<'_>> {
        assert!(range.end <= self.len(), "rows {range:?} out of bounds");
        let cap = self.arch.seg_cap();
        let seg = range.start / cap;
        if range.is_empty() || (range.end - 1) / cap != seg {
            return None;
        }
        // Every column is a default arena, so one segment index and one
        // offset range address all seven.
        let at = range.start - seg * cap..range.end - seg * cap;
        Some(JobColumns {
            arch: &self.arch.segment(seg)[at.clone()],
            cnodes: &self.cnodes.segment(seg)[at.clone()],
            batch: &self.batch.segment(seg)[at.clone()],
            input_bytes: &self.input_bytes.segment(seg)[at.clone()],
            weight_bytes: &self.weight_bytes.segment(seg)[at.clone()],
            flops: &self.flops.segment(seg)[at.clone()],
            mem_access_bytes: &self.mem_access.segment(seg)[at],
        })
    }

    /// Row `index` as an exchange record.
    pub fn record(&self, index: usize) -> JobRecord {
        JobRecord {
            id: self.id_at(index),
            features: self.get(index),
        }
    }

    /// Appends another store's rows in order — the deterministic
    /// chunk-gather merge used by parallel generation.
    pub fn append(&mut self, other: &JobStore) {
        if self.ids.is_some() || other.ids.is_some() {
            let base = self.len();
            let mut ids = self
                .ids
                .take()
                .unwrap_or_else(|| (0..base).collect::<ChunkedVec<usize>>());
            for i in 0..other.len() {
                ids.push(other.id_at(i));
            }
            self.ids = Some(ids);
        }
        self.arch.append(&other.arch);
        self.cnodes.append(&other.cnodes);
        self.batch.append(&other.batch);
        self.input_bytes.append(&other.input_bytes);
        self.weight_bytes.append(&other.weight_bytes);
        self.flops.append(&other.flops);
        self.mem_access.append(&other.mem_access);
    }

    /// Job count per class in [`Architecture::ALL`] order — one dense
    /// scan of the class column.
    pub fn class_counts(&self) -> [usize; 5] {
        let mut counts = [0usize; 5];
        for arch in self.arch.iter() {
            counts[arch as usize] += 1;
        }
        counts
    }

    /// Total cNodes per class in [`Architecture::ALL`] order — a zip
    /// of the class and cNode columns.
    pub fn cnode_totals(&self) -> [usize; 5] {
        let mut totals = [0usize; 5];
        for (arch, cnodes) in self.arch.iter().zip(self.cnodes.iter()) {
            totals[arch as usize] += cnodes as usize;
        }
        totals
    }

    /// Total cNodes across all rows.
    pub fn total_cnodes(&self) -> usize {
        self.cnodes.iter().map(|c| c as usize).sum()
    }
}

impl Jobs for JobStore {
    #[inline]
    fn len(&self) -> usize {
        JobStore::len(self)
    }

    #[inline]
    fn get(&self, index: usize) -> WorkloadFeatures {
        JobStore::get(self, index)
    }

    #[inline]
    fn id_at(&self, index: usize) -> usize {
        JobStore::id_at(self, index)
    }

    #[inline]
    fn columns(&self, range: Range<usize>) -> Option<JobColumns<'_>> {
        JobStore::columns(self, range)
    }
}

impl FromIterator<WorkloadFeatures> for JobStore {
    fn from_iter<I: IntoIterator<Item = WorkloadFeatures>>(iter: I) -> JobStore {
        let mut store = JobStore::new();
        for features in iter {
            store.push(&features);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<WorkloadFeatures> {
        (0..n)
            .map(|i| {
                let arch = Architecture::ALL[i % 5];
                WorkloadFeatures::builder(arch)
                    .cnodes(match arch {
                        Architecture::OneWorkerOneGpu => 1,
                        _ => 2 + i % 7,
                    })
                    .batch_size(1 << (i % 8))
                    .input_bytes(Bytes::from_mb(0.5 + i as f64))
                    .weight_bytes(Bytes::from_gb(0.01 + i as f64 * 0.3))
                    .flops(Flops::from_giga(1.0 + i as f64))
                    .mem_access_bytes(Bytes::from_gb(0.1 + i as f64))
                    .build()
            })
            .collect()
    }

    #[test]
    fn roundtrip_is_lossless() {
        let jobs = sample(40);
        let store: JobStore = jobs.iter().copied().collect();
        assert_eq!(store.len(), 40);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(store.get(i), *job, "row {i} drifted");
            assert_eq!(store.id_at(i), i);
        }
    }

    #[test]
    fn sequential_record_ids_stay_implicit() {
        let jobs = sample(6);
        let mut store = JobStore::new();
        for (i, f) in jobs.iter().enumerate() {
            store.push_record(&JobRecord {
                id: i,
                features: *f,
            });
        }
        // Logically and structurally equal to the plain-push store.
        let plain: JobStore = jobs.into_iter().collect();
        assert_eq!(store, plain);
    }

    #[test]
    fn non_sequential_ids_are_preserved() {
        let jobs = sample(3);
        let mut store = JobStore::new();
        store.push_record(&JobRecord {
            id: 0,
            features: jobs[0],
        });
        store.push_record(&JobRecord {
            id: 7,
            features: jobs[1],
        });
        store.push(&jobs[2]);
        assert_eq!(store.id_at(0), 0);
        assert_eq!(store.id_at(1), 7);
        assert_eq!(store.id_at(2), 2);
        assert_eq!(store.record(1).id, 7);
    }

    #[test]
    fn append_preserves_order_and_ids() {
        let jobs = sample(10);
        let mut left: JobStore = jobs[..4].iter().copied().collect();
        let right: JobStore = jobs[4..].iter().copied().collect();
        left.append(&right);
        assert_eq!(left.len(), 10);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(left.get(i), *job);
            assert_eq!(left.id_at(i), i);
        }

        // Appending a store with explicit ids materializes them.
        let mut tagged = JobStore::new();
        tagged.push_record(&JobRecord {
            id: 99,
            features: jobs[0],
        });
        left.append(&tagged);
        assert_eq!(left.id_at(10), 99);
        assert_eq!(left.id_at(3), 3);
    }

    #[test]
    fn class_aggregates_match_a_row_walk() {
        let store: JobStore = sample(57).into_iter().collect();
        let counts = store.class_counts();
        let totals = store.cnode_totals();
        assert_eq!(counts.iter().sum::<usize>(), store.len());
        assert_eq!(totals.iter().sum::<usize>(), store.total_cnodes());
        for i in 0..store.len() {
            let _ = store.get(i); // every row reassembles
        }
        let walked_ps = (0..store.len())
            .filter(|&i| store.get(i).arch() == Architecture::PsWorker)
            .count();
        assert_eq!(counts[Architecture::PsWorker.index()], walked_ps);
    }

    #[test]
    fn segment_ranges_lend_their_columns() {
        let jobs = sample(2500);
        let store: JobStore = jobs.iter().copied().collect();
        for range in [0..1024, 1024..2048, 2048..2500, 3..9, 2499..2500] {
            let cols = store.columns(range.clone()).expect("inside one segment");
            assert_eq!(cols.len(), range.len());
            for (k, job) in jobs[range].iter().enumerate() {
                assert_eq!(Architecture::ALL[cols.arch[k] as usize], job.arch());
                assert_eq!(cols.cnodes[k] as usize, job.cnodes());
                assert_eq!(cols.batch[k] as usize, job.batch_size());
                assert_eq!(cols.input_bytes[k], job.input_bytes().as_f64());
                assert_eq!(cols.weight_bytes[k], job.weight_bytes().as_f64());
                assert_eq!(cols.flops[k], job.flops().as_f64());
                assert_eq!(cols.mem_access_bytes[k], job.mem_access_bytes().as_f64());
            }
        }
        // Crossing a segment boundary or asking for nothing lends none.
        assert!(store.columns(1000..1030).is_none());
        assert!(store.columns(0..2500).is_none());
        assert!(store.columns(2500..2500).is_none());
        assert!(Jobs::columns(&store, 1024..2048).is_some());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn columns_past_the_end_panic() {
        let store: JobStore = sample(10).into_iter().collect();
        let _ = store.columns(5..11);
    }
}
