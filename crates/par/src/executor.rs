//! The std::thread scatter/gather executor.
//!
//! No rayon in the offline vendor tree — and none needed: chunks are
//! claimed from a shared atomic counter by a small scoped worker pool,
//! and results land in per-chunk slots that are concatenated in chunk
//! order. Which thread ran which chunk never influences the output.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::chunk::{chunk_count, chunk_range};

/// The environment variable [`Threads::from_env`] reads.
pub const THREADS_ENV: &str = "PAI_THREADS";

/// A validated worker-thread count.
///
/// Because every chunked pass is thread-count invariant, this is a
/// pure throughput knob: any value produces the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads(usize);

impl Threads {
    /// The serial oracle: run everything on the calling thread.
    pub const SERIAL: Threads = Threads(1);

    /// A thread count of `n`, clamped up to 1 (zero threads cannot
    /// make progress).
    pub fn new(n: usize) -> Threads {
        Threads(n.max(1))
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0
    }

    /// The configured thread count: `PAI_THREADS` when set to a
    /// positive integer, the machine's available parallelism when
    /// unset, and the serial oracle when set but unparseable or zero
    /// (a misconfiguration must degrade to correct-but-slow, never to
    /// different output — which, by construction, it cannot anyway).
    pub fn from_env() -> Threads {
        match std::env::var(THREADS_ENV) {
            Ok(raw) => Threads::new(raw.trim().parse::<usize>().unwrap_or(1)),
            Err(_) => Threads::new(std::thread::available_parallelism().map_or(1, |n| n.get())),
        }
    }
}

impl Default for Threads {
    fn default() -> Self {
        Threads::from_env()
    }
}

/// Runs `f` on every chunk id below `chunks` and hands each output to
/// `sink` in chunk-index order.
///
/// With one worker, `f` runs on the calling thread and each output
/// streams straight to `sink`. With more, a scoped pool claims chunk
/// ids from a shared counter and parks each output in its chunk's
/// slot; the slots drain into `sink` in order once the pool joins.
/// Which thread ran which chunk never influences what `sink` sees.
///
/// # Panics
///
/// Propagates a panic from `f`.
fn each_chunk<T, F, S>(chunks: usize, threads: Threads, f: F, mut sink: S)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    S: FnMut(T),
{
    let workers = threads.get().min(chunks);
    if workers <= 1 {
        for chunk in 0..chunks {
            sink(f(chunk));
        }
        return;
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..chunks).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let chunk = next.fetch_add(1, Ordering::Relaxed);
                if chunk >= chunks {
                    break;
                }
                let produced = f(chunk);
                // A poisoned lock means another worker panicked; the
                // scope will re-raise that panic, so recovering the
                // guard here cannot mask it.
                slots
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)[chunk] = Some(produced);
            });
        }
    });

    for (chunk, slot) in slots
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        .enumerate()
    {
        // Every chunk id below `chunks` is claimed exactly once and
        // written before its worker exits; a missing slot can only
        // mean executor corruption, which must stay loud — silently
        // dropping a chunk would skew results instead of failing.
        // pai-lint: allow(panic-in-lib)
        sink(slot.unwrap_or_else(|| panic!("chunk {chunk} produced no output")));
    }
}

/// Runs `f` over the fixed chunk decomposition of `total` items and
/// concatenates the per-chunk outputs in chunk order.
///
/// `f(chunk_id, index_range)` must be a pure function of its
/// arguments (plus captured immutable state); any randomness must be
/// seeded from the chunk id (see [`crate::derive_seed`]). Under that
/// contract the output is bit-for-bit identical for every thread
/// count, including [`Threads::SERIAL`].
///
/// # Panics
///
/// Panics if `chunk_size` is zero, or if `f` panics (worker panics
/// propagate out of the scope).
pub fn scatter_gather<T, F>(total: usize, chunk_size: usize, threads: Threads, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> Vec<T> + Sync,
{
    let mut out = Vec::with_capacity(total);
    each_chunk(
        chunk_count(total, chunk_size),
        threads,
        |chunk| f(chunk, chunk_range(chunk, total, chunk_size)),
        |part| out.extend(part),
    );
    out
}

/// Maps a pure function over a slice with the chunked executor,
/// preserving input order.
///
/// The deterministic special case of [`scatter_gather`] for passes
/// with no randomness at all (per-job model evaluation, projections):
/// equivalence with the serial map is structural.
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub fn map_items<T, U, F>(items: &[T], chunk_size: usize, threads: Threads, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    scatter_gather(items.len(), chunk_size, threads, |_, range| {
        items[range].iter().map(&f).collect()
    })
}

/// Runs `f` once per chunk of the fixed decomposition and returns the
/// per-chunk results **in chunk-index order**.
///
/// This is the accumulator-producing sibling of [`scatter_gather`]:
/// where `scatter_gather` concatenates per-item outputs, `map_chunks`
/// keeps one value per chunk (a partial histogram, a mergeable
/// statistics accumulator), leaving the merge to the caller.
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub fn map_chunks<A, F>(total: usize, chunk_size: usize, threads: Threads, f: F) -> Vec<A>
where
    A: Send,
    F: Fn(usize, Range<usize>) -> A + Sync,
{
    let chunks = chunk_count(total, chunk_size);
    let mut out = Vec::with_capacity(chunks);
    each_chunk(
        chunks,
        threads,
        |chunk| f(chunk, chunk_range(chunk, total, chunk_size)),
        |part| out.push(part),
    );
    out
}

/// Chunk-wise fold: maps every chunk to an accumulator with `f`, then
/// merges the accumulators into `init` **left-to-right in chunk-index
/// order** on the calling thread.
///
/// The merge order is pinned, not "first finished wins": as long as
/// `merge` is deterministic, the result is bit-for-bit identical at
/// every thread count — even when `merge` is not associative in exact
/// arithmetic (floating-point sums). An incremental consumer that
/// folds the same chunk accumulators in arrival order reproduces this
/// result exactly; that identity is what makes batch, streaming and
/// parallel characterization interchangeable.
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub fn fold_chunks<A, F, M>(
    total: usize,
    chunk_size: usize,
    threads: Threads,
    init: A,
    f: F,
    mut merge: M,
) -> A
where
    A: Send,
    F: Fn(usize, Range<usize>) -> A + Sync,
    M: FnMut(&mut A, A),
{
    let mut acc = init;
    each_chunk(
        chunk_count(total, chunk_size),
        threads,
        |chunk| f(chunk, chunk_range(chunk, total, chunk_size)),
        |part| merge(&mut acc, part),
    );
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::derive_seed;

    #[test]
    fn serial_and_threaded_gathers_agree() {
        let work = |threads: Threads| {
            scatter_gather(10_001, 64, threads, |chunk, range| {
                let mut state = derive_seed(9, chunk as u64);
                range
                    .map(|i| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(i as u64);
                        state
                    })
                    .collect::<Vec<_>>()
            })
        };
        let oracle = work(Threads::SERIAL);
        assert_eq!(oracle.len(), 10_001);
        for t in [2usize, 3, 4, 8, 16] {
            assert_eq!(work(Threads::new(t)), oracle, "diverged at {t} threads");
        }
    }

    #[test]
    fn map_items_preserves_order() {
        let items: Vec<u64> = (0..5000).collect();
        let out = map_items(&items, 128, Threads::new(4), |&x| x * 3 + 1);
        assert_eq!(out.len(), items.len());
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 3 + 1));
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out = scatter_gather(0, 1024, Threads::new(8), |_, range| {
            range.collect::<Vec<_>>()
        });
        assert!(out.is_empty());
        assert!(map_items(&[0u8; 0], 16, Threads::new(2), |&b| b).is_empty());
    }

    #[test]
    fn more_threads_than_chunks_is_fine() {
        let out = scatter_gather(10, 1024, Threads::new(64), |_, range| {
            range.map(|i| i * 2).collect::<Vec<_>>()
        });
        assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn variable_length_chunk_outputs_concatenate_in_order() {
        // Chunks may legitimately emit fewer items than their range
        // (filtering passes); order must still follow chunk index.
        let out = scatter_gather(100, 10, Threads::new(4), |chunk, range| {
            range.filter(|i| i % 2 == chunk % 2).collect::<Vec<_>>()
        });
        let oracle = scatter_gather(100, 10, Threads::SERIAL, |chunk, range| {
            range.filter(|i| i % 2 == chunk % 2).collect::<Vec<_>>()
        });
        assert_eq!(out, oracle);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn map_chunks_returns_one_value_per_chunk_in_order() {
        let parts = map_chunks(2500, 1024, Threads::new(4), |chunk, range| {
            (chunk, range.len())
        });
        assert_eq!(parts, vec![(0, 1024), (1, 1024), (2, 452)]);
        assert!(map_chunks(0, 1024, Threads::new(4), |c, _| c).is_empty());
    }

    #[test]
    fn map_chunks_output_is_sized_by_its_chunk_count() {
        for t in [1usize, 2] {
            let parts = map_chunks(10_000, 64, Threads::new(t), |chunk, _| chunk);
            assert_eq!(parts.len(), 157);
            assert_eq!(parts.capacity(), parts.len(), "at {t} threads");
        }
    }

    #[test]
    fn fold_chunks_pins_the_merge_order() {
        // A deliberately order-sensitive merge (string concatenation):
        // identical output at every thread count proves the fold runs
        // in chunk-index order, not completion order.
        let run = |threads: Threads| {
            fold_chunks(
                1000,
                64,
                threads,
                String::new(),
                |chunk, range| format!("[{chunk}:{}]", range.len()),
                |acc, part| acc.push_str(&part),
            )
        };
        let oracle = run(Threads::SERIAL);
        for t in [2usize, 4, 8] {
            assert_eq!(run(Threads::new(t)), oracle, "diverged at {t} threads");
        }
        assert!(oracle.starts_with("[0:64][1:64]"));
    }

    #[test]
    fn fold_chunks_float_sums_are_thread_invariant() {
        // Non-associative floating-point partial sums: pinned merge
        // order makes them bit-identical anyway.
        let run = |threads: Threads| {
            fold_chunks(
                10_000,
                128,
                threads,
                0.0f64,
                |chunk, range| {
                    let mut s = 0.0f64;
                    for i in range {
                        s += 1.0 / (1.0 + i as f64 + chunk as f64);
                    }
                    s
                },
                |acc, part| *acc += part,
            )
        };
        let oracle = run(Threads::SERIAL);
        for t in [2usize, 4, 8] {
            assert_eq!(run(Threads::new(t)).to_bits(), oracle.to_bits());
        }
    }

    #[test]
    fn threads_clamp_and_env_parse() {
        assert_eq!(Threads::new(0).get(), 1);
        assert_eq!(Threads::new(7).get(), 7);
        assert_eq!(Threads::SERIAL, Threads::new(1));
    }
}
