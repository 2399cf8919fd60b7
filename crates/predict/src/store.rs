//! The online history store: fixed-capacity per-bucket rings, k-nearest
//! prediction, and the determinism contract both rest on.
//!
//! Two properties make [`HistoryStore`] safe inside the
//! bit-identical scheduler:
//!
//! 1. **No iteration-order dependence.** Buckets are a plain
//!    `Vec<Vec<Entry>>` indexed by the seeded feature hash; prediction
//!    ranks candidates by `(distance², duration)` with `total_cmp`, so
//!    the k-nearest set and the order it is summed in are invariant to
//!    the order history happened to be inserted — any permutation of
//!    observations within a *bucket epoch* (a span with no ring
//!    eviction) predicts bit-identically.
//! 2. **Total cold-start fallback.** A signature with no same-class
//!    history predicts its class's configured prior — validated
//!    positive and finite up front — so a prediction is *never* NaN,
//!    zero, or negative.

use serde::Serialize;

use crate::error::PredictError;
use crate::hash::{bucket_of, log_coords, log_distance2};
use crate::signature::{Signature, NUM_CLASSES};

/// History-store knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryConfig {
    /// Number of hash buckets.
    pub buckets: usize,
    /// Completed jobs remembered per bucket; the oldest observation is
    /// evicted when a full ring takes a new one.
    pub ring_capacity: usize,
    /// Neighbors averaged per prediction.
    pub k: usize,
    /// Seed of the feature hash (a different seed shuffles bucket
    /// assignments, nothing else).
    pub seed: u64,
    /// Cold-start prediction per class (Table II order), in seconds —
    /// typically the class's analytical solo step time scaled by the
    /// arrival process's expected step count.
    pub class_priors: [f64; NUM_CLASSES],
}

impl HistoryConfig {
    /// Defaults around the given priors: 4096 buckets × 64-entry
    /// rings (≈ 260k remembered completions — evictions stay rare
    /// even at 50k-job schedules, and a ring entry is 64 bytes so
    /// the worst case is ~17 MB), k = 8.
    pub fn with_priors(seed: u64, class_priors: [f64; NUM_CLASSES]) -> HistoryConfig {
        HistoryConfig {
            buckets: 4096,
            ring_capacity: 64,
            k: 8,
            seed,
            class_priors,
        }
    }

    /// Validates every knob.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::InvalidConfig`] naming the offending
    /// parameter: zero buckets/capacity/k, or a prior that is not
    /// positive and finite (a cold-start fallback of 0 or NaN would
    /// violate the never-NaN/0/negative prediction contract).
    pub fn validate(&self) -> Result<(), PredictError> {
        if self.buckets == 0 {
            return Err(PredictError::InvalidConfig {
                name: "buckets",
                value: 0.0,
            });
        }
        if self.ring_capacity == 0 {
            return Err(PredictError::InvalidConfig {
                name: "ring capacity",
                value: 0.0,
            });
        }
        if self.k == 0 {
            return Err(PredictError::InvalidConfig {
                name: "k",
                value: 0.0,
            });
        }
        for &prior in &self.class_priors {
            if !prior.is_finite() || prior <= 0.0 {
                return Err(PredictError::InvalidConfig {
                    name: "class prior",
                    value: prior,
                });
            }
        }
        Ok(())
    }
}

/// One remembered completion.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    /// Global insertion sequence — the eviction order, never a
    /// prediction tie-break.
    seq: u64,
    class: usize,
    coords: [f64; 4],
    duration_s: f64,
    /// `duration_s.ln()`, taken once here rather than per prediction.
    ln_duration: f64,
}

impl Entry {
    fn new(seq: u64, class: usize, coords: [f64; 4], duration_s: f64) -> Entry {
        Entry {
            seq,
            class,
            coords,
            duration_s,
            ln_duration: duration_s.ln(),
        }
    }
}

/// A same-class candidate for a prediction.
#[derive(Clone, Copy)]
struct Neighbor {
    dist2: f64,
    duration_s: f64,
    ln_duration: f64,
}

impl Neighbor {
    const ZERO: Neighbor = Neighbor {
        dist2: 0.0,
        duration_s: 0.0,
        ln_duration: 0.0,
    };

    /// The ranking: `(distance², duration)` under `total_cmp`.
    fn ranks_before(&self, other: &Neighbor) -> bool {
        self.dist2
            .total_cmp(&other.dist2)
            .then(self.duration_s.total_cmp(&other.duration_s))
            .is_lt()
    }
}

/// Keeps an exact match's inverse-distance weight finite.
const EPSILON: f64 = 1e-12;

/// Neighbors a prediction ranks on the stack; a larger `k` ranks in a
/// buffer sized to the bucket's ring.
const INLINE_NEIGHBORS: usize = 16;

/// Fills `nearest` with the `nearest.len()` best-ranked same-class
/// entries of `ring`, in rank order, and returns how many it found.
/// Ties keep ring order, exactly as a stable sort then truncation
/// would.
fn rank_nearest(
    ring: &[Entry],
    class: usize,
    coords: &[f64; 4],
    nearest: &mut [Neighbor],
) -> usize {
    if nearest.is_empty() {
        return 0;
    }
    let mut len = 0usize;
    for e in ring.iter().filter(|e| e.class == class) {
        let cand = Neighbor {
            dist2: log_distance2(coords, &e.coords),
            duration_s: e.duration_s,
            ln_duration: e.ln_duration,
        };
        if len == nearest.len() {
            if !cand.ranks_before(&nearest[len - 1]) {
                continue;
            }
            len -= 1;
        }
        let mut i = len;
        while i > 0 && cand.ranks_before(&nearest[i - 1]) {
            nearest[i] = nearest[i - 1];
            i -= 1;
        }
        nearest[i] = cand;
        len += 1;
    }
    len
}

/// A prediction and how it was made.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Prediction {
    /// Predicted duration, in seconds — always positive and finite.
    pub duration_s: f64,
    /// Same-class historical jobs averaged (0 on a cold start).
    pub neighbors: usize,
    /// True when no same-class history existed and the class prior
    /// answered.
    pub cold: bool,
}

/// The online feature-hashed k-nearest-history store.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryStore {
    config: HistoryConfig,
    rings: Vec<Vec<Entry>>,
    seq: u64,
}

impl HistoryStore {
    /// An empty store.
    ///
    /// # Errors
    ///
    /// Propagates [`HistoryConfig::validate`].
    pub fn new(config: HistoryConfig) -> Result<HistoryStore, PredictError> {
        config.validate()?;
        let rings = vec![Vec::new(); config.buckets];
        Ok(HistoryStore {
            config,
            rings,
            seq: 0,
        })
    }

    /// The store's configuration.
    pub fn config(&self) -> &HistoryConfig {
        &self.config
    }

    /// Completions observed so far (evicted ones included).
    pub fn observations(&self) -> u64 {
        self.seq
    }

    /// Records a completed job.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::InvalidObservation`] for a non-finite
    /// or non-positive duration; the store is unchanged.
    pub fn observe(&mut self, sig: &Signature, duration_s: f64) -> Result<(), PredictError> {
        if !duration_s.is_finite() || duration_s <= 0.0 {
            return Err(PredictError::InvalidObservation { duration_s });
        }
        let bucket = bucket_of(sig, self.config.seed, self.config.buckets);
        self.insert(
            bucket,
            Entry::new(self.seq, sig.class_index(), log_coords(sig), duration_s),
        );
        Ok(())
    }

    fn insert(&mut self, bucket: usize, entry: Entry) {
        let ring = &mut self.rings[bucket];
        if ring.len() < self.config.ring_capacity {
            ring.push(entry);
        } else {
            // Evict the oldest observation: the unique minimum seq.
            let mut oldest = 0usize;
            for (i, e) in ring.iter().enumerate() {
                if e.seq < ring[oldest].seq {
                    oldest = i;
                }
            }
            ring[oldest] = entry;
        }
        self.seq += 1;
    }

    /// Predicts the duration of a not-yet-run job: the
    /// inverse-distance-weighted **geometric** mean of the `k`
    /// nearest same-class historical neighbors in log-feature space,
    /// or the class prior when no same-class history exists.
    /// Durations in a production mix span many decades, so averaging
    /// in log-duration space is what keeps the *relative* error (the
    /// MAPE the calibration report pins) bounded — an arithmetic mean
    /// would let one long neighbor dominate every short job's
    /// estimate — and weighting by `1 / (ε + distance²)` lets an
    /// exact-match twin dominate a distant bucket collider instead of
    /// being diluted by it. Never NaN, zero, or negative.
    pub fn predict(&self, sig: &Signature) -> Prediction {
        let bucket = bucket_of(sig, self.config.seed, self.config.buckets);
        let class = sig.class_index();
        let coords = log_coords(sig);
        let ring = &self.rings[bucket];
        // Ranking by (distance², duration), not insertion order, is
        // what makes the prediction permutation-invariant within a
        // bucket epoch. No more than the ring's entries can rank, so
        // the buffer never outgrows memory the store already holds.
        let slots = self.config.k.min(ring.len());
        let mut inline = [Neighbor::ZERO; INLINE_NEIGHBORS];
        let mut spilled = Vec::new();
        let nearest = if slots <= INLINE_NEIGHBORS {
            &mut inline[..slots]
        } else {
            spilled.resize(slots, Neighbor::ZERO);
            &mut spilled[..]
        };
        let found = rank_nearest(ring, class, &coords, nearest);
        if found == 0 {
            return Prediction {
                duration_s: self.config.class_priors[class],
                neighbors: 0,
                cold: true,
            };
        }
        // Observed durations are validated positive, so every stored
        // ln is finite; ε keeps an exact match's weight finite while
        // still letting it outweigh any distant neighbor by ~12
        // decades. Summing in rank order keeps the float reassociation
        // identical for any insertion order of the same history.
        let mut weight_sum = 0.0f64;
        let mut log_sum = 0.0f64;
        for n in &nearest[..found] {
            let w = 1.0 / (EPSILON + n.dist2);
            weight_sum += w;
            log_sum += w * n.ln_duration;
        }
        Prediction {
            duration_s: (log_sum / weight_sum).exp(),
            neighbors: found,
            cold: false,
        }
    }

    /// [`HistoryStore::predict`] by collecting every same-class
    /// candidate, sorting, and truncating to `k` — the reference the
    /// in-place ranking is tested against.
    #[cfg(test)]
    fn predict_sorted(&self, sig: &Signature) -> Prediction {
        let bucket = bucket_of(sig, self.config.seed, self.config.buckets);
        let class = sig.class_index();
        let coords = log_coords(sig);
        let mut ranked: Vec<(f64, f64)> = self.rings[bucket]
            .iter()
            .filter(|e| e.class == class)
            .map(|e| (log_distance2(&coords, &e.coords), e.duration_s))
            .collect();
        if ranked.is_empty() {
            return Prediction {
                duration_s: self.config.class_priors[class],
                neighbors: 0,
                cold: true,
            };
        }
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        ranked.truncate(self.config.k);
        let mut weight_sum = 0.0f64;
        let mut log_sum = 0.0f64;
        for &(dist2, duration) in &ranked {
            let w = 1.0 / (EPSILON + dist2);
            weight_sum += w;
            log_sum += w * duration.ln();
        }
        Prediction {
            duration_s: (log_sum / weight_sum).exp(),
            neighbors: ranked.len(),
            cold: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_core::Architecture;
    use proptest::prelude::*;

    fn sig(class: Architecture, cnodes: usize, batch: usize, sw: f64, flops: f64) -> Signature {
        Signature {
            class,
            cnodes,
            weight_bytes: sw,
            flops,
            batch,
        }
    }

    fn store() -> HistoryStore {
        HistoryStore::new(HistoryConfig::with_priors(
            7,
            [10.0, 20.0, 30.0, 40.0, 50.0],
        ))
        .expect("valid defaults")
    }

    #[test]
    fn cold_start_answers_the_class_prior() {
        let s = store();
        for (i, class) in Architecture::ALL.into_iter().enumerate() {
            let p = s.predict(&sig(class, 8, 128, 1e8, 1e12));
            assert_eq!(p.duration_s, s.config().class_priors[i]);
            assert!(p.cold);
            assert_eq!(p.neighbors, 0);
        }
    }

    #[test]
    fn nearby_history_dominates_the_prediction() {
        let mut s = store();
        let target = sig(Architecture::PsWorker, 16, 512, 1.0e9, 5.0e11);
        // Two near twins at 100 s, far-ish same-bucket jobs at 900 s.
        s.observe(&sig(Architecture::PsWorker, 16, 512, 1.02e9, 5.0e11), 100.0)
            .expect("valid");
        s.observe(&sig(Architecture::PsWorker, 16, 512, 0.98e9, 5.1e11), 100.0)
            .expect("valid");
        s.observe(&sig(Architecture::PsWorker, 17, 480, 1.30e9, 6.6e11), 900.0)
            .expect("valid");
        let mut cfg = s.config().clone();
        cfg.k = 2;
        let mut tight = HistoryStore::new(cfg).expect("valid");
        // Rebuild with k = 2: only the twins are averaged.
        tight
            .observe(&sig(Architecture::PsWorker, 16, 512, 1.02e9, 5.0e11), 100.0)
            .expect("valid");
        tight
            .observe(&sig(Architecture::PsWorker, 16, 512, 0.98e9, 5.1e11), 100.0)
            .expect("valid");
        tight
            .observe(&sig(Architecture::PsWorker, 17, 480, 1.30e9, 6.6e11), 900.0)
            .expect("valid");
        let p = tight.predict(&target);
        assert!(!p.cold);
        assert_eq!(p.neighbors, 2);
        assert!((p.duration_s - 100.0).abs() < 1e-9);
        // k = 8 sees all three, but the inverse-distance weights keep
        // the twins in charge: the estimate lands between 100 s and
        // the unweighted geometric mean.
        let wide = s.predict(&target);
        assert_eq!(wide.neighbors, 3);
        let unweighted = (100.0f64 * 100.0 * 900.0).cbrt();
        assert!(wide.duration_s >= 100.0 - 1e-9);
        assert!(wide.duration_s < unweighted, "{}", wide.duration_s);
    }

    #[test]
    fn other_classes_never_leak_into_a_prediction() {
        let mut s = store();
        let ps = sig(Architecture::PsWorker, 16, 512, 1.0e9, 5.0e11);
        let mut arc = ps;
        arc.class = Architecture::AllReduceCluster;
        s.observe(&arc, 777.0).expect("valid");
        let p = s.predict(&ps);
        assert!(p.cold, "a different class's history must not answer");
    }

    #[test]
    fn ring_eviction_drops_the_oldest() {
        let mut cfg = HistoryConfig::with_priors(7, [10.0; NUM_CLASSES]);
        cfg.ring_capacity = 2;
        cfg.k = 8;
        let mut s = HistoryStore::new(cfg).expect("valid");
        let a = sig(Architecture::PsWorker, 16, 512, 1.0e9, 5.0e11);
        s.observe(&a, 100.0).expect("valid");
        s.observe(&a, 200.0).expect("valid");
        s.observe(&a, 300.0).expect("valid");
        assert_eq!(s.observations(), 3);
        // 100 s (seq 0) evicted: the geometric mean of 200 and 300.
        assert!((s.predict(&a).duration_s - (200.0f64 * 300.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        let mut s = store();
        let a = sig(Architecture::PsWorker, 16, 512, 1.0e9, 5.0e11);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                s.observe(&a, bad),
                Err(PredictError::InvalidObservation { .. })
            ));
            assert_eq!(s.observations(), 0, "a rejected observation must not land");
        }
        let mut cfg = HistoryConfig::with_priors(7, [10.0; NUM_CLASSES]);
        cfg.buckets = 0;
        assert!(HistoryStore::new(cfg).is_err());
        let mut cfg = HistoryConfig::with_priors(7, [10.0; NUM_CLASSES]);
        cfg.ring_capacity = 0;
        assert!(HistoryStore::new(cfg).is_err());
        let mut cfg = HistoryConfig::with_priors(7, [10.0; NUM_CLASSES]);
        cfg.k = 0;
        assert!(HistoryStore::new(cfg).is_err());
        let mut cfg = HistoryConfig::with_priors(7, [10.0; NUM_CLASSES]);
        cfg.class_priors[2] = 0.0;
        assert!(HistoryStore::new(cfg).is_err());
    }

    /// Magnitudes a workout signature draws from. cNodes and batch
    /// share values, so an entry off by one step in cNodes and one off
    /// by the same step in batch sit at bit-identical distances.
    const SIZES: [usize; 3] = [1, 2, 4];

    fn workout_sig(
        (class, cnodes, batch, sw, flops): (usize, usize, usize, usize, usize),
    ) -> Signature {
        sig(
            Architecture::ALL[class],
            SIZES[cnodes],
            SIZES[batch],
            [1e6, 1e8][sw],
            [1e9, 1e11][flops],
        )
    }

    fn workout_features() -> impl Strategy<Value = (usize, usize, usize, usize, usize)> {
        (0..NUM_CLASSES, 0..3usize, 0..3usize, 0..2usize, 0..2usize)
    }

    fn workout_duration() -> impl Strategy<Value = f64> {
        // A small pool ties durations; the range keeps them distinct.
        prop_oneof![Just(1.0), Just(3.0), Just(1e3), 0.1..1e4f64]
    }

    proptest! {
        /// Ranking in place predicts what sorting every candidate and
        /// truncating to k predicts, bit for bit: rings shared by
        /// several classes, tied distances and durations, evictions,
        /// and k from 1 past both the candidate count and the inline
        /// buffer.
        #[test]
        fn in_place_ranking_matches_sort_and_truncate(
            buckets in 1usize..3,
            ring_capacity in 1usize..(3 * INLINE_NEIGHBORS),
            k in 1usize..(2 * INLINE_NEIGHBORS + 8),
            history in proptest::collection::vec((workout_features(), workout_duration()), 0..120),
            probes in proptest::collection::vec(workout_features(), 1..8),
        ) {
            let mut cfg = HistoryConfig::with_priors(7, [10.0, 20.0, 30.0, 40.0, 50.0]);
            cfg.buckets = buckets;
            cfg.ring_capacity = ring_capacity;
            cfg.k = k;
            let mut s = HistoryStore::new(cfg).expect("valid config");
            let probes: Vec<Signature> = probes.into_iter().map(workout_sig).collect();
            for (features, duration) in history {
                s.observe(&workout_sig(features), duration).expect("valid");
                for probe in &probes {
                    let (fast, reference) = (s.predict(probe), s.predict_sorted(probe));
                    prop_assert_eq!(fast.duration_s.to_bits(), reference.duration_s.to_bits());
                    prop_assert_eq!(fast.neighbors, reference.neighbors);
                    prop_assert_eq!(fast.cold, reference.cold);
                }
            }
        }
    }
}
