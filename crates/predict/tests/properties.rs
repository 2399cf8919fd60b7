//! The predictor's property suite — the two contracts the scheduler
//! integration rests on:
//!
//! 1. a prediction is **never** NaN, zero, or negative, cold start
//!    included (the class prior answers);
//! 2. within a bucket epoch (no ring eviction), predictions are
//!    invariant to the **order** history was inserted in.

use pai_core::Architecture;
use pai_predict::{HistoryConfig, HistoryStore, Prediction, Signature, NUM_CLASSES};
use proptest::prelude::*;

/// A deterministic SplitMix64 step for the in-test shuffle — the
/// vendored proptest has no shuffle strategy.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates driven by `mix`, so a `u64` proptest input picks the
/// permutation.
fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        let j = (mix(seed.wrapping_add(i as u64)) % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

fn arb_signature() -> impl Strategy<Value = Signature> {
    (
        0usize..NUM_CLASSES,
        1usize..=2048,
        1usize..=8192,
        0.0f64..1.0e11,
        0.0f64..1.0e16,
    )
        .prop_map(|(class, cnodes, batch, weight_bytes, flops)| Signature {
            class: Architecture::ALL[class],
            cnodes,
            weight_bytes,
            flops,
            batch,
        })
}

/// A signature and its observed duration.
fn arb_observation() -> impl Strategy<Value = (Signature, f64)> {
    (arb_signature(), 1.0e-3f64..1.0e6)
}

/// A store with `history` observed in order.
fn trained(config: HistoryConfig, history: &[(Signature, f64)]) -> HistoryStore {
    let mut store = HistoryStore::new(config).expect("valid config");
    for (sig, duration_s) in history {
        store.observe(sig, *duration_s).expect("valid duration");
    }
    store
}

fn assert_sane(p: &Prediction) {
    assert!(
        p.duration_s.is_finite() && p.duration_s > 0.0,
        "prediction must be positive and finite, got {p:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cold start falls back to the per-class prior and is never NaN,
    /// zero, or negative — and stays sane after arbitrary valid
    /// history lands.
    #[test]
    fn predictions_are_never_nan_zero_or_negative(
        probe in arb_signature(),
        prior in 1.0e-3f64..1.0e7,
        history in proptest::collection::vec(arb_observation(), 0..80),
    ) {
        let mut store = HistoryStore::new(HistoryConfig::with_priors(7, [prior; NUM_CLASSES]))
            .expect("valid config");
        let cold = store.predict(&probe);
        prop_assert!(cold.cold);
        prop_assert_eq!(cold.neighbors, 0);
        prop_assert_eq!(cold.duration_s, prior);
        assert_sane(&cold);
        for (sig, duration_s) in &history {
            store.observe(sig, *duration_s).expect("valid duration");
            assert_sane(&store.predict(&probe));
            assert_sane(&store.predict(sig));
        }
    }

    /// Within a bucket epoch (rings large enough that nothing is
    /// evicted), any permutation of the history predicts
    /// bit-identically — ranking is by `(distance², duration)`, never
    /// insertion order.
    #[test]
    fn predictions_are_insertion_order_invariant_within_an_epoch(
        perm_seed in 0u64..1_000_000,
        history in proptest::collection::vec(arb_observation(), 2..120),
        probes in proptest::collection::vec(arb_signature(), 1..30),
    ) {
        // Every observation fits even if all hash to one ring: no
        // eviction, so the epoch spans the whole test.
        let mut config = HistoryConfig::with_priors(7, [10.0; NUM_CLASSES]);
        config.ring_capacity = history.len();
        let forward = trained(config.clone(), &history);
        let permuted = trained(config, &shuffled(&history, perm_seed));
        for probe in probes.iter().chain(history.iter().map(|(sig, _)| sig)) {
            prop_assert_eq!(forward.predict(probe), permuted.predict(probe));
        }
    }
}
