//! Bit-level pins of the two cluster extensions.
//!
//! `ext-cluster` and `ext-upgrade` place the biggest-first PS/Worker
//! mix of a 3,000-job population on the testbed and price it under
//! NIC sharing. This test pins the exact `f64` bits of every number in
//! both artifacts' JSON and an FNV-1a digest of their rendered text,
//! so a reordered sum, a changed sharer count or a moved server shows
//! even where the rounded table would not. A failure means the
//! placement or the price moved: fix the code, or, for an intentional
//! change, re-read the literals from the failure message.

use pai_repro::extensions::{cluster_mix, cluster_upgrade};
use pai_repro::{Context, ExperimentResult};

/// Jobs in the population both extensions draw their mix from.
const POPULATION: usize = 3_000;

/// FNV-1a over the rendered text.
fn text_digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(key, to_bits)` of every number in the artifact's flat JSON
/// object, in the artifact's order, plus the text digest.
fn pins(result: &ExperimentResult) -> (Vec<(String, u64)>, u64) {
    let numbers = result
        .json
        .as_object()
        .expect("a flat JSON object")
        .iter()
        .map(|(key, value)| {
            let number = value
                .as_f64()
                .unwrap_or_else(|| panic!("{key} is a number"));
            (key.clone(), number.to_bits())
        })
        .collect();
    (numbers, text_digest(&result.text))
}

fn expected(numbers: &[(&str, u64)], digest: u64) -> (Vec<(String, u64)>, u64) {
    let numbers = numbers
        .iter()
        .map(|&(key, bits)| (key.to_string(), bits))
        .collect();
    (numbers, digest)
}

#[test]
fn ext_cluster_is_pinned_to_the_bit() {
    let result = cluster_mix(&Context::with_size(POPULATION)).expect("the mix fits");
    assert_eq!(
        pins(&result),
        expected(
            &[
                ("jobs", 4_621_256_167_635_550_208),
                ("gpu_utilization", 4_607_182_418_800_017_408),
                ("servers_used", 4_634_204_016_564_240_384),
                ("mean_slowdown", 4_618_159_441_048_010_653),
                ("worst_slowdown", 4_620_487_618_568_705_461),
                ("ethernet_bound_share", 4_606_181_618_882_823_964),
            ],
            6_896_539_923_644_979_871,
        ),
        "ext-cluster moved; json = {}",
        result.json
    );
}

#[test]
fn ext_upgrade_is_pinned_to_the_bit() {
    let result = cluster_upgrade(&Context::with_size(POPULATION)).expect("the mix fits");
    assert_eq!(
        pins(&result),
        expected(
            &[
                ("throughput_25g", 4_691_731_854_834_742_490),
                ("throughput_100g", 4_700_160_463_853_204_015),
                ("gain", 4_615_537_224_536_384_110),
            ],
            2_395_799_236_857_516_606,
        ),
        "ext-upgrade moved; json = {}",
        result.json
    );
}
