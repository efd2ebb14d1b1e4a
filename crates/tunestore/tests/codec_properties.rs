//! Property tests of the store codec: random snapshots round-trip exactly,
//! and random corruption/truncation must produce an `Err`, never a panic.

use loop_ir::expr::Var;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transforms::{Recipe, Transform};
use tunestore::{Snapshot, StoredEntry};

/// Uniform float in `[0, 1)` (the shimmed `rand` has no float sampling).
fn unit_f64(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Draws a random iterator name from a small pool (including tile-loop
/// names, which exercise the `_t` suffix paths downstream).
fn any_var(rng: &mut StdRng) -> Var {
    const NAMES: [&str; 8] = ["i", "j", "k", "jl", "jk", "i_t", "j_t", "block"];
    Var::new(NAMES[rng.gen_range(0..NAMES.len())])
}

/// Draws one random transform, covering every variant.
fn any_transform(rng: &mut StdRng) -> Transform {
    match rng.gen_range(0..4) {
        0 => Transform::Tile {
            tiles: (0..rng.gen_range(0..4usize))
                .map(|_| (any_var(rng), rng.gen_range(1..1024i64)))
                .collect(),
        },
        1 => Transform::Parallelize { iter: any_var(rng) },
        2 => Transform::Vectorize { iter: any_var(rng) },
        _ => Transform::Unroll {
            iter: any_var(rng),
            factor: rng.gen_range(2..32u32),
        },
    }
}

/// Draws a random recipe of 0..6 random steps.
fn any_recipe(rng: &mut StdRng) -> Recipe {
    Recipe::new(
        (0..rng.gen_range(0..6usize))
            .map(|_| any_transform(rng))
            .collect(),
    )
}

/// Draws a random entry: random key, cost (including negatives/zero),
/// embedding of random dimension, chain and source string.
fn any_entry(rng: &mut StdRng) -> StoredEntry {
    StoredEntry {
        key: rng.next_u64(),
        cost: (unit_f64(rng) - 0.25) * 10.0_f64.powi(rng.gen_range(-6..3i32)),
        embedding: (0..rng.gen_range(0..16usize))
            .map(|_| unit_f64(rng) * 100.0 - 50.0)
            .collect(),
        recipe: any_recipe(rng),
        chain: (0..rng.gen_range(0..5usize))
            .map(|_| any_var(rng))
            .collect(),
        source: format!("bench#{}", rng.gen_range(0..100u32)),
    }
}

fn any_snapshot(seed: u64) -> Snapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut snapshot = Snapshot::new();
    // Push directly (no dedupe) so duplicate keys also round-trip.
    for _ in 0..rng.gen_range(0..12usize) {
        snapshot.entries.push(any_entry(&mut rng));
    }
    snapshot
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_snapshots_round_trip(seed in 0..u64::MAX) {
        let snapshot = any_snapshot(seed);
        let bytes = snapshot.encode();
        let decoded = Snapshot::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &snapshot);
        // Encoding is deterministic: same snapshot, same bytes.
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn corrupted_bytes_never_panic(seed in 0..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let snapshot = any_snapshot(seed);
        let good = snapshot.encode();
        // Random single-byte corruption: must either fail cleanly or decode
        // to the identical snapshot (a flip in ignored padding does not
        // exist in this format, but the property is the safe one).
        for _ in 0..16 {
            let mut bytes = good.clone();
            let pos = rng.gen_range(0..bytes.len());
            let bit = 1u8 << rng.gen_range(0..8u8);
            bytes[pos] ^= bit;
            match Snapshot::decode(&bytes) {
                Err(_) => {}
                Ok(decoded) => prop_assert_eq!(decoded, snapshot.clone()),
            }
        }
    }

    #[test]
    fn truncated_files_never_panic(seed in 0..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let snapshot = any_snapshot(seed);
        let good = snapshot.encode();
        for _ in 0..16 {
            let cut = rng.gen_range(0..good.len());
            prop_assert!(Snapshot::decode(&good[..cut]).is_err());
        }
        // Garbage appended after a valid file is also rejected.
        let mut extended = good.clone();
        extended.extend_from_slice(&[0u8; 7]);
        prop_assert!(Snapshot::decode(&extended).is_err());
    }

    #[test]
    fn random_garbage_never_panics(seed in 0..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0..512usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Random bytes essentially never carry the magic; either way the
        // decoder must return instead of panicking.
        let _ = Snapshot::decode(&bytes);
    }
}
