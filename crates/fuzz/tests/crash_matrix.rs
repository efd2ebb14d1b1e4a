//! The exhaustive crash matrix of `fuzz::storage`, run on its own: the
//! fixed script of snapshot saves is dry-run once to count its I/O
//! operations, then re-run with a simulated power cut at every operation
//! index. After each cut the reloaded snapshot must equal the model state
//! after the acknowledged steps (or one more, when the interrupted save's
//! rename landed), and a second reload must read the same bytes.
//!
//! The matrix also mutation-tests itself: weakening [`Durability`] must make
//! some crash point fail, proving the harness can see durability holes.

use fuzz::{run_crash_matrix, StoreInject};
use tunestore::Durability;

#[test]
fn every_crash_point_recovers_an_acknowledged_prefix() {
    let (points, failures) = run_crash_matrix(Durability::FULL, &[false]);
    assert!(
        points > 20,
        "the matrix must enumerate every op, got {points}"
    );
    assert!(
        failures.is_empty(),
        "crash points violating recovery: {failures:#?}"
    );
}

#[test]
fn every_crash_point_recovers_even_with_bit_corruption() {
    let (points, failures) = run_crash_matrix(Durability::FULL, &[true]);
    assert!(
        points > 20,
        "the matrix must enumerate every op, got {points}"
    );
    assert!(
        failures.is_empty(),
        "crash points violating recovery under bit flips: {failures:#?}"
    );
}

/// Skipping data fsyncs must make some crash point lose an acknowledged
/// save; a matrix that passed the weakened save would be too lenient.
#[test]
fn the_matrix_catches_a_store_that_skips_data_fsync() {
    let (_, failures) = run_crash_matrix(StoreInject::NoSyncData.durability(), &[false]);
    assert!(
        failures.iter().any(|f| f.phase == "matrix"),
        "a store that never fsyncs data must fail the crash matrix"
    );
}

/// Writing snapshots in place (no temp file and atomic rename) must be
/// caught by the matrix too.
#[test]
fn the_matrix_catches_a_store_that_writes_snapshots_in_place() {
    let (_, failures) = run_crash_matrix(StoreInject::NoAtomicRename.durability(), &[false]);
    assert!(
        failures.iter().any(|f| f.phase == "matrix"),
        "a store that rewrites snapshots in place must fail the crash matrix"
    );
}
