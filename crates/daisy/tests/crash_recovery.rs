//! End-to-end crash recovery through the scheduler: seeding is journaled
//! into a `DurableStore` over the fault-injecting storage, the power is
//! cut at sampled operation indices, and the recovered database must be a
//! prefix of the acknowledged seeding sequence — with every surviving
//! entry producing bit-identical [`ScheduleOutcome`]s to a scheduler that
//! never crashed.

use std::path::PathBuf;
use std::sync::Arc;

use daisy::{DaisyConfig, DaisyScheduler};
use loop_ir::parser::parse_program;
use loop_ir::Program;
use tunestore::{
    is_power_cut, FaultPlan, FaultStorage, Snapshot, SourceState, Storage, StoreError,
};

/// PolyBench-style GEMM (A variant), small enough to seed quickly.
fn gemm_a(n: i64) -> Program {
    parse_program(&format!(
        "program gemm_a {{ param NI = {n}; param NJ = {n}; param NK = {n};
           scalar alpha = 1.5; scalar beta = 1.2;
           array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
           for i in 0..NI {{ for j in 0..NJ {{
             C[i][j] = C[i][j] * beta;
             for k in 0..NK {{ C[i][j] += alpha * A[i][k] * B[k][j]; }}
           }} }} }}"
    ))
    .unwrap()
}

/// Equivalent B variant scheduled through transfer tuning, to check the
/// recovered database actually drives scheduling decisions.
fn gemm_b(n: i64) -> Program {
    parse_program(&format!(
        "program gemm_b {{ param NI = {n}; param NJ = {n}; param NK = {n};
           scalar alpha = 1.5; scalar beta = 1.2;
           array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
           for j in 0..NJ {{ for i in 0..NI {{
             C[i][j] = C[i][j] * beta;
           }} }}
           for k in 0..NK {{ for j in 0..NJ {{ for i in 0..NI {{
             C[i][j] += alpha * A[i][k] * B[k][j];
           }} }} }} }}"
    ))
    .unwrap()
}

fn config() -> DaisyConfig {
    // Idiom detection off so the GEMM nests are database-tuned, keeping
    // database entries (and thus the store) on the critical path.
    DaisyConfig {
        idiom_detection: false,
        ..DaisyConfig::default()
    }
}

fn store_path() -> PathBuf {
    PathBuf::from("dir/warm.tunedb")
}

/// Opens the store and seeds into it; any error is returned with however
/// far seeding got already journaled.
fn seed(
    scheduler: &mut DaisyScheduler,
    storage: &Arc<FaultStorage>,
    programs: &[Program],
) -> Result<(), StoreError> {
    let mut store =
        scheduler.open_store_with(Arc::clone(storage) as Arc<dyn Storage>, store_path())?;
    scheduler.seed_into_store(programs, &mut store)?;
    Ok(())
}

#[test]
fn sampled_crash_points_recover_a_bit_identical_prefix() {
    let programs = vec![gemm_a(64)];
    let a = gemm_a(64);
    let b = gemm_b(64);

    // Dry run: no faults. This is the never-crashed reference.
    let dry_storage = Arc::new(FaultStorage::default());
    let mut reference = DaisyScheduler::new(config());
    seed(&mut reference, &dry_storage, &programs).expect("dry seeding succeeds");
    let total = dry_storage.ops();
    let full = reference.database().entries().to_vec();
    assert!(!full.is_empty(), "seeding must produce database entries");
    let reference_a = reference.schedule(&a);
    let reference_b = reference.schedule(&b);

    // Sample crash points across the whole op range (the per-op exhaustive
    // matrix is `fuzz::run_crash_matrix`, fuzz/tests/crash_matrix.rs;
    // here each trial re-runs the evolutionary search, so we sample).
    let step = (total / 7).max(1) as usize;
    for cut in (0..total).step_by(step) {
        let storage = Arc::new(FaultStorage::new(FaultPlan {
            seed: cut.wrapping_mul(0x2545_F491_4F6C_DD1D),
            crash_at_op: Some(cut),
            flip_bit_on_crash: cut % 2 == 1,
            ..FaultPlan::default()
        }));
        let mut crashed = DaisyScheduler::new(config());
        let error = seed(&mut crashed, &storage, &programs)
            .expect_err("a cut inside the op range must interrupt seeding");
        match &error {
            StoreError::Io(io) => assert!(is_power_cut(io), "cut {cut}: {io}"),
            other => panic!("cut {cut}: unexpected error {other}"),
        }
        storage.crash();
        storage.set_plan(FaultPlan::default());

        // Degrading warm start over the crash image.
        let mut warm = DaisyScheduler::new(config());
        let warm_start = warm
            .warm_start_resilient_with(Arc::clone(&storage) as Arc<dyn Storage>, store_path())
            .expect("recovery after reboot succeeds");
        assert_eq!(warm_start.skipped, 0, "cut {cut}: nothing unrepresentable");
        for source in [&warm_start.health.snapshot, &warm_start.health.journal] {
            assert!(
                !matches!(
                    source,
                    SourceState::Quarantined { .. } | SourceState::Foreign { .. }
                ),
                "cut {cut}: a power cut must only tear, not quarantine: {source}"
            );
        }

        // The recovered database is a prefix of the acknowledged seeding
        // sequence, entry for entry.
        let recovered = warm.database().entries();
        assert!(
            recovered.len() <= full.len(),
            "cut {cut}: recovery cannot invent entries"
        );
        for (index, (got, want)) in recovered.iter().zip(full.iter()).enumerate() {
            assert_eq!(
                got, want,
                "cut {cut}: entry {index} must round-trip exactly"
            );
        }

        // Bit-identity on the surviving entries: the warm scheduler must
        // schedule exactly like a scheduler given the same entries through
        // the strict snapshot path (and, when everything survived, exactly
        // like the reference that never crashed).
        let snapshot = Snapshot {
            fingerprint: warm.store_fingerprint(),
            entries: recovered.iter().map(|e| e.to_stored()).collect(),
        };
        let control_path = std::env::temp_dir().join(format!(
            "daisy-crash-control-{}-{cut}.tunedb",
            std::process::id()
        ));
        snapshot.save(&control_path).unwrap();
        let mut control = DaisyScheduler::new(config());
        control.warm_start(&control_path).unwrap();
        std::fs::remove_file(&control_path).ok();
        assert_eq!(
            warm.schedule(&a),
            control.schedule(&a),
            "cut {cut}: journal-path and snapshot-path scheduling must agree"
        );
        assert_eq!(warm.schedule(&b), control.schedule(&b), "cut {cut}");
        if recovered.len() == full.len() {
            assert_eq!(
                warm.schedule(&a),
                reference_a,
                "cut {cut}: full recovery must match the never-crashed reference"
            );
            assert_eq!(warm.schedule(&b), reference_b, "cut {cut}");
        }
    }
}

#[test]
fn a_crash_free_store_warm_starts_bit_identical_to_cold() {
    let programs = vec![gemm_a(64)];
    let storage = Arc::new(FaultStorage::default());
    let mut cold = DaisyScheduler::new(config());
    seed(&mut cold, &storage, &programs).unwrap();

    let mut warm = DaisyScheduler::new(config());
    let warm_start = warm
        .warm_start_resilient_with(Arc::clone(&storage) as Arc<dyn Storage>, store_path())
        .unwrap();
    assert!(warm_start.is_clean(), "{}", warm_start.health);
    assert_eq!(warm_start.loaded, cold.database().len());
    assert_eq!(warm.database().entries(), cold.database().entries());
    let b = gemm_b(64);
    assert_eq!(warm.schedule(&b), cold.schedule(&b));
}
