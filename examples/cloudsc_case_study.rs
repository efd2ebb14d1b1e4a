//! The CLOUDSC case study (§5): normalize and re-fuse the erosion-of-clouds
//! kernel, verify semantic equivalence with the reference interpreter, and
//! compare the full-model variants sequentially and in parallel.
//!
//! Run with `cargo run --example cloudsc_case_study`.

use machine::interp::run_seeded;
use machine::{simulate_cache, CostModel, MachineConfig};
use polybench::cloudsc::{
    daisy_model, erosion_optimized, erosion_original, full_model, CloudscSizes, CloudscVariant,
};

fn main() {
    let machine = MachineConfig::xeon_e5_2680v3();
    let sizes = CloudscSizes::paper();

    // --- the erosion kernel of Figure 10 --------------------------------
    let original = erosion_original(sizes);
    let optimized = erosion_optimized(sizes);
    let sequential = CostModel::new(machine.clone(), 1);
    println!(
        "erosion kernel (KLEV={}, NPROMA={}): original {:.3} ms, normalized+fused {:.3} ms",
        sizes.klev,
        sizes.nproma,
        sequential.estimate(&original).seconds * 1e3,
        sequential.estimate(&optimized).seconds * 1e3
    );
    let mini = CloudscSizes::mini();
    let before = run_seeded(&erosion_original(mini)).expect("original runs");
    let after = run_seeded(&erosion_optimized(mini)).expect("optimized runs");
    println!(
        "semantic check on the mini configuration: max |ΔZTP1| = {:e}",
        before.max_abs_diff(&after, "ZTP1").unwrap()
    );
    let cache = simulate_cache(&erosion_original(mini), &machine).unwrap();
    println!(
        "cache simulation (mini): {} accesses, {} L1 loads",
        cache.accesses(),
        cache.l1().loads
    );

    // --- the full proxy model (Figure 11 / 12) ---------------------------
    let fortran = full_model(CloudscVariant::Fortran, sizes);
    let daisy_prog = daisy_model(sizes);
    for threads in [1usize, 6, 12] {
        let model = CostModel::new(machine.clone(), threads);
        let f = model.estimate(&fortran).seconds;
        let d = model.estimate(&daisy_prog).seconds;
        println!(
            "{threads:>2} thread(s): Fortran {f:.3}s, daisy {d:.3}s ({:+.1}% vs Fortran)",
            100.0 * (f - d) / f
        );
    }
}
