//! The CLOUDSC proxy: a cloud-microphysics scheme with the loop structure of
//! the paper's §5 case study.
//!
//! The real CLOUDSC is ECMWF's production cloud/precipitation
//! parametrization; its code is not reproducible here, so this module builds
//! a proxy with the same structural properties the case study relies on:
//!
//! * the simulated volume is split into `NBLOCKS` independent column blocks
//!   (the outer, fully data-parallel loop),
//! * each block sweeps a vertical loop over `KLEV` levels,
//! * every level update consists of several innermost loops over the
//!   `NPROMA` tiling dimension, each implementing one physical equation with
//!   inlined saturation (`FOEEWM`-style) functions,
//! * a precipitation-flux accumulation carries a dependence along the
//!   vertical loop, so only the block loop is parallel.
//!
//! The *erosion of clouds* kernel (Fig. 10) is provided both in its original
//! fused form (one `JL` loop whose two updates each re-evaluate the inlined
//! saturation expression, as the inlined-and-unrolled compiler output does)
//! and in the normalized+fused form of Fig. 10b (each intermediate computed
//! once into an `NPROMA`-sized local array). The two forms are semantically
//! equivalent; Table 1 compares their cache behaviour and runtime.

use loop_ir::program::Program;

use crate::kernels::build;

/// The physical constants used by the proxy (values from the IFS
/// documentation; only their magnitudes matter for the performance shape).
fn constants() -> &'static str {
    "scalar R2ES = 611.21; scalar R3LES = 17.502; scalar R4LES = 32.19;
     scalar RTT = 273.16; scalar RETV = 0.6077; scalar RALVDCP = 2.5008;
     scalar RAMIN = 0.00000001; scalar RLMIN = 0.00000001;"
}

/// The inlined saturation-deficit expression (`FOEEWM`/`FOELDCPM` substitute):
/// the amount of cloud water eroded at `[level][jl]` of the given arrays.
fn cond_expr(t: &str, q: &str, pap: &str, a: &str, level: &str, jl: &str) -> String {
    format!(
        "max({q}{lvl} - min(R2ES * exp(R3LES * ({t}{lvl} - RTT) / ({t}{lvl} - R4LES)) / {pap}{lvl}, 0.5), 0.0) * {a}{lvl}",
        lvl = format!("[{level}][{jl}]"),
        t = t,
        q = q,
        pap = pap,
        a = a,
    )
}

/// Problem sizes of the case study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloudscSizes {
    /// Inner tiling dimension (columns per block).
    pub nproma: i64,
    /// Number of vertical levels.
    pub klev: i64,
    /// Number of column blocks.
    pub nblocks: i64,
}

impl CloudscSizes {
    /// The paper's configuration: `NPROMA = 128`, `KLEV = 137`,
    /// `NBLOCKS = 512` (total columns = `NPROMA * NBLOCKS`).
    pub fn paper() -> Self {
        CloudscSizes {
            nproma: 128,
            klev: 137,
            nblocks: 512,
        }
    }

    /// A tiny configuration for interpreter-based equivalence tests.
    pub fn mini() -> Self {
        CloudscSizes {
            nproma: 8,
            klev: 5,
            nblocks: 3,
        }
    }

    /// A configuration with a custom number of total columns, used by the
    /// weak-scaling experiment (Fig. 12b): `columns = NPROMA * NBLOCKS`.
    pub fn with_columns(columns: i64) -> Self {
        let nproma = 128;
        CloudscSizes {
            nproma,
            klev: 137,
            nblocks: (columns / nproma).max(1),
        }
    }
}

// --------------------------------------------------------------------------
// The erosion kernel of Figure 10 (single block, all vertical levels).
// --------------------------------------------------------------------------

/// The erosion-of-clouds loop nest in its original form (Fig. 10a): one loop
/// over `JL` per vertical level whose two state updates each re-evaluate the
/// inlined saturation expression.
pub fn erosion_original(sizes: CloudscSizes) -> Program {
    let cond = cond_expr("ZTP1", "ZQX", "PAP", "ZA", "JK", "JL");
    build(
        "cloudsc_erosion_original",
        &format!(
            "program cloudsc_erosion_original {{
               param KLEV = {klev}; param NPROMA = {nproma};
               {constants}
               array ZTP1[KLEV][NPROMA]; array ZQSMIX[KLEV][NPROMA];
               array ZQX[KLEV][NPROMA]; array PAP[KLEV][NPROMA]; array ZA[KLEV][NPROMA];
               for JK in 0..KLEV {{
                 for JL in 0..NPROMA {{
                   ZQSMIX[JK][JL] -= {cond};
                   ZTP1[JK][JL] += RALVDCP * ({cond});
                 }}
               }}
             }}",
            klev = sizes.klev,
            nproma = sizes.nproma,
            constants = constants(),
            cond = cond,
        ),
    )
}

/// The erosion kernel after maximal fission and producer-consumer fusion
/// (Fig. 10b): the saturation deficit is computed once per column into the
/// `NPROMA`-sized local array `ZCOND_0`, then consumed by the two updates.
pub fn erosion_optimized(sizes: CloudscSizes) -> Program {
    let cond = cond_expr("ZTP1", "ZQX", "PAP", "ZA", "JK", "JL");
    build(
        "cloudsc_erosion_optimized",
        &format!(
            "program cloudsc_erosion_optimized {{
               param KLEV = {klev}; param NPROMA = {nproma};
               {constants}
               array ZTP1[KLEV][NPROMA]; array ZQSMIX[KLEV][NPROMA];
               array ZQX[KLEV][NPROMA]; array PAP[KLEV][NPROMA]; array ZA[KLEV][NPROMA];
               array ZCOND_0[NPROMA];
               for JK in 0..KLEV {{
                 for JL in 0..NPROMA {{
                   ZCOND_0[JL] = {cond};
                 }}
                 for JL in 0..NPROMA {{
                   ZQSMIX[JK][JL] -= ZCOND_0[JL];
                 }}
                 for JL in 0..NPROMA {{
                   ZTP1[JK][JL] += RALVDCP * ZCOND_0[JL];
                 }}
               }}
             }}",
            klev = sizes.klev,
            nproma = sizes.nproma,
            constants = constants(),
            cond = cond,
        ),
    )
}

/// Single-level versions of the erosion kernel (the "single iteration" row of
/// Table 1): the same loop nests restricted to one vertical level.
pub fn erosion_single_level(sizes: CloudscSizes, optimized: bool) -> Program {
    let one_level = CloudscSizes { klev: 1, ..sizes };
    if optimized {
        erosion_optimized(one_level)
    } else {
        erosion_original(one_level)
    }
}

// --------------------------------------------------------------------------
// The full proxy model.
// --------------------------------------------------------------------------

/// Which implementation of the full model to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloudscVariant {
    /// The hand-tuned Fortran structure: physics equations fused per level
    /// (large loop bodies), contiguous `JL`-innermost accesses.
    Fortran,
    /// The C port: same computations, but the state copy at the top of every
    /// level materializes an extra temporary sweep.
    C,
    /// The DaCe-generated SDFG: fully operator-at-a-time (every intermediate
    /// in its own `JL` loop writing an `NPROMA` temporary).
    Dace,
}

/// Builds the full CLOUDSC proxy for one variant.
///
/// The model contains, per block and vertical level: the erosion update, a
/// condensation/detrainment update, and a precipitation-flux accumulation
/// that carries a dependence along the vertical loop. The block loop is data
/// parallel and annotated as such, matching the OpenMP parallelization of
/// every real CLOUDSC version.
pub fn full_model(variant: CloudscVariant, sizes: CloudscSizes) -> Program {
    let cond = cond_expr("ZTP1", "ZQX", "PAP", "ZA", "IBL * KLEV + JK", "JL");
    let common_decls = format!(
        "param NBLOCKS = {nblocks}; param KLEV = {klev}; param NPROMA = {nproma};
         {constants}
         array ZTP1[NBLOCKS * KLEV][NPROMA]; array ZQSMIX[NBLOCKS * KLEV][NPROMA];
         array ZQX[NBLOCKS * KLEV][NPROMA]; array PAP[NBLOCKS * KLEV][NPROMA];
         array ZA[NBLOCKS * KLEV][NPROMA]; array PLUDE[NBLOCKS * KLEV][NPROMA];
         array PFPLSL[NBLOCKS * KLEV][NPROMA];",
        nblocks = sizes.nblocks,
        klev = sizes.klev,
        nproma = sizes.nproma,
        constants = constants(),
    );
    let lvl = "[IBL * KLEV + JK][JL]";
    let prev = "[IBL * KLEV + JK - 1][JL]";
    // Per-level physics, in three styles.
    let level_body = match variant {
        CloudscVariant::Fortran => format!(
            "for JL in 0..NPROMA {{
               ZQSMIX{lvl} -= {cond};
               ZTP1{lvl} += RALVDCP * ({cond});
               PLUDE{lvl} = max(ZA{lvl} * ZQX{lvl} - RAMIN, 0.0) * 0.5
                            + min(ZQSMIX{lvl}, RLMIN) * ZA{lvl};
             }}"
        ),
        CloudscVariant::C => format!(
            "for JL in 0..NPROMA {{
               ZQSMIX{lvl} -= {cond};
               ZTP1{lvl} += RALVDCP * ({cond});
             }}
             for JL in 0..NPROMA {{
               PLUDE{lvl} = max(ZA{lvl} * ZQX{lvl} - RAMIN, 0.0) * 0.5
                            + min(ZQSMIX{lvl}, RLMIN) * ZA{lvl};
             }}"
        ),
        CloudscVariant::Dace => format!(
            "for JL in 0..NPROMA {{
               ZCOND_0[JL] = {cond};
             }}
             for JL in 0..NPROMA {{
               ZQSMIX{lvl} -= ZCOND_0[JL];
             }}
             for JL in 0..NPROMA {{
               ZTP1{lvl} += RALVDCP * ZCOND_0[JL];
             }}
             for JL in 0..NPROMA {{
               ZLUDE_0[JL] = max(ZA{lvl} * ZQX{lvl} - RAMIN, 0.0) * 0.5;
             }}
             for JL in 0..NPROMA {{
               PLUDE{lvl} = ZLUDE_0[JL] + min(ZQSMIX{lvl}, RLMIN) * ZA{lvl};
             }}"
        ),
    };
    let temp_decls = match variant {
        CloudscVariant::Dace => "array ZCOND_0[NPROMA]; array ZLUDE_0[NPROMA];",
        _ => "",
    };
    let name = match variant {
        CloudscVariant::Fortran => "cloudsc_fortran",
        CloudscVariant::C => "cloudsc_c",
        CloudscVariant::Dace => "cloudsc_dace",
    };
    build(
        name,
        &format!(
            "program {name} {{
               {common_decls}
               {temp_decls}
               #pragma parallel
               for IBL in 0..NBLOCKS {{
                 for JK in 1..KLEV {{
                   {level_body}
                   for JL in 0..NPROMA {{
                     PFPLSL{lvl} = PFPLSL{prev} + PLUDE{lvl} * 0.1;
                   }}
                 }}
               }}
             }}"
        ),
    )
}

/// The daisy CLOUDSC version of the case study (Figs. 11 and 12): the DaCe
/// structure normalized and then producer-consumer fused (§5.1). This is
/// the one place the version is built.
pub fn daisy_model(sizes: CloudscSizes) -> Program {
    let dace = full_model(CloudscVariant::Dace, sizes);
    let normalized = normalize::Normalizer::new()
        .run(&dace)
        .expect("the DaCe variant normalizes")
        .program;
    transforms::fuse_producer_consumers(&normalized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::interp::run_seeded;

    fn equivalent(a: &Program, b: &Program, arrays: &[&str]) {
        let da = run_seeded(a).expect("first variant runs");
        let db = run_seeded(b).expect("second variant runs");
        for array in arrays {
            let diff = da.max_abs_diff(&db, array).expect("same shape");
            assert!(diff < 1e-9, "array {array} differs by {diff}");
        }
    }

    #[test]
    fn erosion_original_and_optimized_are_equivalent() {
        let sizes = CloudscSizes::mini();
        equivalent(
            &erosion_original(sizes),
            &erosion_optimized(sizes),
            &["ZTP1", "ZQSMIX"],
        );
    }

    #[test]
    fn single_level_variants_are_equivalent() {
        let sizes = CloudscSizes::mini();
        equivalent(
            &erosion_single_level(sizes, false),
            &erosion_single_level(sizes, true),
            &["ZTP1", "ZQSMIX"],
        );
    }

    #[test]
    fn all_full_model_variants_compute_the_same_fields() {
        let sizes = CloudscSizes::mini();
        let fortran = full_model(CloudscVariant::Fortran, sizes);
        let c = full_model(CloudscVariant::C, sizes);
        let dace = full_model(CloudscVariant::Dace, sizes);
        for variant in [&c, &dace] {
            equivalent(&fortran, variant, &["ZTP1", "ZQSMIX", "PLUDE", "PFPLSL"]);
        }
    }

    #[test]
    fn block_loop_is_parallel_and_vertical_loop_is_not() {
        let p = full_model(CloudscVariant::Fortran, CloudscSizes::mini());
        let nest = p.loop_nests()[0];
        assert!(nest.schedule.parallel);
        let graph = dependence::analyze(&p);
        assert!(dependence::is_parallel_loop(
            &graph,
            &loop_ir::expr::Var::new("IBL")
        ));
        assert!(!dependence::is_parallel_loop(
            &graph,
            &loop_ir::expr::Var::new("JK")
        ));
    }

    #[test]
    fn normalization_plus_fusion_preserves_the_dace_variant() {
        let sizes = CloudscSizes::mini();
        let dace = full_model(CloudscVariant::Dace, sizes);
        let fused = daisy_model(sizes);
        assert!(fused.validate().is_ok());
        equivalent(&dace, &fused, &["ZTP1", "ZQSMIX", "PLUDE", "PFPLSL"]);
    }

    #[test]
    fn paper_sizes_describe_the_experiment() {
        let s = CloudscSizes::paper();
        assert_eq!(s.nproma, 128);
        assert_eq!(s.nblocks, 512);
        assert_eq!(s.nproma * s.nblocks, 65536);
        assert_eq!(CloudscSizes::with_columns(131072).nblocks, 1024);
        assert!(erosion_original(CloudscSizes::paper()).validate().is_ok());
        assert!(full_model(CloudscVariant::Fortran, CloudscSizes::paper())
            .validate()
            .is_ok());
    }
}
