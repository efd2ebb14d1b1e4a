//! Integration test of the §5 case study: the full optimization pipeline on
//! the CLOUDSC proxy is semantics-preserving and at least as fast as the
//! hand-tuned structure under the machine model.

use machine::interp::run_seeded;
use machine::CostModel;
use polybench::cloudsc::{daisy_model, full_model, CloudscSizes, CloudscVariant};

#[test]
fn daisy_pipeline_on_cloudsc_is_equivalent_and_not_slower() {
    let mini = CloudscSizes::mini();
    let fortran = full_model(CloudscVariant::Fortran, mini);
    let daisy_prog = daisy_model(mini);
    assert!(daisy_prog.validate().is_ok());

    // Semantics: the optimized pipeline computes the same physics.
    let reference = run_seeded(&fortran).unwrap();
    let optimized = run_seeded(&daisy_prog).unwrap();
    for array in ["ZTP1", "ZQSMIX", "PLUDE", "PFPLSL"] {
        let diff = reference.max_abs_diff(&optimized, array).unwrap();
        assert!(diff < 1e-9, "array {array} differs by {diff}");
    }

    // Performance shape at the paper's sizes: daisy beats the DaCe structure
    // it started from and is at least competitive with Fortran.
    let paper = CloudscSizes::paper();
    let fortran_large = full_model(CloudscVariant::Fortran, paper);
    let dace_large = full_model(CloudscVariant::Dace, paper);
    let daisy_large = daisy_model(paper);
    let model = CostModel::sequential();
    let t_fortran = model.estimate(&fortran_large).seconds;
    let t_dace = model.estimate(&dace_large).seconds;
    let t_daisy = model.estimate(&daisy_large).seconds;
    assert!(
        t_daisy < t_dace,
        "daisy {t_daisy} should beat DaCe {t_dace}"
    );
    assert!(
        t_daisy <= t_fortran * 1.05,
        "daisy {t_daisy} should be competitive with Fortran {t_fortran}"
    );
}
