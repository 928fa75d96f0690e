//! Integration tests: the calibrated profiles, executed on the simulated GPU,
//! reproduce the paper's Table I / Fig. 1 within tolerance.

use daris_gpu::{Gpu, GpuSpec, WorkItem};
use daris_models::{DnnKind, ModelProfile};
use proptest::prelude::*;

/// Runs `jobs` back-to-back inferences of `profile` at the given batch size
/// on an otherwise idle simulated GPU and returns the measured JPS.
fn simulate_jps(profile: &ModelProfile, batch: u32, jobs: u32) -> f64 {
    let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti().without_interference());
    let ctx = gpu.add_context(gpu.spec().sm_count).unwrap();
    let stream = gpu.add_stream(ctx).unwrap();
    for j in 0..jobs {
        let item = WorkItem::new(u64::from(j), profile.job_kernels(batch))
            .with_h2d_bytes(profile.input_bytes(batch))
            .with_d2h_bytes(profile.output_bytes(batch));
        gpu.submit(stream, item).unwrap();
    }
    let done = gpu.run_to_idle();
    assert_eq!(done.len() as u32, jobs);
    let elapsed_s = gpu.now().as_secs_f64();
    f64::from(jobs * batch) / elapsed_s
}

#[test]
fn simulated_unbatched_throughput_matches_table1_min_jps() {
    for kind in DnnKind::all() {
        let p = ModelProfile::calibrated(kind);
        let jps = simulate_jps(&p, 1, 20);
        let target = p.reference().min_jps;
        let err = (jps - target).abs() / target;
        assert!(err < 0.08, "{kind}: simulated {jps:.0} JPS vs Table I {target} JPS");
    }
}

#[test]
fn simulated_batched_throughput_matches_table1_max_jps() {
    for kind in DnnKind::all() {
        let p = ModelProfile::calibrated(kind);
        let (best_batch, _) = p.best_batched_jps();
        let jps = simulate_jps(&p, best_batch, 8);
        let target = p.reference().max_jps;
        let err = (jps - target).abs() / target;
        assert!(
            err < 0.15,
            "{kind}: simulated {jps:.0} JPS at batch {best_batch} vs Table I {target} JPS"
        );
    }
}

#[test]
fn analytic_and_simulated_latency_agree() {
    // The calibration is analytic; the simulator must agree with it, or the
    // calibration would be meaningless.
    for kind in DnnKind::all() {
        let p = ModelProfile::calibrated(kind);
        let analytic_us = p.isolated_latency_us(1);
        let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti().without_interference());
        let ctx = gpu.add_context(68).unwrap();
        let stream = gpu.add_stream(ctx).unwrap();
        let item = WorkItem::new(0, p.job_kernels(1))
            .with_h2d_bytes(p.input_bytes(1))
            .with_d2h_bytes(p.output_bytes(1));
        gpu.submit(stream, item).unwrap();
        let done = gpu.run_to_idle();
        let simulated_us = done[0].execution_time().as_micros_f64();
        let err = (analytic_us - simulated_us).abs() / analytic_us;
        assert!(err < 0.02, "{kind}: analytic {analytic_us:.1}us vs simulated {simulated_us:.1}us");
    }
}

#[test]
fn batching_gain_shape_matches_figure_1() {
    // Fig. 1 / Table I ordering: InceptionV3 >> ResNet50 ≳ ResNet18 >> UNet.
    let gain = |kind| ModelProfile::calibrated(kind).batching_gain();
    assert!(gain(DnnKind::InceptionV3) > 2.5);
    assert!(gain(DnnKind::ResNet18) > 1.4 && gain(DnnKind::ResNet18) < 1.9);
    assert!(gain(DnnKind::UNet) < 1.2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched latency is monotone non-decreasing in batch size, and per-job
    /// latency is monotone non-increasing (batching never hurts throughput
    /// on an otherwise idle device).
    #[test]
    fn batching_never_reduces_throughput(batch_exp in 1u32..6) {
        let p = ModelProfile::calibrated(DnnKind::InceptionV3);
        let b1 = 1u32 << (batch_exp - 1);
        let b2 = 1u32 << batch_exp;
        let l1 = p.isolated_latency_us(b1);
        let l2 = p.isolated_latency_us(b2);
        prop_assert!(l2 >= l1);
        prop_assert!(l2 / f64::from(b2) <= l1 / f64::from(b1) + 1e-9);
    }

    /// Stage kernels at any batch size remain valid GPU kernels.
    #[test]
    fn stage_kernels_are_always_valid(stage in 0usize..4, batch in 1u32..32) {
        let p = ModelProfile::calibrated(DnnKind::ResNet50);
        for k in p.stage_kernels(stage, batch).iter() {
            prop_assert!(k.validate().is_ok());
            prop_assert!(k.parallelism >= 1);
        }
    }
}
