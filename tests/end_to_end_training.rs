//! Full-stack training integration: real mini models, real compression,
//! simulated clock — short versions of the figure experiments.

use gradient_utility::core::schemes::baseline::PrecisionBaseline;
use gradient_utility::core::schemes::powersgd::PowerSgd;
use gradient_utility::core::schemes::thc::Thc;
use gradient_utility::core::schemes::topkc::TopKC;
use gradient_utility::ddp::experiments::Task;
use gradient_utility::ddp::{param_checksum, Trainer, TrainerConfig};
use gradient_utility::gpusim::DeviceSpec;
use gradient_utility::tensor::simd::with_scalar_dispatch;

fn short_cfg(task: Task, rounds: u64) -> TrainerConfig {
    TrainerConfig {
        max_rounds: rounds,
        vnmse_every: 20,
        ..task.trainer_config()
    }
}

#[test]
fn language_model_trains_under_every_scheme_family() {
    let task = Task::Bert;
    let cfg = short_cfg(task, 200);
    let device = DeviceSpec::a100();
    let schemes: Vec<Box<dyn gradient_utility::core::scheme::CompressionScheme>> = vec![
        Box::new(PrecisionBaseline::fp16()),
        Box::new(TopKC::paper_config(2.0, cfg.n_workers)),
        Box::new(Thc::improved(4, &device, cfg.n_workers)),
    ];
    for mut scheme in schemes {
        let mut model = task.build_model(cfg.seed);
        let before = model.evaluate();
        let log = Trainer::new(cfg.clone()).train(model.as_mut(), scheme.as_mut(), 0.25);
        assert!(
            log.final_metric < 0.6 * before,
            "{}: perplexity {before:.1} -> {:.1} (insufficient progress)",
            scheme.name(),
            log.final_metric
        );
    }
}

#[test]
fn cnn_trains_under_powersgd() {
    let task = Task::Vgg;
    let cfg = short_cfg(task, 200);
    let probe = task.build_model(cfg.seed);
    let shapes = probe.matrix_shapes();
    drop(probe);
    let mut scheme = PowerSgd::new(4, shapes, cfg.n_workers);
    let mut model = task.build_model(cfg.seed);
    let log = Trainer::new(cfg).train(model.as_mut(), &mut scheme, 0.1);
    assert!(
        log.final_metric > 0.45,
        "PowerSGD r=4 accuracy stalled at {:.3}",
        log.final_metric
    );
    assert!(log.bits_per_coord < 16.0, "b = {}", log.bits_per_coord);
}

#[test]
fn compressed_training_matches_uncompressed_within_tolerance_at_high_budget() {
    // A generous-budget TopKC run should track the FP32 baseline closely.
    let task = Task::Bert;
    let cfg = short_cfg(task, 150);
    let mut baseline_model = task.build_model(cfg.seed);
    let mut baseline = PrecisionBaseline::fp32();
    let base_log = Trainer::new(cfg.clone()).train(baseline_model.as_mut(), &mut baseline, 1.0);

    let mut compressed_model = task.build_model(cfg.seed);
    let mut topkc = TopKC::with_bits(8.0, 64, cfg.n_workers, true);
    let comp_log = Trainer::new(cfg).train(compressed_model.as_mut(), &mut topkc, 1.0);

    let ratio = comp_log.final_metric / base_log.final_metric;
    assert!(
        ratio < 1.5,
        "b=8 TopKC final perplexity {:.2} vs baseline {:.2}",
        comp_log.final_metric,
        base_log.final_metric
    );
}

#[test]
fn vnmse_during_training_orders_schemes_by_budget() {
    let task = Task::Bert;
    let cfg = short_cfg(task, 60);
    let run = |b: f64| {
        let mut model = task.build_model(cfg.seed);
        let mut s = TopKC::paper_config(b, cfg.n_workers);
        Trainer::new(cfg.clone())
            .train(model.as_mut(), &mut s, 1.0)
            .mean_vnmse
    };
    let coarse = run(0.5);
    let fine = run(8.0);
    assert!(
        fine < coarse,
        "vNMSE should fall with budget: b=8 {fine} vs b=0.5 {coarse}"
    );
}

#[test]
fn early_stopping_terminates_a_converged_run() {
    let task = Task::Vgg;
    let mut cfg = short_cfg(task, 2000);
    cfg.early_stopping = Some((1.0, 3, 10));
    let mut model = task.build_model(cfg.seed);
    let mut scheme = PrecisionBaseline::fp16();
    let log = Trainer::new(cfg).train(model.as_mut(), &mut scheme, 0.05);
    assert!(
        log.rounds < 2000,
        "early stopping never fired in {} rounds",
        log.rounds
    );
}

/// Pins the training arithmetic bit for bit: 60 rounds of BertMini under
/// TopKC (2 bits/coord), evaluating every 5 rounds, must land on exactly
/// these parameter and final-metric bits at any `GCS_THREADS`. Kernel
/// rewrites (SIMD layers, fan-out, buffer reuse) may change speed, never a
/// bit of this run.
#[test]
fn bert_topkc_run_is_bitwise_pinned() {
    let task = Task::Bert;
    let cfg = TrainerConfig {
        max_rounds: 60,
        eval_every: 5,
        ..task.trainer_config()
    };
    let mut model = task.build_model(cfg.seed);
    let mut scheme = TopKC::paper_config(2.0, cfg.n_workers);
    let log = Trainer::new(cfg).train(model.as_mut(), &mut scheme, 1.0);
    assert_eq!(
        param_checksum(model.as_ref()),
        0x9667_4be0_8a9c_ab44,
        "param_checksum moved"
    );
    assert_eq!(
        log.final_metric.to_bits(),
        0x4046_b87f_8ba9_3589,
        "final metric bits moved"
    );
}

/// The FP16 baseline's counterpart of [`bert_topkc_run_is_bitwise_pinned`]:
/// binary16 encode, per-hop binary16 sums and decode must land on these
/// bits on the F16C path and on the software conversions alike, at any
/// `GCS_THREADS`.
#[test]
fn bert_fp16_run_is_bitwise_pinned() {
    let run = || {
        let task = Task::Bert;
        let cfg = TrainerConfig {
            max_rounds: 60,
            eval_every: 5,
            ..task.trainer_config()
        };
        let mut model = task.build_model(cfg.seed);
        let mut scheme = PrecisionBaseline::fp16();
        let log = Trainer::new(cfg).train(model.as_mut(), &mut scheme, 1.0);
        (param_checksum(model.as_ref()), log.final_metric.to_bits())
    };
    for (path, (checksum, metric)) in [("dispatched", run()), ("scalar", with_scalar_dispatch(run))]
    {
        assert_eq!(
            checksum, 0x33ad_d093_1ece_1b12,
            "{path}: param_checksum moved"
        );
        assert_eq!(
            metric, 0x4045_fd0c_bb72_edd3,
            "{path}: final metric bits moved"
        );
    }
}
