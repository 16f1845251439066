//! The workloads: wall-clock time-to-accuracy of one compression scheme
//! under `Trainer::train` on BertMini with 4 simulated workers.
//!
//! The task's dataset is fixed (the task's default data seed); a pass's
//! seed draws the initial weights and the trainer's shared randomness. TTA
//! runs from the call into `Trainer::train` to the end of the first
//! `evaluate()` whose rolling average (`Task::rolling_window`) meets the
//! target, read from the eval stamps of a delegating model.

use std::sync::Arc;
use std::time::Instant;

use gcs_core::scheme::CompressionScheme;
use gcs_core::schemes::baseline::PrecisionBaseline;
use gcs_core::schemes::powersgd::PowerSgd;
use gcs_core::schemes::thc::Thc;
use gcs_core::schemes::topkc::TopKC;
use gcs_ddp::{param_checksum, Task, ThroughputModel, Trainer};
use gcs_gpusim::{DeviceSpec, Precision};
use gcs_nn::{BertMini, Model};

use crate::rec::{
    covered_pct, median, ms, now_ns, peak_rss_mb, quantile, splitmix64, Report, Trace, SETUPS,
};
use crate::wrap::{Probe, ProbedModel, TimedScheme};
use crate::Args;

const TASK: Task = Task::Bert;
const WORKERS: usize = 4;

/// Scheme labels, one workload each (`bert-<label>`).
pub const SCHEMES: [&str; 4] = ["fp16", "topkc", "thc", "powersgd"];

/// One workload: the scheme, the quality target and the round budget.
#[derive(Clone, Copy)]
pub struct Spec {
    /// Index into [`SCHEMES`].
    pub scheme: usize,
    /// Rolling-averaged perplexity the run must get down to.
    pub target: f64,
    /// Round budget the target must be met within.
    pub budget: u64,
    pub eval_every: u64,
}

/// Perplexity ≤ 40 is reached by all four schemes in 75–110 rounds on the
/// seeds tried; evaluating every 5 rounds (the task's default is 10) halves
/// the rounding of rounds-to-target.
pub fn spec(scheme: usize) -> Spec {
    Spec {
        scheme,
        target: 40.0,
        budget: 140,
        eval_every: 5,
    }
}

/// Two evals and a target every run meets, for the self-test: it checks
/// plumbing, not convergence.
pub fn tiny(spec: Spec) -> Spec {
    Spec {
        target: 1e12,
        budget: 2 * spec.eval_every,
        ..spec
    }
}

/// A target no run can meet (perplexity is at least 1), for the self-test
/// of the correctness gate.
pub fn unreachable(spec: Spec) -> Spec {
    Spec {
        target: 0.0,
        ..tiny(spec)
    }
}

fn build_scheme(spec: Spec, shapes: &[(usize, usize)]) -> Box<dyn CompressionScheme> {
    match SCHEMES[spec.scheme] {
        "fp16" => Box::new(PrecisionBaseline::fp16()),
        "topkc" => Box::new(TopKC::paper_config(2.0, WORKERS)),
        "thc" => Box::new(Thc::improved(4, &DeviceSpec::a100(), WORKERS)),
        _ => Box::new(PowerSgd::new(4, shapes.to_vec(), WORKERS)),
    }
}

/// The seed of a run's `k`-th pass: the run's seed, then values drawn
/// from it.
fn pass_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        seed
    } else {
        splitmix64(seed ^ k)
    }
}

/// Everything built before the first timed round: the task model (fixed
/// dataset, weights drawn from the seed) and the scheme's simulated step
/// time. `train_once` builds a fresh scheme; building one here prices it.
struct Setup {
    model: Box<dyn Model + Send>,
    step_seconds: f64,
}

fn setup(spec: Spec, seed: u64) -> Setup {
    let mut model = BertMini::new(TASK.trainer_config().seed);
    model.set_flat_params(BertMini::new(seed).params_flat());
    let scheme = build_scheme(spec, &model.matrix_shapes());
    let step_seconds = ThroughputModel::paper_testbed()
        .step(scheme.as_ref(), &TASK.profile(), Precision::Tf32)
        .total();
    Setup {
        model: Box::new(model),
        step_seconds,
    }
}

/// One `Trainer::train` over the full round budget.
struct Pass {
    seed: u64,
    /// Seconds from the call to the end of the eval that met the target.
    tta_s: Option<f64>,
    rounds_to_target: Option<u64>,
    /// Wall time between successive aggregation calls, in ms.
    round_ms: Vec<f64>,
    checksum: u64,
    finite: bool,
    bits_per_coord: f64,
    wall_ns: (u64, u64),
}

fn train_once(spec: Spec, seed: u64, setup: &Setup, trace: Option<&Arc<Trace>>) -> Pass {
    let probe = Arc::new(Probe {
        trace: trace.cloned(),
        ..Probe::default()
    });
    let replica = setup.model.clone_boxed().expect("task models replicate");
    let mut model = ProbedModel::new(replica, Arc::clone(&probe));
    let mut scheme = build_scheme(spec, &setup.model.matrix_shapes());
    let mut cfg = TASK.trainer_config();
    cfg.seed = seed;
    cfg.max_rounds = spec.budget;
    cfg.eval_every = spec.eval_every;
    let trainer = Trainer::new(cfg);

    let mut timed = TimedScheme::new(scheme.as_mut(), trace.map(|t| &**t));
    let start = now_ns();
    let log = trainer.train(&mut model, &mut timed, setup.step_seconds);
    let end = now_ns();

    let evals = probe.evals.lock().expect("eval stamps poisoned").clone();
    let hit = first_meeting(spec, model.higher_is_better(), &evals);
    Pass {
        seed,
        tta_s: hit.map(|k| evals[k].0.saturating_sub(start) as f64 / 1e9),
        rounds_to_target: hit.map(|k| (k as u64 + 1) * spec.eval_every),
        round_ms: timed.round_starts.windows(2).map(|w| ms(w[0], w[1])).collect(),
        checksum: param_checksum(&model),
        finite: log.loss_history.iter().all(|(_, l)| l.is_finite()) && log.final_metric.is_finite(),
        bits_per_coord: log.bits_per_coord,
        wall_ns: (start, end),
    }
}

/// Index of the first eval whose rolling average meets the target.
fn first_meeting(spec: Spec, higher_is_better: bool, evals: &[(u64, f64)]) -> Option<usize> {
    let window = TASK.rolling_window().max(1);
    (0..evals.len()).find(|&k| {
        let from = (k + 1).saturating_sub(window);
        let avg = evals[from..=k].iter().map(|e| e.1).sum::<f64>() / (k + 1 - from) as f64;
        if higher_is_better {
            avg >= spec.target
        } else {
            avg <= spec.target
        }
    })
}

/// Checks one pass against the gates; returns its TTA if it passed.
fn gate(report: &mut Report, spec: Spec, pass: &Pass) -> Option<f64> {
    report.attempted += 1;
    match pass.tta_s {
        Some(t) if pass.finite => Some(t),
        _ => {
            report.failed += 1;
            report.fail_gate(format!(
                "seed {}: perplexity {} not reached within {} rounds (finite losses: {})",
                pass.seed, spec.target, spec.budget, pass.finite
            ));
            None
        }
    }
}

/// Untraced measurement. Passes run the full round budget, each on a new
/// seed drawn from `--seed`, while the next one fits in `--seconds` (at
/// least one). Each pass sets up `SETUPS` times and keeps the last, so
/// set-up samples spread over the whole run. TTA is the median over
/// passes, so one seed's lucky or slow convergence moves one sample; round
/// time is the median over every round of every pass.
pub fn run(spec: Spec, args: &Args) -> Report {
    let mut report = Report::new();
    let deadline = Instant::now() + args.duration();
    let (mut setup_s, mut tta, mut round_ms, mut passes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for k in 0.. {
        let seed = pass_seed(args.seed, k);
        let mut built = None;
        for _ in 0..SETUPS {
            let t = Instant::now();
            built = Some(setup(spec, seed));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let pass = train_once(spec, seed, &built.expect("SETUPS is positive"), None);
        tta.extend(gate(&mut report, spec, &pass));
        round_ms.extend_from_slice(&pass.round_ms);
        passes.push(pass);
        if !report.correct || Instant::now() + t.elapsed() > deadline {
            break;
        }
    }

    report.metric(
        "setup_s",
        median(&setup_s).expect("SETUPS is positive"),
        "s",
    );
    if let Some(t) = median(&tta) {
        report.metric("tta_s", t, "s");
    }
    if let Some(r) = median(&round_ms) {
        report.metric("round_ms.p50", r, "ms");
    }
    report.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB");

    report.note(format!(
        "task={TASK:?} scheme={} workers={WORKERS} target={} budget={} eval_every={} rolling_window={} passes={}",
        SCHEMES[spec.scheme],
        spec.target,
        spec.budget,
        spec.eval_every,
        TASK.rolling_window(),
        passes.len()
    ));
    for p in &passes {
        report.note(format!(
            "seed={} rounds_to_target={:?} tta_s={:?} bits_per_coord={}",
            p.seed, p.rounds_to_target, p.tta_s, p.bits_per_coord
        ));
    }
    report.note(format!(
        "round_ms: p90={:.4} over {} rounds",
        quantile(&round_ms, 0.9).unwrap_or(f64::NAN),
        round_ms.len()
    ));
    report
}

/// Traced measurement: an untraced pass and a traced pass on `--seed`.
/// Per-layer numbers come from the traced pass; the two passes must end on
/// the same parameter checksum.
pub fn run_traced(spec: Spec, args: &Args) -> Report {
    let mut report = Report::new();
    let built = setup(spec, args.seed);
    let plain = train_once(spec, args.seed, &built, None);
    let untraced_tta = gate(&mut report, spec, &plain);
    let trace = Arc::new(Trace::default());
    let traced = train_once(spec, args.seed, &built, Some(&trace));
    let traced_tta = gate(&mut report, spec, &traced);
    if traced.checksum != plain.checksum {
        report.fail_gate(format!(
            "traced checksum {:#x} != untraced {:#x}",
            traced.checksum, plain.checksum
        ));
    }

    for name in [
        "nn.forward_backward_ms",
        "nn.train_batch_ms",
        "nn.replica_sync_ms",
        "nn.evaluate_ms",
        "core.aggregate_ms",
    ] {
        report.timing(name, &trace.samples(name));
    }
    for name in ["nn.allocs_per_call", "core.allocs_per_round"] {
        let allocs = median(&trace.samples(name)).unwrap_or(f64::NAN);
        report.metric(name, allocs, "count");
    }
    report.metric("core.bits_per_coord", traced.bits_per_coord, "bits");
    report.timing("ddp.round_ms", &traced.round_ms);
    if let Some(rounds) = traced.rounds_to_target {
        report.metric("ddp.rounds_to_target", rounds as f64, "rounds");
    }
    let (start, end) = traced.wall_ns;
    let covered = covered_pct(&mut trace.spans(), start, end);
    report.metric("unattributed_pct", 100.0 - covered, "%");
    if let (Some(plain), Some(traced)) = (untraced_tta, traced_tta) {
        report.metric("trace_overhead_pct", 100.0 * (traced / plain - 1.0), "%");
        report.note(format!(
            "trace_overhead_pct compares TTA: untraced {plain:.3}s, traced {traced:.3}s"
        ));
    }
    report.note(
        "unattributed: time inside Trainer::train outside every timed call — the optimizer \
         step, vNMSE sampling, gradient buffer swaps and per-round thread fork/join",
    );
    report
}
