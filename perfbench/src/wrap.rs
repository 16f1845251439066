//! Delegating wrappers that time calls into the program's public layer
//! interfaces from the outside: `Model` (nn) and `CompressionScheme`
//! (core). Every method forwards to the wrapped value unchanged, so a
//! wrapped run computes exactly what a bare run does.

use std::sync::{Arc, Mutex};

use gcs_core::scheme::{AggregationOutcome, CommEvent, CompressionScheme, RoundContext};
use gcs_gpusim::DeviceSpec;
use gcs_nn::{Batch, Model};

use crate::rec::{now_ns, Trace};

/// Shared by a model wrapper and all its replicas: the end time and value
/// of every `evaluate()`, and the recorder when the run is traced.
#[derive(Default)]
pub struct Probe {
    pub evals: Mutex<Vec<(u64, f64)>>,
    pub trace: Option<Arc<Trace>>,
}

/// A `Model` that stamps every `evaluate()`; when traced, it also times
/// `forward_backward`, `train_batch`, `set_flat_params` and `evaluate`.
/// `clone_boxed` wraps the inner replica, so the Trainer's parallel worker
/// path still runs (and is timed on the worker threads).
pub struct ProbedModel {
    inner: Box<dyn Model + Send>,
    probe: Arc<Probe>,
}

impl ProbedModel {
    pub fn new(inner: Box<dyn Model + Send>, probe: Arc<Probe>) -> ProbedModel {
        ProbedModel { inner, probe }
    }
}

impl Model for ProbedModel {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn param_count(&self) -> usize {
        self.inner.param_count()
    }
    fn forward_backward(&mut self, batch: &Batch) -> f32 {
        match &self.probe.trace {
            Some(t) => {
                let (loss, allocs) = t.time("nn.forward_backward_ms", || {
                    self.inner.forward_backward(batch)
                });
                t.add("nn.allocs_per_call", allocs as f64);
                loss
            }
            None => self.inner.forward_backward(batch),
        }
    }
    fn grads_flat(&self) -> &[f32] {
        self.inner.grads_flat()
    }
    fn params_flat(&self) -> &[f32] {
        self.inner.params_flat()
    }
    fn params_flat_mut(&mut self) -> &mut [f32] {
        self.inner.params_flat_mut()
    }
    fn flat_grads(&self) -> Vec<f32> {
        self.inner.flat_grads()
    }
    fn apply_flat_delta(&mut self, delta: &[f32]) {
        self.inner.apply_flat_delta(delta)
    }
    fn flat_params(&self) -> Vec<f32> {
        self.inner.flat_params()
    }
    fn set_flat_params(&mut self, params: &[f32]) {
        match &self.probe.trace {
            Some(t) => {
                t.time("nn.replica_sync_ms", || self.inner.set_flat_params(params))
                    .0
            }
            None => self.inner.set_flat_params(params),
        }
    }
    fn evaluate(&mut self) -> f64 {
        let metric = match &self.probe.trace {
            Some(t) => t.time("nn.evaluate_ms", || self.inner.evaluate()).0,
            None => self.inner.evaluate(),
        };
        self.probe
            .evals
            .lock()
            .expect("eval stamps poisoned")
            .push((now_ns(), metric));
        metric
    }
    fn higher_is_better(&self) -> bool {
        self.inner.higher_is_better()
    }
    fn matrix_shapes(&self) -> Vec<(usize, usize)> {
        self.inner.matrix_shapes()
    }
    fn train_batch(&self, batch_size: usize, worker: usize, round: u64) -> Batch {
        match &self.probe.trace {
            Some(t) => {
                t.time("nn.train_batch_ms", || {
                    self.inner.train_batch(batch_size, worker, round)
                })
                .0
            }
            None => self.inner.train_batch(batch_size, worker, round),
        }
    }
    fn clone_boxed(&self) -> Option<Box<dyn Model + Send>> {
        let replica = self.inner.clone_boxed()?;
        Some(Box::new(ProbedModel::new(replica, Arc::clone(&self.probe))))
    }
}

/// A `CompressionScheme` that stamps the start of every
/// `aggregate_round_into` call (one per training round), so round periods
/// can be derived; when traced, it also times the call and counts its heap
/// events on the calling thread.
pub struct TimedScheme<'a> {
    inner: &'a mut dyn CompressionScheme,
    trace: Option<&'a Trace>,
    pub round_starts: Vec<u64>,
}

impl<'a> TimedScheme<'a> {
    pub fn new(inner: &'a mut dyn CompressionScheme, trace: Option<&'a Trace>) -> TimedScheme<'a> {
        TimedScheme {
            inner,
            trace,
            round_starts: Vec::new(),
        }
    }
}

impl CompressionScheme for TimedScheme<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn aggregate_round(&mut self, grads: &[Vec<f32>], ctx: &RoundContext) -> AggregationOutcome {
        self.inner.aggregate_round(grads, ctx)
    }
    fn aggregate_round_into(
        &mut self,
        grads: &[Vec<f32>],
        ctx: &RoundContext,
        out: &mut AggregationOutcome,
    ) {
        self.round_starts.push(now_ns());
        let inner = &mut *self.inner;
        match self.trace {
            Some(t) => {
                let ((), allocs) = t.time("core.aggregate_ms", || {
                    inner.aggregate_round_into(grads, ctx, out)
                });
                t.add("core.allocs_per_round", allocs as f64);
            }
            None => inner.aggregate_round_into(grads, ctx, out),
        }
    }
    fn all_reduce_compatible(&self) -> bool {
        self.inner.all_reduce_compatible()
    }
    fn nominal_bits_per_coord(&self, d: u64) -> f64 {
        self.inner.nominal_bits_per_coord(d)
    }
    fn comm_events(&self, d: u64) -> Vec<CommEvent> {
        self.inner.comm_events(d)
    }
    fn compute_seconds(&self, d: u64, device: &DeviceSpec) -> f64 {
        self.inner.compute_seconds(d, device)
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
}
