//! Per-layer figures of one traced pass, read from the engine's existing
//! spans (`exec-unit` / `stage` / `task`) and the benchmark's own spans
//! around its calls into each crate.

use std::hint::black_box;
use std::time::Instant;

use fuseme::prelude::*;
use fuseme_fusion::cost::CostModel;
use fuseme_fusion::optimizer::optimize_bounded;
use fuseme_fusion::plan::k_splittable;
use fuseme_fusion::space::SpaceTree;
use fuseme_obs::{SpanKind, SpanRecord};

use crate::pass::{spans, QueryRun};

/// Wall-clock and count figures of one traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// Seconds in `Session::compile_script`.
    pub compile_s: f64,
    /// Seconds in `Engine::plan`.
    pub plan_s: f64,
    /// Seconds in `Engine::run_plan`.
    pub run_s: f64,
    /// `exec-unit` span time not covered by `stage` spans.
    pub unit_self_s: f64,
    /// Sum of `task` spans.
    pub kernel_busy_s: f64,
    /// Sum of `stage` spans.
    pub stage_s: f64,
    /// `stage_s` × pool workers − `kernel_busy_s`.
    pub pool_idle_s: f64,
    /// Stage spans (including driver-side aggregation shuffles).
    pub stages: u64,
    /// Task spans.
    pub tasks: u64,
}

impl Layers {
    /// The figures with every time multiplied by `factor` (raw to
    /// reference seconds).
    pub fn scaled(self, factor: f64) -> Layers {
        Layers {
            compile_s: self.compile_s * factor,
            plan_s: self.plan_s * factor,
            run_s: self.run_s * factor,
            unit_self_s: self.unit_self_s * factor,
            kernel_busy_s: self.kernel_busy_s * factor,
            stage_s: self.stage_s * factor,
            pool_idle_s: self.pool_idle_s * factor,
            ..self
        }
    }
}

/// Exact trace figures, compared across traced passes and with the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceExact {
    /// Stage spans.
    pub stages: u64,
    /// Task spans.
    pub tasks: u64,
    /// Consolidation bytes summed over stage spans.
    pub consolidation_bytes: u64,
    /// Aggregation bytes summed over stage spans.
    pub aggregation_bytes: u64,
    /// Declared FLOPs summed over stage spans.
    pub declared_flops: u64,
    /// Peak declared per-task memory over stage spans.
    pub declared_peak_task_mem_bytes: u64,
}

fn secs(spans: &[SpanRecord], pred: impl Fn(&SpanRecord) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| pred(s))
        .map(|s| s.dur_us as f64 * 1e-6)
        .sum()
}

/// Folds one traced pass's recording into its layer figures. `workers` is
/// the stage pool's size.
pub fn from_recorder(rec: &Recorder, workers: usize) -> (Layers, TraceExact) {
    let all = rec.spans();
    let named = |name: &'static str| move |s: &SpanRecord| s.name == name;
    let kind = |k: SpanKind| move |s: &SpanRecord| s.kind == k;
    let stage_s = secs(&all, kind(SpanKind::Stage));
    let kernel_busy_s = secs(&all, kind(SpanKind::Task));
    let layers = Layers {
        compile_s: secs(&all, named(spans::COMPILE)),
        plan_s: secs(&all, named(spans::PLAN)),
        run_s: secs(&all, named(spans::RUN_PLAN)),
        unit_self_s: secs(&all, kind(SpanKind::ExecUnit)) - stage_s,
        kernel_busy_s,
        stage_s,
        pool_idle_s: stage_s * workers as f64 - kernel_busy_s,
        stages: all.iter().filter(|s| kind(SpanKind::Stage)(s)).count() as u64,
        tasks: all.iter().filter(|s| kind(SpanKind::Task)(s)).count() as u64,
    };
    let summary = summarize(rec);
    let exact = TraceExact {
        stages: layers.stages,
        tasks: layers.tasks,
        consolidation_bytes: summary.consolidation_bytes,
        aggregation_bytes: summary.aggregation_bytes,
        declared_flops: summary.flops,
        declared_peak_task_mem_bytes: summary.peak_mem_bytes,
    };
    (layers, exact)
}

/// Runs the bounded `(P,Q,R)` search on every cuboid unit of a pass's
/// plans — every unit the driver would search — returning its wall seconds
/// and the candidates it evaluated.
pub fn search(runs: &[QueryRun], model: &CostModel) -> (f64, u64) {
    let mut secs = 0.0;
    let mut evaluated = 0;
    for run in runs {
        let dag = &run.dag;
        for unit in &run.plan.units {
            let partial = match unit {
                ExecUnit::Fused(p) if p.main_matmul(dag).is_some() => p.clone(),
                ExecUnit::Single(op) if dag.node(*op).kind.is_matmul() => {
                    PartialPlan::new([*op].into_iter().collect(), *op)
                }
                _ => continue,
            };
            let start = Instant::now();
            let tree = SpaceTree::build(dag, &partial);
            let max_r = if k_splittable(dag, &partial) {
                usize::MAX
            } else {
                1
            };
            let opt = black_box(optimize_bounded(dag, &partial, &tree, model, max_r));
            secs += start.elapsed().as_secs_f64();
            evaluated += opt.stats.evaluated;
        }
    }
    (secs, evaluated)
}
