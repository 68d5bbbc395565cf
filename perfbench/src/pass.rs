//! One workload pass through the engine's public entry points:
//! `Session::compile_script` → `Engine::plan` → `Engine::run_plan`, the
//! path `Session::run_script` takes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use fuseme::prelude::*;
use fuseme_fusion::cost::CostModel;
use fuseme_obs::SpanKind;

use crate::probe::{self, Timed};
use crate::workload::{Query, Workload};

/// Benchmark span names, one per public call the benchmark makes.
pub mod spans {
    /// Around a whole pass.
    pub const PASS: &str = "bench.pass";
    /// Around `Session::compile_script` (fuseme-lang).
    pub const COMPILE: &str = "bench.compile";
    /// Around `Engine::plan` (fuseme-fusion).
    pub const PLAN: &str = "bench.plan";
    /// Around `Engine::run_plan` (fuseme-exec and fuseme-sim below it).
    pub const RUN_PLAN: &str = "bench.run_plan";
}

/// Runs `f` inside a benchmark span. With no recorder installed the span
/// is the engine's no-op handle, so untraced passes pay one thread-local
/// read per call.
pub fn in_span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = fuseme_obs::handle().scope_span(SpanKind::Session, || name.to_string());
    f()
}

/// One completed query: what it ran on and what it returned.
#[derive(Debug)]
pub struct QueryRun {
    /// The compiled query.
    pub dag: QueryDag,
    /// The fusion plan the engine executed.
    pub plan: FusionPlan,
    /// The bindings the query ran on.
    pub inputs: Bindings,
    /// The engine's outputs.
    pub outputs: Vec<Arc<BlockedMatrix>>,
    /// Whether the output is a loss that must not increase.
    pub is_loss: bool,
}

/// Figures of a pass that are exact: the same on every pass of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exact {
    /// Simulated seconds on the cluster clock.
    pub sim_s: f64,
    /// Consolidation bytes charged to the ledger.
    pub consolidation_bytes: u64,
    /// Aggregation bytes charged to the ledger.
    pub aggregation_bytes: u64,
    /// Replica-cache hits.
    pub cache_hits: u64,
    /// Replica-cache misses.
    pub cache_misses: u64,
    /// Consolidation bytes the cache hits saved.
    pub cache_saved_bytes: u64,
    /// Exec units over the pass's plans.
    pub units: u64,
    /// Fused operators over the pass's plans.
    pub fused_ops: u64,
}

impl Exact {
    /// Consolidation plus aggregation bytes.
    pub fn shuffle_bytes(&self) -> u64 {
        self.consolidation_bytes + self.aggregation_bytes
    }
}

/// The outcome of one pass.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the pass's queries, from each query's first call into
    /// the engine to its return (and rebinding).
    pub wall: Timed,
    /// Queries issued (a failed query ends the pass; the queries it did
    /// not reach count as attempted and failed).
    pub attempted: u64,
    /// Completed queries, in issue order.
    pub runs: Vec<QueryRun>,
    /// Why queries failed to complete.
    pub errors: Vec<String>,
    /// The pass's exact figures.
    pub exact: Exact,
    /// The engine's cost model (for the benchmark's own search calls).
    pub model: CostModel,
}

impl Pass {
    /// Queries that did not complete.
    pub fn exec_failures(&self) -> u64 {
        self.attempted - self.runs.len() as u64
    }
}

/// Runs one pass of `workload` over `inputs` on a fresh session, so every
/// pass starts from the same cluster clock, ledger, and cache state.
pub fn run(workload: &Workload, inputs: &Bindings) -> Pass {
    let mut session = Session::new(Engine::fuseme(workload.cluster));
    session.set_replica_cache(workload.cache_budget);
    for (name, m) in inputs {
        session.bind_shared(name, Arc::clone(m));
    }
    let queries = workload.queries();
    let mut runs = Vec::with_capacity(queries.len());
    let mut errors = Vec::new();

    // Each query is timed on its own between two probes, so a change of
    // machine speed within the pass scales only the queries it overlaps.
    let mut wall = Timed::default();
    let mut last_probe = probe::probe();
    in_span(spans::PASS, || {
        for q in &queries {
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| run_query(&session, q)));
            if let Ok(Ok(run)) = &outcome {
                for &(name, idx) in q.rebind {
                    session.bind_shared(name, Arc::clone(&run.outputs[idx]));
                }
            }
            let raw_s = start.elapsed().as_secs_f64();
            let next_probe = probe::probe();
            wall += Timed::new(raw_s, last_probe, next_probe);
            last_probe = next_probe;
            match outcome {
                Ok(Ok(run)) => runs.push(run),
                Ok(Err(e)) => {
                    errors.push(e);
                    break;
                }
                Err(_) => {
                    errors.push(format!("query panicked: {}", q.source));
                    break;
                }
            }
        }
    });

    let cluster = session.engine().cluster();
    let comm = cluster.comm();
    let cache = session.cache_stats().unwrap_or_default();
    let exact = Exact {
        sim_s: cluster.elapsed_secs(),
        consolidation_bytes: comm.consolidation_bytes,
        aggregation_bytes: comm.aggregation_bytes,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_saved_bytes: cache.saved_bytes,
        units: runs.iter().map(|r| r.plan.units.len() as u64).sum(),
        fused_ops: runs.iter().map(|r| r.plan.fused_op_count() as u64).sum(),
    };
    Pass {
        wall,
        attempted: queries.len() as u64,
        runs,
        errors,
        exact,
        model: session.engine().exec_config().model,
    }
}

fn run_query(session: &Session, q: &Query) -> Result<QueryRun, String> {
    let dag = in_span(spans::COMPILE, || session.compile_script(q.source))
        .map_err(|e| format!("compile failed: {e}"))?;
    let engine = session.engine();
    let plan = in_span(spans::PLAN, || engine.plan(&dag));
    let inputs = session.bindings();
    let outcome = in_span(spans::RUN_PLAN, || engine.run_plan(&dag, &plan, &inputs))
        .map_err(|e| format!("run failed: {e}"))?;
    if q.rebind
        .iter()
        .any(|&(_, idx)| idx >= outcome.outputs.len())
    {
        return Err(format!("query returned {} outputs", outcome.outputs.len()));
    }
    Ok(QueryRun {
        dag,
        plan,
        inputs,
        outputs: outcome.outputs,
        is_loss: q.is_loss,
    })
}
