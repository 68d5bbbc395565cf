//! Shared machinery for the experiment harness.
//!
//! # Scaling model
//!
//! The paper's testbed is 8 nodes × 12 tasks, 1 Gbps Ethernet, θ_t = 10 GB,
//! 1000×1000 blocks, and matrices up to millions of rows. The harness
//! shrinks every *element* dimension by a scale divisor `s` and the block
//! edge to `1000 / s`, so the **block-grid shapes `(I, J, K)` match the
//! paper exactly** — and those grids are what every fusion/partitioning
//! decision operates on. Cluster constants scale with the data:
//!
//! * θ_t and network bandwidth scale by `s²` (matrix bytes scale by `s²`),
//! * compute bandwidth scales by `s³` (matmul flops scale by `s³`),
//!
//! so simulated elapsed times, O.O.M. thresholds, and the 12-hour timeout
//! remain directly comparable to the paper's reported numbers.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fuseme::obs::{SpanGuard, SpanKind};
use fuseme::prelude::*;
use fuseme_exec::driver::EngineStats;
use fuseme_plan::QueryDag;
use serde::{Deserialize, Serialize};

pub mod experiments;
pub mod report;

pub use report::{Cell as ReportCell, Table};

/// Scale divisor and derived constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Element-dimension divisor `s`; must divide 1000 so that the block
    /// edge `1000 / s` is integral.
    pub divisor: usize,
}

impl Scale {
    /// Creates a scale, validating the divisor.
    pub fn new(divisor: usize) -> Result<Scale, String> {
        if divisor == 0 || 1000 % divisor != 0 {
            return Err(format!(
                "scale divisor {divisor} must be a divisor of 1000 (e.g. 100, 125, 200, 250, 500)"
            ));
        }
        Ok(Scale { divisor })
    }

    /// Default harness scale: `s = 250` (block edge 4) keeps every
    /// experiment's real computation in laptop range while preserving the
    /// paper's block-grid shapes exactly.
    pub fn default_scale() -> Scale {
        Scale { divisor: 250 }
    }

    /// The scaled block edge `1000 / s`.
    pub fn block_size(&self) -> usize {
        1000 / self.divisor
    }

    /// Scales an element dimension (at least one block).
    pub fn dim(&self, full: usize) -> usize {
        (full / self.divisor).max(self.block_size())
    }

    /// Scales a factor/hidden dimension by `s/16` — factor dimensions (the
    /// paper's `k = 200/1000`, autoencoder widths) are model hyper-
    /// parameters, so they shrink more gently to stay non-degenerate while
    /// preserving the paper's ratios.
    pub fn factor(&self, full: usize) -> usize {
        (full * 16 / self.divisor).max(self.block_size()).max(2)
    }

    /// Spark-style partition bytes (128 MB at full scale).
    pub fn partition_bytes(&self) -> u64 {
        ((128u64 << 20) / (self.divisor as u64 * self.divisor as u64)).max(1024)
    }

    /// The paper's cluster with explicit byte/flop divisors (memory and
    /// bandwidth scale with the data volume, compute with the flop volume).
    pub fn cluster_with(&self, nodes: usize, byte_div: f64, flop_div: f64) -> ClusterConfig {
        ClusterConfig {
            nodes,
            tasks_per_node: 12,
            mem_per_task: ((10u64 << 30) as f64 / byte_div) as u64,
            net_bandwidth: 125e6 / byte_div,
            compute_bandwidth: 546e9 / flop_div,
            timeout_secs: 12.0 * 3600.0,
            stage_overhead_secs: 0.5,
            partition_bytes: (((128u64 << 20) as f64 / byte_div) as u64).max(1024),
        }
    }

    /// The paper's cluster at this scale, with `nodes` worker nodes. Both
    /// axes of every matrix scale by `s`, so bytes scale by `s²` and matmul
    /// flops by `s³`.
    pub fn cluster(&self, nodes: usize) -> ClusterConfig {
        let s = self.divisor as f64;
        self.cluster_with(nodes, s * s, s * s * s)
    }

    /// The paper's default 8-node cluster at this scale.
    pub fn paper_cluster(&self) -> ClusterConfig {
        self.cluster(8)
    }

    /// Cluster for workloads whose memory pressure comes from *factor*
    /// matrices (`users × k`, GNMF's Fig. 14): one axis scales by `s`, the
    /// factor axis by `s/16`, so bytes scale by `s²/16`. GNMF's flop volume
    /// is a mix of `users·items·k` terms (scale `s³/16`) and `users·k²`
    /// terms (scale `s³/256`); the compute divisor uses their geometric
    /// mean `s³/64` so neither family is grossly over- or under-weighted.
    pub fn factor_cluster(&self, nodes: usize) -> ClusterConfig {
        let s = self.divisor as f64;
        self.cluster_with(nodes, s * s / 16.0, s * s * s / 64.0)
    }

    /// Cluster for workloads where *every* dimension scales gently by
    /// `s/16` (the autoencoder of Fig. 15): bytes scale by `(s/16)²`,
    /// flops by `(s/16)³`.
    pub fn uniform_factor_cluster(&self, nodes: usize) -> ClusterConfig {
        let l = self.divisor as f64 / 16.0;
        self.cluster_with(nodes, l * l, l * l * l)
    }
}

/// One measured data point for the result tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// Experiment id (e.g. "fig12a").
    pub experiment: String,
    /// X-axis label (e.g. "500K").
    pub label: String,
    /// Engine / series name.
    pub engine: String,
    /// The measured run.
    pub run: RunSummary,
}

/// Builds an engine of each kind the §6.2/§6.4 comparisons need.
pub fn build_engine(kind: EngineKind, cc: ClusterConfig, partition_bytes: u64) -> Engine {
    match kind {
        EngineKind::FuseMe => Engine::fuseme(cc),
        EngineKind::SystemDsLike => Engine::systemds_like(cc).with_partition_bytes(partition_bytes),
        EngineKind::MatFastLike => Engine::matfast_like(cc),
        EngineKind::DistMeLike => Engine::distme_like(cc),
        EngineKind::TensorFlowLike => Engine::tf_like(cc).with_partition_bytes(partition_bytes),
    }
}

/// Runs one query on a fresh engine, classifying failures like the paper's
/// bars ("O.O.M.", "T.O."). Traced to `run-NNNN-<engine>` when
/// `FUSEME_TRACE_DIR` is set (see [`trace_to`]).
pub fn measure(engine: &Engine, dag: &QueryDag, binds: &Bindings) -> RunSummary {
    let name = engine.kind().name();
    measure_query(engine.cluster(), name, trace_to(name), || {
        Ok(engine.run(dag, binds)?.stats)
    })
}

/// [`measure`] with structured tracing: records the run, attaches the
/// [`TraceSummary`] to the returned [`RunSummary`], and exports three files
/// under `dir` — `<name>.trace.json` (chrome://tracing), `<name>.summary.json`
/// (the summary as JSON), and `<name>.pva.txt` (the predicted-vs-actual
/// report). Export failures are reported to stderr, never panicking a
/// benchmark sweep.
pub fn measure_traced(
    engine: &Engine,
    dag: &QueryDag,
    binds: &Bindings,
    dir: &Path,
    name: &str,
) -> RunSummary {
    let trace = Some((dir.to_path_buf(), name.to_string()));
    measure_query(engine.cluster(), engine.kind().name(), trace, || {
        Ok(engine.run(dag, binds)?.stats)
    })
}

/// Where a run's trace goes when `FUSEME_TRACE_DIR` is set (`experiments
/// --trace`): that directory, and the file name `run-NNNN-<label>`,
/// numbered in run order across the process.
pub fn trace_to(label: &str) -> Option<(PathBuf, String)> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::var_os("FUSEME_TRACE_DIR")?;
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let label: Vec<&str> = label
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '-'))
        .filter(|part| !part.is_empty())
        .collect();
    Some((dir.into(), format!("run-{seq:04}-{}", label.join("-"))))
}

/// Measures one planned query that `run` executes on `cluster`, reset first
/// so the summary covers this query alone and keeps its plan shape (unit
/// counts and `(P,Q,R)` choices). `engine` names the summary's engine.
pub fn measure_query(
    cluster: &Cluster,
    engine: &str,
    trace: Option<(PathBuf, String)>,
    run: impl FnOnce() -> Result<EngineStats, SimError>,
) -> RunSummary {
    cluster.reset();
    let probe = Probe::start(cluster, trace, str::to_string);
    let result = run().map(|stats| ((), stats)).map_err(SessionError::Exec);
    probe.finish(engine, cluster, result).0
}

/// Measures a session-driven run: `bind` generates the inputs, outside the
/// wall clock and the trace, then `body` runs the queries. The summary reports what the
/// session's cluster did in all — communication, simulated time, faults and
/// cache activity — but no plan shape, which is per query. Returns `body`'s
/// value when the run completed.
pub fn measure_session<T>(
    session: &mut Session,
    trace: Option<(PathBuf, String)>,
    bind: impl FnOnce(&mut Session) -> Result<(), SessionError>,
    body: impl FnOnce(&mut Session) -> Result<T, SessionError>,
) -> (RunSummary, Option<T>) {
    let engine = session.engine().kind().name();
    let bound = bind(session);
    // The span is named like the one a traced `Session` opens itself.
    let probe = Probe::start(session.engine().cluster(), trace, |_| {
        format!("session-{engine}")
    });
    let result = bound
        .and_then(|()| body(session))
        .map(|value| (value, EngineStats::default()));
    probe.finish(engine, session.engine().cluster(), result)
}

/// The measurement core: one run between [`Probe::start`] and
/// [`Probe::finish`], the only place that starts a run's wall clock,
/// captures and exports its trace, classifies its failure and builds its
/// [`RunSummary`].
struct Probe {
    wall: Instant,
    trace: Option<Capture>,
}

/// A trace being captured: the recorder installed on this thread, the open
/// session span, and where the files go.
struct Capture {
    recorder: Arc<Recorder>,
    span: SpanGuard,
    sim_start: f64,
    dir: PathBuf,
    name: String,
}

impl Probe {
    /// Starts the wall clock and, when `trace` is set, a recording under a
    /// session span named by `span` from the file name.
    fn start(
        cluster: &Cluster,
        trace: Option<(PathBuf, String)>,
        span: impl FnOnce(&str) -> String,
    ) -> Probe {
        let trace = trace.map(|(dir, name)| {
            let recorder = Recorder::new();
            fuseme::obs::install(&recorder);
            let span = fuseme::obs::handle().scope_span(SpanKind::Session, || span(&name));
            Capture {
                recorder,
                span,
                sim_start: cluster.elapsed_secs(),
                dir,
                name,
            }
        });
        Probe {
            wall: Instant::now(),
            trace,
        }
    }

    /// Ends the run. A completed run's summary takes communication,
    /// simulated time, faults and cache activity from `cluster`'s
    /// cumulative totals, and the plan shape from the run's own
    /// [`EngineStats`]. A failed one is classified by its error: execution
    /// errors as they are, anything else as a task failure.
    fn finish<T>(
        self,
        engine: &str,
        cluster: &Cluster,
        result: Result<(T, EngineStats), SessionError>,
    ) -> (RunSummary, Option<T>) {
        let wall_secs = self.wall.elapsed().as_secs_f64();
        let (run, value) = match result {
            Ok((value, shape)) => {
                let stats = EngineStats {
                    comm: cluster.comm(),
                    sim_secs: cluster.elapsed_secs(),
                    wall_secs,
                    faults: cluster.fault_stats(),
                    cache: cluster.cache_stats(),
                    ..shape
                };
                (RunSummary::completed(engine, &stats), Some(value))
            }
            Err(SessionError::Exec(e)) => (RunSummary::failed(engine, &e), None),
            Err(e) => {
                let e = SimError::Task(e.to_string());
                (RunSummary::failed(engine, &e), None)
            }
        };
        match self.trace {
            Some(capture) => (run.with_trace(capture.export(cluster)), value),
            None => (run, value),
        }
    }
}

impl Capture {
    /// Closes the session span, uninstalls the recorder and writes the
    /// three trace files.
    fn export(self, cluster: &Cluster) -> TraceSummary {
        let sim_secs = cluster.elapsed_secs() - self.sim_start;
        self.span.set_sim(self.sim_start, sim_secs);
        drop(self.span);
        fuseme::obs::uninstall();

        let summary = summarize(&self.recorder);
        let (dir, name) = (&self.dir, &self.name);
        let write = |suffix: &str, contents: String| {
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(dir.join(format!("{name}.{suffix}")), contents))
            {
                eprintln!("warning: could not write trace {name}.{suffix}: {e}");
            }
        };
        write("trace.json", chrome_trace_json(&self.recorder));
        write(
            "summary.json",
            serde_json::to_string_pretty(&summary).unwrap_or_default(),
        );
        let pva = predicted_vs_actual(&summary);
        write("pva.txt", format!("{}\n{pva}", summary_table(&summary)));
        summary
    }
}

/// A query's `(P,Q,R)` choices as `(root, p, q, r)` tuples, the form
/// [`RunSummary::pqr`] records them in.
fn pqr_tuples(stats: &EngineStats) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
    stats
        .pqr_choices
        .iter()
        .map(|(root, p)| (*root, p.p, p.q, p.r))
}

/// Formats bytes as the paper's GB figures (decimal).
pub fn gb(bytes: u64) -> f64 {
    bytes as f64 / 1e9
}

/// Renders a `RunSummary` cell: elapsed seconds, or a failure label.
pub fn time_cell(run: &RunSummary) -> String {
    match run.status {
        RunStatus::Completed => format!("{:.1}", run.sim_secs),
        other => other.label().to_string(),
    }
}

/// Renders a communication cell in GB, or a failure label.
pub fn comm_cell(run: &RunSummary) -> String {
    match run.status {
        RunStatus::Completed => format!("{:.3}", gb(run.comm_total())),
        other => other.label().to_string(),
    }
}

/// Renders a communication cell scaled back to *full-scale-equivalent* GB
/// (measured bytes × the byte divisor, directly comparable to the paper's
/// figures). `byte_div` is the divisor the experiment's cluster used.
pub fn comm_cell_full_div(run: &RunSummary, byte_div: f64) -> String {
    match run.status {
        RunStatus::Completed => format!("{:.1}", gb(run.comm_total()) * byte_div),
        other => other.label().to_string(),
    }
}

/// [`comm_cell_full_div`] with the default `s²` divisor.
pub fn comm_cell_full(run: &RunSummary, scale: Scale) -> String {
    comm_cell_full_div(run, (scale.divisor * scale.divisor) as f64)
}

/// Writes measurements as pretty JSON to `dir/<name>.json`.
pub fn write_json(dir: &Path, name: &str, measurements: &[Measurement]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(measurements)?;
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn scale_validation() {
        assert!(Scale::new(0).is_err());
        assert!(Scale::new(3).is_err());
        assert!(Scale::new(125).is_ok());
        assert_eq!(Scale::new(250).unwrap().block_size(), 4);
    }

    #[test]
    fn grid_shapes_match_paper() {
        let s = Scale::default_scale();
        // n = 750K at block 1000 → I = 750 blocks; ours must match.
        let n = s.dim(750_000);
        assert_eq!(n / s.block_size(), 750);
    }

    #[test]
    fn cluster_constants_scale_consistently() {
        let s = Scale::new(250).unwrap();
        let cc = s.paper_cluster();
        assert_eq!(cc.total_tasks(), 96);
        // θ_t = 10 GiB / s².
        assert_eq!(cc.mem_per_task, (10u64 << 30) / 62_500);
        assert!((cc.net_bandwidth - 125e6 / 62_500.0).abs() < 1.0);
    }

    #[test]
    fn factor_scaling_preserves_ratio() {
        let s = Scale::new(250).unwrap();
        let k200 = s.factor(200);
        let k1000 = s.factor(1000);
        assert_eq!(k1000 / k200, 5);
    }

    #[test]
    fn measure_traced_exports_and_reconciles() {
        let mut cc = ClusterConfig::test_small();
        cc.mem_per_task = 64 << 20;
        let engine = Engine::fuseme(cc);
        let a = gen::dense_uniform(24, 16, 8, 0.0, 1.0, 1).unwrap();
        let b = gen::dense_uniform(16, 24, 8, 0.0, 1.0, 2).unwrap();
        let mut db = DagBuilder::new();
        let ae = db.input("A", *a.meta());
        let be = db.input("B", *b.meta());
        let mm = db.matmul(ae, be);
        let dag = db.finish(vec![mm]);
        let binds: Bindings = [
            ("A".to_string(), Arc::new(a)),
            ("B".to_string(), Arc::new(b)),
        ]
        .into_iter()
        .collect();

        let dir = std::env::temp_dir().join(format!("fuseme-trace-{}", std::process::id()));
        let run = measure_traced(&engine, &dag, &binds, &dir, "t");
        assert_eq!(run.status, RunStatus::Completed);
        let trace = run.trace.as_ref().expect("trace attached");
        assert_eq!(trace.total_bytes(), run.comm_total());
        for suffix in ["trace.json", "summary.json", "pva.txt"] {
            let path = dir.join(format!("t.{suffix}"));
            assert!(path.exists(), "missing {}", path.display());
        }
        // The chrome trace is non-trivial JSON.
        let chrome = std::fs::read_to_string(dir.join("t.trace.json")).unwrap();
        assert!(chrome.starts_with('['));
        assert!(chrome.contains("\"cat\":\"stage\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn measure_session_traces_and_matches_untraced_twin() {
        let gnmf = fuseme_workloads::gnmf::Gnmf {
            users: 60,
            items: 40,
            factor: 10,
            block_size: 10,
            density: 0.2,
        };
        let run = |target: Option<(PathBuf, String)>| {
            let mut cc = ClusterConfig::test_small();
            cc.mem_per_task = 256 << 20;
            let mut session = Session::new(Engine::fuseme(cc));
            session.set_replica_cache(Some(64 << 20));
            session.set_fault_plan(Some(FaultPlan::new(0xC4A05).with_crash_rate(0.05)));
            session.set_fault_tolerance(FaultToleranceConfig {
                max_task_retries: 6,
                ..FaultToleranceConfig::resilient()
            });
            let bind = |s: &mut Session| gnmf.bind_inputs(s, 42);
            measure_session(&mut session, target, bind, |s| gnmf.run(s, 2)).0
        };

        let dir = std::env::temp_dir().join(format!("fuseme-session-{}", std::process::id()));
        let traced = run(Some((dir.clone(), "s".into())));
        assert_eq!(traced.status, RunStatus::Completed);
        for suffix in ["trace.json", "summary.json", "pva.txt"] {
            let path = dir.join(format!("s.{suffix}"));
            assert!(path.exists(), "missing {}", path.display());
        }
        let _ = std::fs::remove_dir_all(&dir);

        let trace = traced.trace.as_ref().expect("trace attached");
        assert_eq!(trace.total_bytes(), traced.comm_total());
        let faults = traced.faults.expect("crashes were retried");
        assert!(faults.retries > 0, "{faults:?}");
        assert_eq!(trace.faults, traced.faults);
        let cache = traced.cache.expect("cache active");
        assert!(cache.hits > 0, "{cache:?}");
        let t = trace.cache.expect("cache events traced");
        assert_eq!(
            (
                t.hits,
                t.misses,
                t.evictions,
                t.invalidations,
                t.saved_bytes
            ),
            (
                cache.hits,
                cache.misses,
                cache.evictions,
                cache.invalidations,
                cache.saved_bytes
            )
        );

        // Tracing observes the run without changing it.
        let strip = |mut run: RunSummary| {
            run.trace = None;
            run.wall_secs = 0.0;
            serde_json::to_string(&run).unwrap()
        };
        assert_eq!(strip(traced.clone()), strip(run(None)));
    }

    #[test]
    fn cells_render_failures() {
        let run = RunSummary::failed(
            "SystemDS",
            &SimError::Timeout {
                elapsed: 1e9,
                cap: 1.0,
            },
        );
        assert_eq!(time_cell(&run), "T.O.");
        assert_eq!(comm_cell(&run), "T.O.");
    }
}
