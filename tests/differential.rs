//! Differential tests: the optimized paths must be *behavior-preserving*.
//!
//! Three axes of the engine claim to change only cost, never results:
//!
//! 1. **Fusion** — a CFO-fused plan vs the same DAG run one operator per
//!    unit must agree element-wise (§3: fusion rearranges execution, not
//!    arithmetic).
//! 2. **The replica cache** — a cache hit skips a shuffle that would have
//!    delivered byte-identical replicas, so cached runs must produce
//!    *exactly* the same numbers, and a cold cache-armed run must be
//!    byte-identical to a cache-off run even in its accounting.
//! 3. **Fault recovery** — retried work re-ships the same bytes, so the
//!    communication ledger must reconcile exactly against a fault-free
//!    oracle: `ledger == oracle + wasted`, with or without the cache.
//!
//! Each test diffs two executions that should be equivalent and fails on
//! the first observable divergence.

use std::sync::Arc;

use fuseme::prelude::*;
use fuseme::session::Session;
use fuseme_workloads::als::AlsLoss;
use fuseme_workloads::autoencoder::AutoEncoder;
use fuseme_workloads::gnmf::Gnmf;
use fuseme_workloads::nmf::SimpleNmf;
use fuseme_workloads::pca::Pca;

fn cluster() -> ClusterConfig {
    let mut cc = ClusterConfig::test_small();
    cc.mem_per_task = 256 << 20;
    cc
}

fn gnmf() -> Gnmf {
    Gnmf {
        users: 80,
        items: 80,
        factor: 5,
        block_size: 10,
        density: 0.5,
    }
}

/// Densifies every binding: same values block by block, dense blocks
/// everywhere, and metadata declaring full density — so both the planner
/// and the kernels are forced down the dense path.
fn densify_bindings(binds: &Bindings) -> Bindings {
    binds
        .iter()
        .map(|(name, m)| {
            let meta = MatrixMeta::dense(m.shape().rows, m.shape().cols, m.meta().block_size);
            let dense = BlockedMatrix::from_fn(meta, |bi, bj| {
                Some(Block::Dense(m.block_or_zero(bi, bj).to_dense()))
            })
            .expect("densify preserves geometry");
            (name.clone(), Arc::new(dense))
        })
        .collect()
}

/// Asserts two output sets agree element-wise within `tol`.
fn assert_outputs_close(name: &str, a: &[Arc<BlockedMatrix>], b: &[Arc<BlockedMatrix>], tol: f64) {
    assert_eq!(a.len(), b.len(), "{name}: output arity differs");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.shape(), y.shape(), "{name}: output #{i} shape differs");
        let (xv, yv) = (x.to_dense_vec(), y.to_dense_vec());
        let worst = xv
            .iter()
            .zip(&yv)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f64, f64::max);
        assert!(
            worst <= tol,
            "{name}: output #{i} diverges by {worst:e} (tol {tol:e})"
        );
    }
}

/// Every workload script, compiled against small bound inputs: the fused
/// CFO plan and the fully unfused plan (every operator its own unit) must
/// produce element-wise equal outputs within 1e-9.
#[test]
fn fused_and_unfused_agree_on_every_workload() {
    // (name, dag, bindings) triples, workload by workload.
    let mut cases: Vec<(String, QueryDag, Bindings)> = Vec::new();

    let nmf = SimpleNmf {
        rows: 60,
        cols: 60,
        k: 10,
        block_size: 10,
        density: 0.3,
    };
    cases.push(("NMF".into(), nmf.dag(), nmf.generate(7).unwrap()));

    let mut from_session = |name: &str, scripts: Vec<String>, bind: &dyn Fn(&mut Session)| {
        let mut s = Session::new(Engine::fuseme(cluster()));
        bind(&mut s);
        for (i, script) in scripts.iter().enumerate() {
            let dag = s.compile_script(script).expect("compile");
            cases.push((format!("{name}#{i}"), dag, s.bindings()));
        }
    };

    let g = gnmf();
    from_session("GNMF update", vec![Gnmf::update_script().into()], &|s| {
        g.bind_inputs(s, 13).unwrap()
    });

    let als = AlsLoss {
        rows: 40,
        cols: 40,
        k: 8,
        block_size: 8,
        density: 0.2,
    };
    from_session(
        "ALS",
        vec![
            AlsLoss::loss_script().into(),
            AlsLoss::prediction_script().into(),
        ],
        &|s| als.bind_inputs(s, 13).unwrap(),
    );

    let pca = Pca {
        n: 40,
        d: 20,
        sketch: 5,
        block_size: 10,
    };
    from_session(
        "PCA",
        vec![Pca::row_pattern_script().into(), pca.covariance_script()],
        &|s| pca.bind_inputs(s, 3).unwrap(),
    );

    let ae = AutoEncoder {
        inputs: 32,
        features: 30,
        h1: 20,
        h2: 10,
        batch: 16,
        block_size: 10,
        lr: 0.1,
    };
    from_session("AutoEncoder step", vec![ae.step_script()], &|s| {
        ae.bind_inputs(s, 5).unwrap()
    });

    let mut fused_units_seen = 0;
    for (name, dag, binds) in &cases {
        let engine = Engine::fuseme(cluster());
        let fused_plan = engine.plan(dag);
        let unfused_plan = FusionPlan::assemble(dag, vec![]);
        let fused = engine.run_plan(dag, &fused_plan, binds).expect("fused run");
        let unfused = engine
            .run_plan(dag, &unfused_plan, binds)
            .expect("unfused run");
        fused_units_seen += fused.stats.fused_units;
        assert_eq!(unfused.stats.fused_units, 0, "{name}: unfused plan fused");
        assert_outputs_close(name, &fused.outputs, &unfused.outputs, 1e-9);
    }
    // The diff only means something if fusion actually happened somewhere.
    assert!(fused_units_seen > 0, "no case exercised a fused unit");
}

/// The sparse execution path — CSR inputs kept sparse through Gustavson
/// SpGEMM, sparse-output kernels, and re-compaction at the consolidation
/// boundary — must be element-wise equal to the forced-dense path on every
/// workload script, at densities low enough that the sparse kernels
/// actually engage. On the workloads whose rating matrix *is* sparse, the
/// sparse path must also move strictly fewer shuffled bytes.
#[test]
fn sparse_path_matches_forced_dense_path_on_every_workload() {
    // (name, script, bindings, expect_savings) — densities at 0.05 so the
    // nnz upper bound drops below the sparse-output threshold.
    let mut cases: Vec<(String, String, Bindings, bool)> = Vec::new();

    let nmf = SimpleNmf {
        rows: 60,
        cols: 60,
        k: 10,
        block_size: 10,
        density: 0.05,
    };
    cases.push((
        "NMF".into(),
        SimpleNmf::script().into(),
        nmf.generate(7).unwrap(),
        true,
    ));

    let mut from_session =
        |name: &str, scripts: Vec<String>, bind: &dyn Fn(&mut Session), expect_savings: bool| {
            let mut s = Session::new(Engine::fuseme(cluster()));
            bind(&mut s);
            for (i, script) in scripts.into_iter().enumerate() {
                cases.push((format!("{name}#{i}"), script, s.bindings(), expect_savings));
            }
        };

    let g = Gnmf {
        density: 0.05,
        ..gnmf()
    };
    from_session(
        "GNMF update",
        vec![Gnmf::update_script().into()],
        &|s| g.bind_inputs(s, 13).unwrap(),
        true,
    );

    let als = AlsLoss {
        rows: 40,
        cols: 40,
        k: 8,
        block_size: 8,
        density: 0.05,
    };
    from_session(
        "ALS",
        vec![
            AlsLoss::loss_script().into(),
            AlsLoss::prediction_script().into(),
        ],
        &|s| als.bind_inputs(s, 13).unwrap(),
        true,
    );

    // Dense workloads ride along as controls: densification is a semantic
    // no-op for them, and no byte savings are claimed.
    let pca = Pca {
        n: 40,
        d: 20,
        sketch: 5,
        block_size: 10,
    };
    from_session(
        "PCA",
        vec![Pca::row_pattern_script().into(), pca.covariance_script()],
        &|s| pca.bind_inputs(s, 3).unwrap(),
        false,
    );

    let ae = AutoEncoder {
        inputs: 32,
        features: 30,
        h1: 20,
        h2: 10,
        batch: 16,
        block_size: 10,
        lr: 0.1,
    };
    from_session(
        "AutoEncoder step",
        vec![ae.step_script()],
        &|s| ae.bind_inputs(s, 5).unwrap(),
        false,
    );

    for (name, script, binds, expect_savings) in &cases {
        let run = |binds: &Bindings| {
            let mut s = Session::new(Engine::fuseme(cluster()));
            for (n, m) in binds {
                s.bind_shared(n, Arc::clone(m));
            }
            let report = s.run_script(script).expect("run must complete");
            (report.outputs, s.engine().cluster().comm().total())
        };
        let (sparse_out, sparse_comm) = run(binds);
        let (dense_out, dense_comm) = run(&densify_bindings(binds));
        assert_outputs_close(name, &sparse_out, &dense_out, 1e-9);
        if *expect_savings {
            assert!(
                sparse_comm < dense_comm,
                "{name}: sparse path must ship strictly fewer bytes \
                 ({sparse_comm} B vs {dense_comm} B)"
            );
        }
    }
}

/// Builds the comparable accounting record of one multi-iteration GNMF
/// run: the summary (wall-clock zeroed — the only legitimately
/// nondeterministic field) plus every iteration's `(P,Q,R)` choices.
fn gnmf_run_of(
    g: Gnmf,
    cache_budget: Option<u64>,
    fault_plan: Option<FaultPlan>,
    iters: usize,
) -> RunSummary {
    let mut s = Session::new(Engine::fuseme(cluster()));
    s.set_replica_cache(cache_budget);
    s.set_fault_tolerance(FaultToleranceConfig::resilient());
    s.set_fault_plan(fault_plan);
    s.enable_tracing();
    g.bind_inputs(&mut s, 13).expect("generate inputs");
    let mut pqr_choices = Vec::new();
    for _ in 0..iters {
        let report = g.iterate(&mut s).expect("iteration must complete");
        pqr_choices.extend(report.stats.pqr_choices);
    }
    assert_trace_reconciles(&s);
    let cluster = s.engine().cluster();
    let stats = fuseme_exec::driver::EngineStats {
        comm: cluster.comm(),
        sim_secs: cluster.elapsed_secs(),
        wall_secs: 0.0,
        pqr_choices,
        faults: s.fault_stats(),
        cache: s.cache_stats(),
        ..fuseme_exec::driver::EngineStats::default()
    };
    RunSummary::completed("FuseME", &stats)
}

/// A trace covering a session's whole life folds back to exactly its live
/// fault and replica-cache counters: every occurrence is one event, counted
/// once by the ledger and once by the trace fold.
fn assert_trace_reconciles(s: &Session) {
    let trace = s.trace_summary().expect("tracing is on");
    let faults = s.fault_stats();
    assert_eq!(trace.faults, faults.any().then_some(faults));
    let cache = s.cache_stats().filter(|c| c.any()).map(|c| {
        (
            c.hits,
            c.misses,
            c.evictions,
            c.invalidations,
            c.saved_bytes,
        )
    });
    let traced = trace.cache.map(|c| {
        (
            c.hits,
            c.misses,
            c.evictions,
            c.invalidations,
            c.saved_bytes,
        )
    });
    assert_eq!(traced, cache);
}

/// [`gnmf_run_of`] on the default half-dense fixture.
fn gnmf_run(cache_budget: Option<u64>, fault_plan: Option<FaultPlan>, iters: usize) -> RunSummary {
    gnmf_run_of(gnmf(), cache_budget, fault_plan, iters)
}

/// A *cold* cache-armed run — first iteration, nothing resident yet — must
/// be byte-identical to a cache-off run: same traffic, same simulated
/// time, same `(P,Q,R)` choices, down to the serialized summary. The only
/// permitted difference is the cache record itself, which must show pure
/// misses: zero hits, zero saved bytes.
#[test]
fn cold_cache_run_is_byte_identical_to_cache_off() {
    let off = gnmf_run(None, None, 1);
    let mut cold = gnmf_run(Some(1 << 30), None, 1);

    assert!(
        off.cache.is_none(),
        "cache-off run must carry no cache record"
    );
    let c = cold.cache.take().expect("cold run admits replicas");
    assert_eq!(c.hits, 0, "a cold cache cannot hit");
    assert_eq!(c.saved_bytes, 0, "a cold cache cannot save bytes");
    assert!(c.misses > 0, "a cold run must at least admit replicas");

    // With the cache record stripped, the summaries serialize identically.
    let off_json = serde_json::to_string(&off).unwrap();
    let cold_json = serde_json::to_string(&cold).unwrap();
    assert_eq!(
        off_json, cold_json,
        "cold cache-armed run diverged from cache-off"
    );
}

/// Warm or cold, the cache must never change results: five GNMF iterations
/// with the cache on and off produce bitwise-equal factors (the cache
/// skips shuffles of byte-identical replicas, so not even an epsilon of
/// drift is acceptable), while the cached run ships strictly fewer bytes.
#[test]
fn cache_posture_never_changes_results() {
    let g = gnmf();
    let run = |budget: Option<u64>| {
        let mut s = Session::new(Engine::fuseme(cluster()));
        s.set_replica_cache(budget);
        g.bind_inputs(&mut s, 13).expect("generate inputs");
        for _ in 0..5 {
            g.iterate(&mut s).expect("iteration");
        }
        let comm = s.engine().cluster().comm().total();
        let u = s.matrix("U").unwrap().to_dense_vec();
        let v = s.matrix("V").unwrap().to_dense_vec();
        (u, v, comm)
    };
    let (u_off, v_off, comm_off) = run(None);
    let (u_on, v_on, comm_on) = run(Some(1 << 30));
    assert_eq!(u_off, u_on, "cache changed U");
    assert_eq!(v_off, v_on, "cache changed V");
    assert!(
        comm_on < comm_off,
        "warm cache must ship fewer bytes ({comm_on} vs {comm_off})"
    );
}

/// Under injected task crashes and stragglers, the communication ledger
/// reconciles exactly against the fault-free oracle — `ledger == oracle +
/// wasted` — in *both* cache postures. (Cache discounts apply when a
/// task's costs are declared, before fault injection, so a retried
/// attempt re-ships exactly what its failed twin shipped.)
#[test]
fn ledger_reconciles_against_oracle_in_both_cache_postures() {
    let faults = || {
        Some(
            FaultPlan::new(0xD1FF)
                .with_crash_rate(0.2)
                .with_straggler_rate(0.2, 4.0),
        )
    };
    for (posture, budget) in [("cache-off", None), ("cache-on", Some(1u64 << 30))] {
        let oracle = gnmf_run(budget, None, 2);
        let faulted = gnmf_run(budget, faults(), 2);
        assert_eq!(oracle.status, RunStatus::Completed);
        assert_eq!(faulted.status, RunStatus::Completed);
        let f = faulted.faults.expect("fault plan must cause recovery work");
        assert!(f.retries > 0, "{posture}: no retry ever fired");
        assert!(
            f.speculative_launches > 0,
            "{posture}: no speculative copy ever launched"
        );
        assert!(oracle.faults.is_none(), "{posture}: oracle saw faults");
        // Fault injection never changes planning.
        assert_eq!(oracle.pqr, faulted.pqr, "{posture}: faults changed (P,Q,R)");
        assert_eq!(
            faulted.comm_total(),
            oracle.comm_total() + f.wasted_bytes,
            "{posture}: ledger must equal oracle + wasted"
        );
        // And recovery never changes the cache's effectiveness either: the
        // saved bytes match the oracle's exactly.
        assert_eq!(
            oracle.cache.map(|c| c.saved_bytes),
            faulted.cache.map(|c| c.saved_bytes),
            "{posture}: recovery changed cache savings"
        );
    }
}

/// The same reconciliation must hold when the intermediates are *sparse*:
/// at density 0.05 the rating matrix stays CSR through consolidation and
/// Gustavson SpGEMM, so retried work re-ships CSR-sized replicas — and the
/// ledger must still equal `oracle + wasted` to the byte, in both cache
/// postures.
#[test]
fn ledger_reconciles_with_sparse_intermediates() {
    let g = Gnmf {
        density: 0.05,
        ..gnmf()
    };
    let faults = || {
        Some(
            FaultPlan::new(0xD1FF)
                .with_crash_rate(0.2)
                .with_straggler_rate(0.2, 4.0),
        )
    };
    for (posture, budget) in [("cache-off", None), ("cache-on", Some(1u64 << 30))] {
        let oracle = gnmf_run_of(g, budget, None, 2);
        let faulted = gnmf_run_of(g, budget, faults(), 2);
        assert_eq!(oracle.status, RunStatus::Completed);
        assert_eq!(faulted.status, RunStatus::Completed);
        let f = faulted.faults.expect("fault plan must cause recovery work");
        assert!(f.retries > 0, "{posture}: no retry ever fired");
        assert_eq!(oracle.pqr, faulted.pqr, "{posture}: faults changed (P,Q,R)");
        assert_eq!(
            faulted.comm_total(),
            oracle.comm_total() + f.wasted_bytes,
            "{posture}: sparse-intermediate ledger must equal oracle + wasted"
        );
        assert_eq!(
            oracle.cache.map(|c| c.saved_bytes),
            faulted.cache.map(|c| c.saved_bytes),
            "{posture}: recovery changed cache savings"
        );
    }
}
