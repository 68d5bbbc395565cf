//! Criterion micro/meso benchmarks, one group per paper artifact:
//!
//! * `fig12_operators` — BFO vs RFO vs CFO wall time on the NMF query,
//! * `fig13_optimizer` — exhaustive vs pruning `(P,Q,R)` search latency,
//! * `fig14_gnmf` — one GNMF iteration per engine,
//! * `table1_kernels` — the block-kernel substrate (GEMM, sparse ops,
//!   fused-kernel evaluation),
//! * `cfg_planning` — fusion-plan generation latency (CFG vs GEN vs fold).
//!
//! These measure the *real* wall time of the simulated runs at a small
//! scale; the `experiments` binary is the tool for paper-shaped numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fuseme::prelude::*;
use fuseme::session::Session;
use fuseme_exec::{KernelCtx, LocalStore, PlanRoles};
use fuseme_fusion::cost::CostModel;
use fuseme_fusion::folded::Folded;
use fuseme_fusion::gen_like::GenLike;
use fuseme_fusion::optimizer::{optimize, optimize_exhaustive};
use fuseme_fusion::space::SpaceTree;
use fuseme_plan::OpKind;
use fuseme_workloads::gnmf::Gnmf;
use fuseme_workloads::nmf::SimpleNmf;

fn cluster() -> ClusterConfig {
    let mut cc = ClusterConfig::test_small();
    cc.mem_per_task = 256 << 20;
    cc
}

fn nmf() -> SimpleNmf {
    SimpleNmf {
        rows: 240,
        cols: 240,
        k: 48,
        block_size: 8,
        density: 0.05,
    }
}

fn fig12_operators(c: &mut Criterion) {
    let w = nmf();
    let dag = w.dag();
    let binds = w.generate(1).unwrap();
    let mut group = c.benchmark_group("fig12_operators");
    for (name, engine) in [
        ("cfo_fuseme", Engine::fuseme(cluster())),
        ("bfo_rfo_systemds", Engine::systemds_like(cluster())),
        ("rfo_matfast", Engine::matfast_like(cluster())),
        ("cuboidmm_distme", Engine::distme_like(cluster())),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                engine.reset_metrics();
                engine.run(&dag, &binds).unwrap()
            })
        });
    }
    group.finish();
}

fn fig13_optimizer(c: &mut Criterion) {
    let model = CostModel {
        nodes: 8,
        tasks_per_node: 12,
        mem_per_task: 1 << 24,
        net_bandwidth: 1e6,
        compute_bandwidth: 1e9,
    };
    let mut group = c.benchmark_group("fig13_optimizer");
    for voxels in [20_000usize, 250_000, 2_000_000] {
        let i = voxels / (40 * 5);
        let bs = 4;
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::sparse(i * bs, 40 * bs, bs, 0.01));
        let u = b.input("U", MatrixMeta::dense(i * bs, 5 * bs, bs));
        let v = b.input("V", MatrixMeta::dense(40 * bs, 5 * bs, bs));
        let vt = b.transpose(v);
        let mm = b.matmul(u, vt);
        let o = b.binary(x, mm, BinOp::Mul);
        let dag = b.finish(vec![o]);
        let plan = PartialPlan::new([vt.id(), mm.id(), o.id()].into_iter().collect(), o.id());
        let tree = SpaceTree::build(&dag, &plan);
        group.bench_with_input(BenchmarkId::new("pruning", voxels), &voxels, |bch, _| {
            bch.iter(|| optimize(&dag, &plan, &tree, &model))
        });
        if voxels <= 250_000 {
            group.bench_with_input(BenchmarkId::new("exhaustive", voxels), &voxels, |bch, _| {
                bch.iter(|| optimize_exhaustive(&dag, &plan, &tree, &model))
            });
        }
    }
    group.finish();
}

fn fig14_gnmf(c: &mut Criterion) {
    let g = Gnmf {
        users: 160,
        items: 80,
        factor: 8,
        block_size: 8,
        density: 0.1,
    };
    let mut group = c.benchmark_group("fig14_gnmf_iteration");
    group.sample_size(10);
    type EngineBuilder = fn(ClusterConfig) -> Engine;
    let builders: [(&str, EngineBuilder); 4] = [
        ("fuseme", Engine::fuseme),
        ("systemds", Engine::systemds_like),
        ("matfast", Engine::matfast_like),
        ("distme", Engine::distme_like),
    ];
    for (name, build) in builders {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut s = Session::new(build(cluster()));
                    g.bind_inputs(&mut s, 5).unwrap();
                    s
                },
                |mut s| g.iterate(&mut s).unwrap(),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn table1_kernels(c: &mut Criterion) {
    use fuseme_matrix::{gen, AggOp, BinOp as MBinOp, UnaryOp as MUnaryOp};
    let a = gen::dense_uniform(256, 256, 64, 0.0, 1.0, 1).unwrap();
    let b = gen::dense_uniform(256, 256, 64, 0.0, 1.0, 2).unwrap();
    let s = gen::sparse_uniform(256, 256, 64, 0.02, 0.0, 1.0, 3).unwrap();

    // One fused NMF kernel on a 40×40 output block with X at density 0.2
    // and two 40-wide k-blocks: nmf-dense's per-block work.
    let nmf = SimpleNmf {
        rows: 40,
        cols: 40,
        k: 80,
        block_size: 40,
        density: 0.2,
    };
    let nmf_dag = nmf.dag();
    let nmf_root = nmf_dag.roots()[0];
    let nmf_ops = nmf_dag
        .nodes()
        .iter()
        .filter(|n| !n.kind.is_leaf())
        .map(|n| n.id)
        .collect();
    let nmf_roles = PlanRoles::new(&nmf_dag, &PartialPlan::new(nmf_ops, nmf_root));
    let nmf_inputs = nmf.generate(1).unwrap();
    let mut nmf_store = LocalStore::new();
    for n in nmf_dag.nodes() {
        if let OpKind::Input { name } = &n.kind {
            for (bi, bj, blk) in nmf_inputs[name].iter_blocks() {
                nmf_store.insert(n.id, (bi, bj), std::sync::Arc::clone(blk));
            }
        }
    }

    let mut group = c.benchmark_group("table1_kernels");
    group.bench_function("dense_gemm_256", |bch| bch.iter(|| a.matmul(&b).unwrap()));
    group.bench_function("fused_nmf_block_40", |bch| {
        bch.iter(|| {
            KernelCtx::new(&nmf_dag, &nmf_roles, 0..2, &nmf_store)
                .eval(nmf_root, 0, 0)
                .unwrap()
        })
    });
    group.bench_function("sparse_dense_gemm_256", |bch| {
        bch.iter(|| s.matmul(&b).unwrap())
    });
    group.bench_function("elementwise_mul_256", |bch| {
        bch.iter(|| a.zip(&b, MBinOp::Mul).unwrap())
    });
    group.bench_function("sparse_gate_mul_256", |bch| {
        bch.iter(|| s.zip(&a, MBinOp::Mul).unwrap())
    });
    group.bench_function("transpose_256", |bch| bch.iter(|| a.transpose().unwrap()));
    group.bench_function("map_log_256", |bch| {
        bch.iter(|| a.map(MUnaryOp::Log).unwrap())
    });
    group.bench_function("colsums_256", |bch| {
        bch.iter(|| a.col_agg(AggOp::Sum).unwrap())
    });
    group.finish();
}

fn cfg_planning(c: &mut Criterion) {
    // GNMF's full two-update DAG: 8 multiplications, 18 operators.
    let g = Gnmf {
        users: 4_000,
        items: 2_000,
        factor: 200,
        block_size: 100,
        density: 0.01,
    };
    let session = Session::new(Engine::fuseme(cluster()));
    let mut s = session;
    s.gen_sparse("X", g.users, g.items, g.block_size, g.density, 1)
        .unwrap();
    s.gen_dense("V", g.users, g.factor, g.block_size, 2)
        .unwrap();
    s.gen_dense("U", g.factor, g.items, g.block_size, 3)
        .unwrap();
    let dag = s.compile_script(Gnmf::update_script()).unwrap();
    let model = CostModel {
        nodes: 8,
        tasks_per_node: 12,
        mem_per_task: 10 << 30,
        net_bandwidth: 125e6,
        compute_bandwidth: 546e9,
    };
    let mut group = c.benchmark_group("cfg_planning");
    group.bench_function("cfg_fuseme", |b| b.iter(|| Cfg::new(model).plan(&dag)));
    group.bench_function("gen_systemds", |b| b.iter(|| GenLike::default().plan(&dag)));
    group.bench_function("folded_matfast", |b| b.iter(|| Folded.plan(&dag)));
    group.finish();
}

criterion_group!(
    benches,
    fig12_operators,
    fig13_optimizer,
    fig14_gnmf,
    table1_kernels,
    cfg_planning
);
criterion_main!(benches);
