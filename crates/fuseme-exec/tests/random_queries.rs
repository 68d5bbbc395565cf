//! The correctness hammer: randomized query DAGs executed by every engine
//! configuration must match the single-node reference interpreter.
//!
//! This is the distributed-systems analogue of differential testing — the
//! interpreter is simple enough to be obviously correct, and every physical
//! strategy (cuboid with random `(P,Q,R)`, broadcast, replication) plus the
//! plan-level drivers are checked against it on arbitrary operator mixes.
//! Consolidation routing is checked the same way, against the per-block
//! demand recursion `KernelCtx::needs`, and sampled evaluation under a CSR
//! driver against the block path a dense twin of the same values takes.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use fuseme_exec::driver::{execute_plan, ExecConfig, MatmulStrategy};
use fuseme_exec::fused_op::{execute_fused, route, ValueMap};
use fuseme_exec::{KernelCtx, LocalStore, PlanRoles, Strategy};
use fuseme_fusion::cfg::{explore, Cfg};
use fuseme_fusion::optimizer::Pqr;
use fuseme_fusion::plan::{FusionPlan, PartialPlan};
use fuseme_matrix::{gen, AggOp, BinOp, Block, BlockedMatrix, MatrixMeta, UnaryOp};
use fuseme_plan::{evaluate, Bindings, DagBuilder, Expr, NodeId, OpKind, QueryDag};
use fuseme_sim::{Cluster, ClusterConfig};

fn cluster() -> Cluster {
    let mut cc = ClusterConfig::test_small();
    cc.mem_per_task = 256 << 20;
    Cluster::new(cc)
}

/// Random DAG over two shared-shape inputs; all ops stay shape-valid. The
/// root aggregates the last value when `agg` is 1 (full), 2 (row-wise) or
/// 3 (column-wise).
fn random_dag(script: &[u8], agg: u8) -> QueryDag {
    let mut b = DagBuilder::new();
    let (_, _, last) = random_chain(&mut b, script);
    finish(b, last, agg)
}

/// The Outer template's shape around a random chain: the chain times `Y`,
/// an element-wise epilogue drawn from the same script, and a product with
/// the sparse `X` on the left or the right.
fn gated_dag(script: &[u8], agg: u8, driver_left: bool) -> QueryDag {
    let mut b = DagBuilder::new();
    let (x, y, last) = random_chain(&mut b, script);
    let mut v = b.matmul(last, y);
    for &op in script {
        v = match op {
            0 => b.binary(v, y, BinOp::Add),
            3 => b.transpose(v),
            4 => b.unary(v, UnaryOp::Abs),
            5 => b.binary(x, v, BinOp::Sub),
            6 => {
                let half = b.scalar(0.5);
                b.binary(half, v, BinOp::Mul)
            }
            7 => b.unary(v, UnaryOp::Square),
            _ => v,
        };
    }
    let gated = if driver_left {
        b.binary(x, v, BinOp::Mul)
    } else {
        b.binary(v, x, BinOp::Mul)
    };
    finish(b, gated, agg)
}

/// A random operator chain over the sparse `X` and the dense `Y`, both
/// 16×16: returns `X`, `Y` and the chain's last value.
fn random_chain(b: &mut DagBuilder, script: &[u8]) -> (Expr, Expr, Expr) {
    let bs = 4;
    let n = 16;
    let x = b.input("X", MatrixMeta::sparse(n, n, bs, 0.3));
    let y = b.input("Y", MatrixMeta::dense(n, n, bs));
    let mut pool = vec![x, y];
    for (step, &op) in script.iter().enumerate() {
        let a = pool[step % pool.len()];
        let c = pool[(step * 5 + 1) % pool.len()];
        let next = match op {
            0 => b.binary(a, c, BinOp::Add),
            1 => b.binary(a, c, BinOp::Mul),
            2 => b.matmul(a, c),
            3 => b.transpose(a),
            4 => b.unary(a, UnaryOp::Abs),
            5 => b.binary(a, c, BinOp::Sub),
            6 => {
                let half = b.scalar(0.5);
                b.binary(a, half, BinOp::Mul)
            }
            _ => b.unary(a, UnaryOp::Square),
        };
        pool.push(next);
    }
    (x, y, *pool.last().unwrap())
}

/// Finishes the DAG at `last`, aggregated when `agg` is 1 (full), 2
/// (row-wise) or 3 (column-wise).
fn finish(mut b: DagBuilder, last: Expr, agg: u8) -> QueryDag {
    let root = match agg {
        1 => b.full_agg(last, AggOp::Sum),
        2 => b.row_agg(last, AggOp::Max),
        3 => b.col_agg(last, AggOp::Sum),
        _ => last,
    };
    b.finish(vec![root])
}

fn bindings(seed: u64) -> Bindings {
    let x = gen::sparse_uniform(16, 16, 4, 0.3, -1.0, 1.0, seed).unwrap();
    let y = gen::dense_uniform(16, 16, 4, -1.0, 1.0, seed + 1).unwrap();
    [
        ("X".to_string(), Arc::new(x)),
        ("Y".to_string(), Arc::new(y)),
    ]
    .into_iter()
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Driver-level: random DAG × {CFO, SystemDS-rule, BFO, RFO} ==
    /// interpreter.
    #[test]
    fn all_strategies_match_interpreter(
        ops in proptest::collection::vec(0u8..8, 1..12),
        seed in 0u64..10_000,
    ) {
        let dag = random_dag(&ops, 0);
        let binds = bindings(seed);
        let reference = evaluate(&dag, &binds).unwrap();
        let want = reference[0].as_matrix().unwrap();

        for matmul in [
            MatmulStrategy::Cfo,
            MatmulStrategy::SystemDsRule { partition_bytes: 2048 },
            MatmulStrategy::Bfo { partition_bytes: 2048 },
            MatmulStrategy::Rfo,
        ] {
            let cl = cluster();
            let config = ExecConfig::for_cluster(&cl, matmul);
            let plan = Cfg::new(config.model).plan(&dag);
            let (roots, _) = execute_plan(&cl, &dag, &plan, &binds, &config)
                .unwrap_or_else(|e| panic!("{matmul:?} failed: {e}\n{dag}"));
            prop_assert!(
                roots[0].approx_eq(want, 1e-9),
                "{matmul:?} diverges on\n{dag}"
            );
        }

        // Fully unfused (DistME-style) as well.
        let cl = cluster();
        let config = ExecConfig::for_cluster(&cl, MatmulStrategy::Cfo);
        let plan = FusionPlan::assemble(&dag, vec![]);
        let (roots, _) = execute_plan(&cl, &dag, &plan, &binds, &config).unwrap();
        prop_assert!(roots[0].approx_eq(want, 1e-9), "unfused diverges on\n{dag}");
    }

    /// Operator-level: a whole-query fused plan executed at arbitrary
    /// (P,Q,R) — including degenerate and oversized values — matches the
    /// interpreter whenever the plan shape is legal.
    #[test]
    fn arbitrary_pqr_matches_interpreter(
        ops in proptest::collection::vec(0u8..8, 1..10),
        seed in 0u64..10_000,
        p in 1usize..7,
        q in 1usize..7,
        r in 1usize..5,
    ) {
        let dag = random_dag(&ops, 0);
        // One fused plan containing every operator, when legal: every
        // non-root operator must have all consumers inside (always true
        // here: the pool chains make multi-consumer interior nodes common,
        // in which case we skip — CFG handles those; this test targets the
        // executor).
        let ops_set: BTreeSet<_> = dag
            .nodes()
            .iter()
            .filter(|n| !n.kind.is_leaf())
            .map(|n| n.id)
            .collect();
        let root = dag.roots()[0];
        let plan = PartialPlan { ops: ops_set, root };
        if plan.validate(&dag).is_err() {
            return Ok(()); // interior materialization point: not executable fused
        }
        let binds = bindings(seed);
        let reference = evaluate(&dag, &binds).unwrap();
        let want = reference[0].as_matrix().unwrap();
        let values: ValueMap = dag
            .nodes()
            .iter()
            .filter_map(|n| match &n.kind {
                OpKind::Input { name } => Some((n.id, Arc::clone(&binds[name]))),
                _ => None,
            })
            .collect();
        let cl = cluster();
        let out = execute_fused(
            &cl,
            &dag,
            &plan,
            &values,
            &Strategy::Cuboid { pqr: Pqr { p, q, r } },
        )
        .unwrap_or_else(|e| panic!("({p},{q},{r}) failed: {e}\n{dag}"));
        prop_assert!(out.approx_eq(want, 1e-9), "({p},{q},{r}) diverges on\n{dag}");
    }
}

/// Values for every external input of `plan`: the bound leaves, and a
/// random matrix for each intermediate produced by an earlier unit. The
/// intermediates are sparse enough that some of their blocks are absent.
fn plan_values(dag: &QueryDag, plan: &PartialPlan, binds: &Bindings, seed: u64) -> ValueMap {
    plan.external_inputs(dag)
        .into_iter()
        .filter_map(|id| {
            let node = dag.node(id);
            let value = match &node.kind {
                OpKind::Input { name } => Arc::clone(&binds[name]),
                OpKind::Scalar(_) => return None,
                _ => {
                    let m = node.meta;
                    let (rows, cols) = (m.shape.rows, m.shape.cols);
                    let seed = seed + id as u64;
                    Arc::new(
                        gen::sparse_uniform(rows, cols, m.block_size, 0.1, -1.0, 1.0, seed)
                            .unwrap(),
                    )
                }
            };
            Some((id, value))
        })
        .collect()
}

/// Every plan shape the executor meets on `dag`: CFG's exploration
/// candidates, the unfused singletons, and the whole query when it is a
/// legal fused plan.
fn candidate_plans(dag: &QueryDag) -> Vec<PartialPlan> {
    let ops: BTreeSet<NodeId> = dag
        .nodes()
        .iter()
        .filter(|n| !n.kind.is_leaf())
        .map(|n| n.id)
        .collect();
    let mut plans = explore(dag);
    plans.extend(
        ops.iter()
            .map(|&op| PartialPlan::new(BTreeSet::from([op]), op)),
    );
    plans.push(PartialPlan::new(ops, dag.roots()[0]));
    plans.retain(|p| p.validate(dag).is_ok());
    plans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Routing oracle: for every task of every strategy, the blocks routed
    /// into its store are exactly the present blocks the per-block demand
    /// recursion (`KernelCtx::needs`) collects over the task's output
    /// blocks and k-slice — plus, under BFO, every block of each broadcast
    /// side.
    #[test]
    fn analytic_routing_matches_per_block_demand(
        ops in proptest::collection::vec(0u8..8, 1..10),
        agg in 0u8..4,
        seed in 0u64..10_000,
        p in 1usize..6,
        q in 1usize..6,
        r in 1usize..5,
        partition_shift in 0u32..3,
    ) {
        let dag = random_dag(&ops, agg);
        let binds = bindings(seed);
        let partition_bytes = 256u64 << (6 * partition_shift);
        let cl = cluster();
        let empty = LocalStore::new();
        for plan in candidate_plans(&dag) {
            let values = plan_values(&dag, &plan, &binds, seed);
            let roles = PlanRoles::new(&dag, &plan);
            for strategy in [
                Strategy::Cuboid { pqr: Pqr { p, q, r } },
                Strategy::Broadcast { partition_bytes },
                Strategy::Replication,
            ] {
                let routing = route(&cl, &dag, &plan, &values, &strategy);
                let sides = plan
                    .external_inputs(&dag)
                    .into_iter()
                    .filter(|&id| !matches!(dag.node(id).kind, OpKind::Scalar(_)))
                    .count();
                if matches!(strategy, Strategy::Broadcast { .. }) {
                    // All but the main input are broadcast.
                    prop_assert_eq!(routing.broadcast.len(), sides.saturating_sub(1));
                } else {
                    prop_assert!(routing.broadcast.is_empty());
                }
                let covered: usize = routing.tasks.iter().map(|t| t.out_blocks.len()).sum();
                prop_assert!(covered > 0, "no task computes anything");
                for task in &routing.tasks {
                    let probe = KernelCtx::new(&dag, &roles, task.k_range.clone(), &empty);
                    let mut want = BTreeSet::new();
                    for &(bi, bj) in &task.out_blocks {
                        probe.needs(routing.compute_node, bi, bj, &mut want);
                    }
                    want.retain(|&(node, (bi, bj))| {
                        let m = &values[&node];
                        let g = m.meta().grid();
                        !routing.broadcast.contains(&node)
                            && bi < g.block_rows
                            && bj < g.block_cols
                            && m.block(bi, bj).is_some()
                    });
                    for &side in &routing.broadcast {
                        want.extend(values[&side].iter_blocks().map(|(bi, bj, _)| (side, (bi, bj))));
                    }
                    let got: BTreeSet<_> = task.store.keys().collect();
                    prop_assert_eq!(
                        &got,
                        &want,
                        "{:?} task k={:?} routes differently on plan {:?}\n{}",
                        strategy,
                        task.k_range,
                        plan,
                        dag
                    );
                }
            }
        }
    }
}

/// `m`'s values with every present block stored densely, under the same
/// metadata, so plans and routing are unchanged and only block formats
/// differ.
fn dense_twin(m: &BlockedMatrix) -> BlockedMatrix {
    BlockedMatrix::from_fn(*m.meta(), |bi, bj| {
        m.block(bi, bj).map(|b| Block::Dense(b.to_dense()))
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sampled evaluation: with `X` bound as CSR, zero-dominant products
    /// driven by `X` are evaluated only at its stored cells; bound as dense
    /// blocks of the same values, every product takes the block path. Both
    /// must agree element-wise on every plan shape and strategy.
    #[test]
    fn csr_driver_matches_dense_twin(
        ops in proptest::collection::vec(0u8..8, 1..10),
        agg in 0u8..4,
        side in 0u8..2,
        seed in 0u64..10_000,
        p in 1usize..6,
        q in 1usize..6,
        r in 1usize..5,
    ) {
        let dag = gated_dag(&ops, agg, side == 0);
        let binds = bindings(seed);
        let x = dag
            .nodes()
            .iter()
            .find(|n| matches!(&n.kind, OpKind::Input { name } if name == "X"))
            .unwrap()
            .id;
        let cl = cluster();
        for plan in candidate_plans(&dag) {
            let csr = plan_values(&dag, &plan, &binds, seed);
            let mut twin = csr.clone();
            if let Some(m) = twin.get_mut(&x) {
                *m = Arc::new(dense_twin(m));
            }
            for strategy in [
                Strategy::Cuboid { pqr: Pqr { p, q, r } },
                Strategy::Broadcast { partition_bytes: 2048 },
                Strategy::Replication,
            ] {
                let got = execute_fused(&cl, &dag, &plan, &csr, &strategy).unwrap();
                let want = execute_fused(&cl, &dag, &plan, &twin, &strategy).unwrap();
                prop_assert!(
                    got.to_dense_vec() == want.to_dense_vec(),
                    "{:?} on plan {:?} differs between CSR and dense X\n{}",
                    strategy,
                    plan,
                    dag
                );
            }
        }
    }
}
