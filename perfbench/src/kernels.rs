//! Block-kernel rates of fuseme-matrix, measured by calling the kernels
//! directly on blocks at a workload's block edge and density. Operation
//! counts are computed from shapes and non-zeros, not counted by the
//! kernels.

use std::hint::black_box;
use std::time::Instant;

use fuseme::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Batches timed per kernel; the median batch rate is reported.
const BATCHES: usize = 5;
/// Minimum wall seconds of one batch.
const MIN_BATCH_S: f64 = 0.02;

/// Computed kernel rates.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// Dense `Block::gemm_acc`, in computed GFLOP/s (`2·e³` per call).
    pub gemm_gflops: f64,
    /// CSR × dense `Block::gemm_auto`, in computed GFLOP/s (`2·nnz·e`).
    pub spgemm_gflops: f64,
    /// Dense `Block::zip` (×) and `Block::map` (log), ns per element per op.
    pub ewise_ns_per_elem: f64,
}

/// Median rate of `work_per_call` units per second over [`BATCHES`]
/// batches, each long enough to swamp the timer.
fn rate(work_per_call: f64, mut call: impl FnMut()) -> f64 {
    let mut reps = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..reps {
            call();
        }
        if start.elapsed().as_secs_f64() >= MIN_BATCH_S {
            break;
        }
        reps *= 2;
    }
    let mut rates: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                call();
            }
            work_per_call * reps as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    crate::median(&mut rates)
}

fn dense(edge: usize, rng: &mut StdRng) -> DenseBlock {
    let mut b = DenseBlock::zeros(edge, edge);
    for v in b.data_mut() {
        *v = rng.gen_range(0.1..1.0);
    }
    b
}

/// Measures the three kernel rates on `edge × edge` blocks; the sparse
/// operand holds `max(1, round(e²·density))` non-zeros.
pub fn measure(edge: usize, density: f64, seed: u64) -> Rates {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Block::Dense(dense(edge, &mut rng));
    let b = Block::Dense(dense(edge, &mut rng));
    let cells = edge * edge;
    let nnz = ((cells as f64 * density).round() as usize).clamp(1, cells);
    let mut positions: Vec<usize> = (0..cells).collect();
    for i in 0..nnz {
        let j = rng.gen_range(i..cells);
        positions.swap(i, j);
    }
    let triples = positions[..nnz]
        .iter()
        .map(|&cell| (cell / edge, cell % edge, rng.gen_range(1.0..5.0)))
        .collect();
    let sparse = Block::Sparse(
        SparseBlock::from_triples(edge, edge, triples).expect("positions lie inside the block"),
    );

    let mut acc = DenseBlock::zeros(edge, edge);
    let gemm = rate(2.0 * (edge * cells) as f64, || {
        black_box(&a)
            .gemm_acc(black_box(&b), &mut acc)
            .expect("square blocks multiply");
    });
    black_box(&acc);
    let spgemm = rate(2.0 * (nnz * edge) as f64, || {
        black_box(
            black_box(&sparse)
                .gemm_auto(black_box(&b))
                .expect("square blocks multiply"),
        );
    });
    let ewise = rate(2.0 * cells as f64, || {
        black_box(
            black_box(&a)
                .zip(black_box(&b), BinOp::Mul)
                .expect("equal shapes"),
        );
        black_box(black_box(&a).map(UnaryOp::Log));
    });
    Rates {
        gemm_gflops: gemm * 1e-9,
        spgemm_gflops: spgemm * 1e-9,
        ewise_ns_per_elem: 1e9 / ewise,
    }
}
