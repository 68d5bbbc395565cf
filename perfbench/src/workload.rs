//! The benchmark's workloads: input shapes, cluster, cache posture, and the
//! queries one pass issues. See `NOTES.md` for why each workload exists.

use fuseme::prelude::*;
use fuseme_bench::Scale;
use fuseme_workloads::datasets::{vary_common_dim, vary_two_large_dims, YAHOO_MUSIC};
use fuseme_workloads::gnmf::Gnmf;
use fuseme_workloads::nmf::SimpleNmf;

/// The GNMF multiplicative updates with the standard eps guard in both
/// denominators. `Gnmf::update_script()` has no guard: users (or items)
/// without a rating turn a factor row into `0 / 0` from the second update
/// on, so the benchmark feeds the engine this script instead.
pub const GNMF_UPDATE: &str = "Un = U * (t(V) %*% X) / ((t(V) %*% V) %*% U + 1e-9)\n\
                               Vn = V * (X %*% t(Un)) / (V %*% (Un %*% t(Un)) + 1e-9)\n\
                               output Un, Vn";

/// The GNMF reconstruction loss, run after every update.
pub const GNMF_LOSS: &str = "loss = sum((X - V %*% U) ^ 2)";

/// GNMF updates per pass.
const GNMF_UPDATES: usize = 3;

/// One query of a pass: a script, and which outputs to rebind afterwards.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// Script source, compiled against the session's current bindings.
    pub source: &'static str,
    /// `(name, output index)` pairs rebound after the query returns.
    pub rebind: &'static [(&'static str, usize)],
    /// Whether the query's single output is a loss that must not increase.
    pub is_loss: bool,
}

/// What a pass computes.
#[derive(Debug, Clone, Copy)]
pub enum Body {
    /// One NMF query `O = X * log(U × Vᵀ + eps)`.
    Nmf(SimpleNmf),
    /// `updates` eps-guarded GNMF updates, each followed by the loss.
    Gnmf { gnmf: Gnmf, updates: usize },
}

/// A named benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// The simulated cluster the engine runs on.
    pub cluster: ClusterConfig,
    /// Replica-cache budget, or `None` for the cache off.
    pub cache_budget: Option<u64>,
    /// The queries and their shapes.
    pub body: Body,
}

impl Workload {
    /// The workload called `name`. `smoke` is a seconds-sized fixture for
    /// the benchmark's self-test and is not part of the benchmark.
    pub fn by_name(name: &str) -> Option<Workload> {
        match name {
            "nmf-wide" => {
                // Fig. 12(a) at its 750K point: 750×750×2 blocks of edge 4.
                let scale = Scale { divisor: 250 };
                let case = vary_two_large_dims()[3];
                Some(Workload {
                    name: "nmf-wide",
                    cluster: scale.paper_cluster(),
                    cache_budget: None,
                    body: Body::Nmf(SimpleNmf::from_case(
                        &case,
                        scale.divisor,
                        scale.block_size(),
                    )),
                })
            }
            "nmf-dense" => {
                // Table 3's 100K × 100K × 2K shape at density 0.2:
                // 100×100×2 blocks of edge 40.
                let scale = Scale { divisor: 25 };
                let case = vary_common_dim()[0];
                Some(Workload {
                    name: "nmf-dense",
                    cluster: scale.paper_cluster(),
                    cache_budget: None,
                    body: Body::Nmf(SimpleNmf::from_case(
                        &case,
                        scale.divisor,
                        scale.block_size(),
                    )),
                })
            }
            "gnmf-loop" => {
                // Fig. 14's YahooMusic shape, k = 200, cache at the
                // cachesweep "on" budget (the whole cluster's memory).
                let scale = Scale { divisor: 250 };
                let (users, items) = YAHOO_MUSIC.scaled_dims(scale.divisor, scale.block_size());
                let cluster = scale.factor_cluster(8);
                Some(Workload {
                    name: "gnmf-loop",
                    cluster,
                    cache_budget: Some(cluster.mem_per_task * cluster.total_tasks() as u64),
                    body: Body::Gnmf {
                        gnmf: Gnmf {
                            users,
                            items,
                            factor: scale.factor(200),
                            block_size: scale.block_size(),
                            density: YAHOO_MUSIC.density(),
                        },
                        updates: GNMF_UPDATES,
                    },
                })
            }
            "smoke" => {
                let mut cluster = ClusterConfig::test_small();
                cluster.mem_per_task = 256 << 20;
                Some(Workload {
                    name: "smoke",
                    cluster,
                    cache_budget: Some(cluster.mem_per_task * cluster.total_tasks() as u64),
                    body: Body::Gnmf {
                        gnmf: Gnmf {
                            users: 40,
                            items: 24,
                            factor: 4,
                            block_size: 4,
                            density: 0.3,
                        },
                        updates: 2,
                    },
                })
            }
            _ => None,
        }
    }

    /// Generates the workload's input matrices from `seed`.
    pub fn generate(&self, seed: u64) -> Result<Bindings, String> {
        match self.body {
            Body::Nmf(nmf) => nmf.generate(seed).map_err(|e| e.to_string()),
            Body::Gnmf { gnmf, .. } => {
                // The workload crate's generator binds into a session; the
                // benchmark keeps the matrices to bind into fresh sessions.
                let mut scratch = Session::new(Engine::fuseme(self.cluster));
                gnmf.bind_inputs(&mut scratch, seed)
                    .map_err(|e| e.to_string())?;
                Ok(scratch.bindings())
            }
        }
    }

    /// The queries of one pass, in issue order.
    pub fn queries(&self) -> Vec<Query> {
        match self.body {
            Body::Nmf(_) => vec![Query {
                source: SimpleNmf::script(),
                rebind: &[],
                is_loss: false,
            }],
            Body::Gnmf { updates, .. } => (0..updates)
                .flat_map(|_| {
                    [
                        Query {
                            source: GNMF_UPDATE,
                            rebind: &[("U", 0), ("V", 1)],
                            is_loss: false,
                        },
                        Query {
                            source: GNMF_LOSS,
                            rebind: &[],
                            is_loss: true,
                        },
                    ]
                })
                .collect(),
        }
    }

    /// Block edge and density of the main (sparse) input, which the block
    /// kernels are measured at.
    pub fn kernel_shape(&self) -> (usize, f64) {
        match self.body {
            Body::Nmf(nmf) => (nmf.block_size, nmf.density),
            Body::Gnmf { gnmf, .. } => (gnmf.block_size, gnmf.density),
        }
    }
}
