//! Typed point events and the counters folded from them.
//!
//! Every fault, recovery and replica-cache occurrence is one [`Event`]. The
//! simulator's fault ledger counts it with [`FaultStats::count`] and then
//! records it; a trace summary folds the recorded events with the same
//! [`FaultStats::count`] and [`CacheTrace::count`], so the live counters and
//! the trace cannot disagree about what an event means.

use serde::{Deserialize, Serialize};

use crate::{keys, Value};

/// Charges a fault-free run would not have made. Every wasted byte and
/// FLOP is carried by exactly one event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Waste {
    /// Wasted network bytes.
    pub bytes: u64,
    /// Wasted FLOPs.
    pub flops: u64,
}

/// Where memory admission rejected work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// A simulator stage's task, checked exactly against θ_t.
    Task {
        /// Cluster-unique stage id.
        stage: u64,
        /// Dense task index within the stage.
        task: u64,
    },
    /// A fused unit's analytic pre-check, before any stage ran.
    Unit {
        /// Root DAG node of the unit.
        root: u64,
    },
}

/// One typed point event; [`Event::name`] and [`Event::attrs`] give its
/// trace form. `stage` is a cluster-unique stage id, `task` a dense task
/// index, `root` an exec unit's root DAG node and `pqr` a cuboid grid.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A task's crashed attempts were retried; `attempts` counts the
    /// successful one too, the waste is the failed attempts' charges.
    TaskRetry {
        stage: u64,
        task: u64,
        attempts: u64,
        wasted: Waste,
    },
    /// A speculative copy of a straggling task launched and won; the waste
    /// is the superseded original's charges.
    SpeculativeLaunch {
        stage: u64,
        task: u64,
        wasted: Waste,
    },
    /// The driver re-ran an exec unit (attempt `attempts`) after an
    /// executor loss; the waste is the abandoned attempt's charges net of
    /// waste it carried on its own events.
    StageRerun {
        stage: u64,
        attempts: u64,
        wasted: Waste,
    },
    /// A stage's executor died after the stage was charged.
    ExecutorLost { stage: u64 },
    /// Memory admission rejected a declared peak of `peak_mem` bytes.
    MemAdmissionReject { at: Rejected, peak_mem: u64 },
    /// The memory-pressure ladder re-planned a unit at `headroom`·θ_t; the
    /// waste is the failed attempt's net charges, as for the other rungs.
    Replan {
        root: u64,
        headroom: f64,
        wasted: Waste,
    },
    /// The memory-pressure ladder split a fused plan in two.
    PlanSplit { root: u64, wasted: Waste },
    /// The memory-pressure ladder ran a fused unit operator by operator.
    UnfusedFallback { root: u64, wasted: Waste },
    /// A unit's input had valid cuboid replicas resident: its consolidation
    /// shuffle of `saved_bytes` was skipped.
    CacheHit {
        root: u64,
        matrix_uid: u64,
        axis: u64,
        pqr: (u64, u64, u64),
        saved_bytes: u64,
    },
    /// A unit's input had no valid replicas: `bytes` were shuffled and the
    /// replica set admitted.
    CacheMiss {
        root: u64,
        matrix_uid: u64,
        axis: u64,
        pqr: (u64, u64, u64),
        bytes: u64,
    },
    /// The replica cache's LRU dropped `evictions` replica sets while one
    /// unit admitted its inputs.
    CacheEvict { evictions: u64 },
    /// A driver write bumped a matrix's version, dropping `invalidations`
    /// resident replica sets of the old value.
    CacheInvalidate { matrix_uid: u64, invalidations: u64 },
    /// An engine produced a fusion plan.
    FusionPlan {
        engine: &'static str,
        units: u64,
        fused_ops: u64,
        plan_secs: f64,
    },
    /// The cuboid search evaluated `evaluated` of `space` grid points.
    CuboidSearch {
        mode: &'static str,
        space: u64,
        evaluated: u64,
        pqr: (u64, u64, u64),
        cost: f64,
        feasible: bool,
    },
}

fn grid((p, q, r): (u64, u64, u64)) -> [(&'static str, Value); 3] {
    [
        (keys::P, p.into()),
        (keys::Q, q.into()),
        (keys::R, r.into()),
    ]
}

impl Event {
    /// Stable event name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            Event::TaskRetry { .. } => "task-retry",
            Event::SpeculativeLaunch { .. } => "speculative-launch",
            Event::StageRerun { .. } => "stage-rerun",
            Event::ExecutorLost { .. } => "executor-lost",
            Event::MemAdmissionReject { .. } => "mem-admission-reject",
            Event::Replan { .. } => "replan",
            Event::PlanSplit { .. } => "plan-split",
            Event::UnfusedFallback { .. } => "unfused-fallback",
            Event::CacheHit { .. } => "cache-hit",
            Event::CacheMiss { .. } => "cache-miss",
            Event::CacheEvict { .. } => "cache-evict",
            Event::CacheInvalidate { .. } => "cache-invalidate",
            Event::FusionPlan { .. } => "fusion-plan",
            Event::CuboidSearch { .. } => "cuboid-search",
        }
    }

    /// The wasted work this event carries, for the events that carry any.
    pub fn wasted(&self) -> Option<Waste> {
        match *self {
            Event::TaskRetry { wasted, .. }
            | Event::SpeculativeLaunch { wasted, .. }
            | Event::StageRerun { wasted, .. }
            | Event::Replan { wasted, .. }
            | Event::PlanSplit { wasted, .. }
            | Event::UnfusedFallback { wasted, .. } => Some(wasted),
            _ => None,
        }
    }

    /// The event's attributes as exported.
    pub fn attrs(&self) -> Vec<(&'static str, Value)> {
        let mut out: Vec<(&'static str, Value)> = match *self {
            Event::TaskRetry {
                stage,
                task,
                attempts,
                ..
            } => vec![
                (keys::STAGE_ID, stage.into()),
                (keys::TASK_ID, task.into()),
                ("attempts", attempts.into()),
            ],
            Event::SpeculativeLaunch { stage, task, .. } => vec![
                (keys::STAGE_ID, stage.into()),
                (keys::TASK_ID, task.into()),
                ("winner", "speculative".into()),
            ],
            Event::StageRerun {
                stage, attempts, ..
            } => vec![
                (keys::STAGE_ID, stage.into()),
                ("attempts", attempts.into()),
            ],
            Event::ExecutorLost { stage } => vec![(keys::STAGE_ID, stage.into())],
            Event::MemAdmissionReject {
                at: Rejected::Task { stage, task },
                peak_mem,
            } => vec![
                (keys::STAGE_ID, stage.into()),
                (keys::TASK_ID, task.into()),
                (keys::PEAK_MEM, peak_mem.into()),
            ],
            Event::MemAdmissionReject {
                at: Rejected::Unit { root },
                peak_mem,
            } => vec![(keys::ROOT, root.into()), (keys::PEAK_MEM, peak_mem.into())],
            Event::Replan { root, headroom, .. } => {
                vec![(keys::ROOT, root.into()), ("headroom", headroom.into())]
            }
            Event::PlanSplit { root, .. } | Event::UnfusedFallback { root, .. } => {
                vec![(keys::ROOT, root.into())]
            }
            Event::CacheHit {
                root,
                matrix_uid,
                axis,
                pqr,
                saved_bytes: bytes,
            }
            | Event::CacheMiss {
                root,
                matrix_uid,
                axis,
                pqr,
                bytes,
            } => {
                let bytes_key = match self {
                    Event::CacheHit { .. } => "saved_bytes",
                    _ => keys::BYTES,
                };
                let mut v = vec![
                    (keys::ROOT, root.into()),
                    ("matrix_uid", matrix_uid.into()),
                    ("axis", axis.into()),
                    (bytes_key, bytes.into()),
                ];
                v.extend(grid(pqr));
                v
            }
            Event::CacheEvict { evictions } => vec![("evictions", evictions.into())],
            Event::CacheInvalidate {
                matrix_uid,
                invalidations,
            } => vec![
                ("matrix_uid", matrix_uid.into()),
                ("invalidations", invalidations.into()),
            ],
            Event::FusionPlan {
                engine,
                units,
                fused_ops,
                plan_secs,
            } => vec![
                ("engine", engine.into()),
                ("units", units.into()),
                ("fused_ops", fused_ops.into()),
                ("plan_secs", plan_secs.into()),
            ],
            Event::CuboidSearch {
                mode,
                space,
                evaluated,
                pqr,
                cost,
                feasible,
            } => {
                let mut v = vec![
                    ("mode", mode.into()),
                    ("space", space.into()),
                    ("evaluated", evaluated.into()),
                    ("cost", cost.into()),
                    ("feasible", feasible.into()),
                ];
                v.extend(grid(pqr));
                v
            }
        };
        if let Some(w) = self.wasted() {
            out.push((keys::WASTED_BYTES, w.bytes.into()));
            out.push((keys::WASTED_FLOPS, w.flops.into()));
        }
        out
    }
}

/// Recovery activity and wasted work, counted from fault events.
///
/// *Wasted* bytes/FLOPs are charges an oracle (fault-free) run would not
/// have made: re-consolidation for retried attempts, the losing copy of a
/// speculative race, and the charges of attempts thrown away by an
/// executor loss or a memory-pressure rung. Wasted bytes also flow into the
/// communication ledger (recovery traffic is real traffic), so for a
/// completed run `ledger total == oracle total + wasted_bytes`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Task attempts that failed and were retried.
    pub retries: u64,
    /// Speculative copies launched.
    pub speculative_launches: u64,
    /// Executors lost.
    pub executor_losses: u64,
    /// Driver-side unit re-runs after executor loss.
    pub stage_reruns: u64,
    /// Stages (or fused-unit pre-checks) rejected by memory admission.
    pub mem_admission_rejects: u64,
    /// Tightened-budget re-plans attempted by the memory-pressure ladder.
    pub replans: u64,
    /// Fused plans split in two by the memory-pressure ladder.
    pub plan_splits: u64,
    /// Fused units degraded to unfused per-operator execution.
    pub unfused_fallbacks: u64,
    /// Bytes charged that an oracle run would not have charged.
    pub wasted_bytes: u64,
    /// FLOPs executed that an oracle run would not have executed.
    pub wasted_flops: u64,
}

impl FaultStats {
    /// Whether any recovery activity was recorded.
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }

    /// Difference against an earlier snapshot.
    pub fn since(&self, earlier: &FaultStats) -> FaultStats {
        FaultStats {
            retries: self.retries - earlier.retries,
            speculative_launches: self.speculative_launches - earlier.speculative_launches,
            executor_losses: self.executor_losses - earlier.executor_losses,
            stage_reruns: self.stage_reruns - earlier.stage_reruns,
            mem_admission_rejects: self.mem_admission_rejects - earlier.mem_admission_rejects,
            replans: self.replans - earlier.replans,
            plan_splits: self.plan_splits - earlier.plan_splits,
            unfused_fallbacks: self.unfused_fallbacks - earlier.unfused_fallbacks,
            wasted_bytes: self.wasted_bytes - earlier.wasted_bytes,
            wasted_flops: self.wasted_flops - earlier.wasted_flops,
        }
    }

    /// Adds one event's contribution. This is the only mapping from events
    /// to fault counters; non-fault events count nothing.
    pub fn count(&mut self, event: &Event) {
        match *event {
            Event::TaskRetry { attempts, .. } => self.retries += attempts - 1,
            Event::SpeculativeLaunch { .. } => self.speculative_launches += 1,
            Event::StageRerun { .. } => self.stage_reruns += 1,
            Event::ExecutorLost { .. } => self.executor_losses += 1,
            Event::MemAdmissionReject { .. } => self.mem_admission_rejects += 1,
            Event::Replan { .. } => self.replans += 1,
            Event::PlanSplit { .. } => self.plan_splits += 1,
            Event::UnfusedFallback { .. } => self.unfused_fallbacks += 1,
            _ => {}
        }
        if let Some(w) = event.wasted() {
            self.wasted_bytes += w.bytes;
            self.wasted_flops += w.flops;
        }
    }
}

/// Replica-cache activity visible in a trace, counted from cache events.
/// It equals the replica cache's own `CacheStats` counters when one
/// recording covers the cache's whole lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheTrace {
    /// Consolidation shuffles skipped because valid replicas were resident.
    pub hits: u64,
    /// Consolidation shuffles charged (and the replica set admitted).
    pub misses: u64,
    /// Replica sets dropped by the LRU to fit the byte budget.
    pub evictions: u64,
    /// Replica sets dropped by a matrix version bump (driver write).
    pub invalidations: u64,
    /// Network bytes the hits avoided charging.
    pub saved_bytes: u64,
}

impl CacheTrace {
    /// Whether any cache activity was recorded.
    pub fn any(&self) -> bool {
        *self != CacheTrace::default()
    }

    /// Adds one event's contribution; non-cache events count nothing.
    pub fn count(&mut self, event: &Event) {
        match *event {
            Event::CacheHit { saved_bytes, .. } => {
                self.hits += 1;
                self.saved_bytes += saved_bytes;
            }
            Event::CacheMiss { .. } => self.misses += 1,
            Event::CacheEvict { evictions } => self.evictions += evictions,
            Event::CacheInvalidate { invalidations, .. } => self.invalidations += invalidations,
            _ => {}
        }
    }
}
