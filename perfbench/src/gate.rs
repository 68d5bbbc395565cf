//! The correctness gate: every output against the reference interpreter
//! (`fuseme_plan::evaluate`), tolerance 1e-9, and no non-finite values.
//!
//! Evaluating the single-threaded oracle once per pass would dominate a
//! run, and holding it during the passes would dominate the resident set.
//! So each pass is reduced to a digest of its output bits. Passes with the
//! digest of a pass already kept share its verdict, since their outputs are
//! bit-identical; a pass with a new digest is kept whole. After the timed
//! passes every kept pass is checked against the oracle, and its verdict
//! counts once per pass that produced it.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use fuseme::prelude::*;

use crate::pass::{Pass, QueryRun};

/// Absolute-or-relative tolerance against the oracle.
pub const TOLERANCE: f64 = 1e-9;

/// How an engine output compares with the oracle's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Check {
    /// Non-finite entries in the engine output.
    pub nonfinite: u64,
    /// Entries outside the tolerance (or every entry, on a shape mismatch).
    pub mismatched: u64,
}

impl Check {
    /// Whether the output passes the gate.
    pub fn ok(&self) -> bool {
        self.nonfinite == 0 && self.mismatched == 0
    }
}

/// Compares `out` with `reference` block by block, so neither is ever
/// densified whole.
pub fn compare(out: &BlockedMatrix, reference: &BlockedMatrix) -> Check {
    let shape = out.shape();
    if shape != reference.shape() || out.meta().block_size != reference.meta().block_size {
        return Check {
            nonfinite: 0,
            mismatched: (shape.rows * shape.cols).max(1) as u64,
        };
    }
    let mut check = Check::default();
    for (bi, bj) in out.meta().grid().coords() {
        let a = out.block_or_zero(bi, bj).to_dense();
        let b = reference.block_or_zero(bi, bj).to_dense();
        for (&x, &y) in a.data().iter().zip(b.data()) {
            if !x.is_finite() {
                check.nonfinite += 1;
            }
            let diff = (x - y).abs();
            if !(diff <= TOLERANCE || diff <= TOLERANCE * x.abs().max(y.abs())) {
                check.mismatched += 1;
            }
        }
    }
    check
}

/// Digest of a pass's output bits (shapes and every entry, in grid order).
pub fn digest(pass: &Pass) -> u64 {
    let mut h = DefaultHasher::new();
    pass.runs.len().hash(&mut h);
    for run in &pass.runs {
        for m in &run.outputs {
            let shape = m.shape();
            (shape.rows, shape.cols).hash(&mut h);
            for (bi, bj) in m.meta().grid().coords() {
                for v in m.block_or_zero(bi, bj).to_dense().data() {
                    v.to_bits().hash(&mut h);
                }
            }
        }
    }
    h.finish()
}

/// A kept pass and how many passes produced its digest.
struct Kept {
    digest: u64,
    runs: Vec<QueryRun>,
    passes: u64,
    /// Queries of one pass that fail no matter what its outputs are: ones
    /// that did not complete, and losses that increased.
    base_failures: u64,
}

/// Collects passes and turns them into failure counts.
#[derive(Default)]
pub struct Gate {
    kept: Vec<Kept>,
    attempted: u64,
}

/// The gate's verdict over every pass it saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdict {
    /// Queries attempted.
    pub attempted: u64,
    /// Queries that failed, for any reason.
    pub failed: u64,
    /// Wall seconds of one oracle evaluation of a pass's queries.
    pub oracle_s: f64,
}

impl Gate {
    /// Records a pass, keeping its outputs only if its digest is new.
    pub fn add(&mut self, pass: Pass) {
        self.attempted += pass.attempted;
        for e in &pass.errors {
            eprintln!("query failed: {e}");
        }
        let d = digest(&pass);
        if let Some(k) = self.kept.iter_mut().find(|k| k.digest == d) {
            k.passes += 1;
            return;
        }
        let increases = loss_increases(&pass.runs);
        if increases > 0 {
            eprintln!("loss increased between updates {increases} time(s) in a pass");
        }
        self.kept.push(Kept {
            digest: d,
            base_failures: pass.exec_failures() + increases,
            runs: pass.runs,
            passes: 1,
        });
    }

    /// Checks every kept pass against the oracle.
    pub fn verdict(self) -> Verdict {
        let mut verdict = Verdict {
            attempted: self.attempted,
            ..Verdict::default()
        };
        if self.kept.len() > 1 {
            eprintln!(
                "passes produced {} distinct outputs on the same inputs",
                self.kept.len()
            );
        }
        for (i, kept) in self.kept.iter().enumerate() {
            let mut mismatched = 0;
            for run in &kept.runs {
                let (ok, oracle_s) = query_ok(run);
                mismatched += u64::from(!ok);
                if i == 0 {
                    verdict.oracle_s += oracle_s;
                }
            }
            verdict.failed += kept.passes * (kept.base_failures + mismatched);
        }
        verdict
    }
}

/// Whether one query's outputs all pass against the oracle, and the wall
/// seconds the oracle took.
fn query_ok(run: &QueryRun) -> (bool, f64) {
    let start = Instant::now();
    let evaluated = fuseme_plan::evaluate(&run.dag, &run.inputs);
    let oracle_s = start.elapsed().as_secs_f64();
    let reference = match evaluated {
        Ok(values) => values,
        Err(e) => {
            eprintln!("oracle failed: {e}");
            return (false, oracle_s);
        }
    };
    if reference.len() != run.outputs.len() {
        eprintln!("oracle returned {} outputs", reference.len());
        return (false, oracle_s);
    }
    let ok = run.outputs.iter().zip(&reference).all(|(out, value)| {
        let check = match value.as_matrix() {
            Ok(r) => compare(out, r),
            Err(e) => {
                eprintln!("oracle output is not a matrix: {e}");
                return false;
            }
        };
        if !check.ok() {
            eprintln!(
                "output differs from the oracle: {} non-finite, {} outside {TOLERANCE}",
                check.nonfinite, check.mismatched
            );
        }
        check.ok()
    });
    (ok, oracle_s)
}

/// Loss queries whose value is above the previous loss of the pass.
fn loss_increases(runs: &[QueryRun]) -> u64 {
    let losses: Vec<f64> = runs
        .iter()
        .filter(|r| r.is_loss)
        .filter_map(|r| r.outputs.first().and_then(|m| m.get(0, 0).ok()))
        .collect();
    losses.windows(2).filter(|w| w[1] > w[0]).count() as u64
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::workload::Workload;

    fn smoke_pass() -> Pass {
        let w = Workload::by_name("smoke").expect("smoke workload");
        let inputs = w.generate(7).expect("inputs");
        crate::pass::run(&w, &inputs)
    }

    #[test]
    fn clean_passes_verify() {
        let mut gate = Gate::default();
        gate.add(smoke_pass());
        gate.add(smoke_pass());
        let v = gate.verdict();
        assert_eq!(v.attempted, 8);
        assert_eq!(v.failed, 0);
    }

    #[test]
    fn injected_nonfinite_output_counts_as_failure() {
        let mut pass = smoke_pass();
        let out = &mut pass.runs[0].outputs[0];
        let mut poisoned = (**out).clone();
        let mut block = poisoned.block_or_zero(0, 0).to_dense();
        block.set(0, 0, f64::NAN);
        poisoned
            .set_block(0, 0, Block::Dense(block))
            .expect("block fits");
        *out = Arc::new(poisoned);

        let check = compare(&pass.runs[0].outputs[0], &smoke_pass().runs[0].outputs[0]);
        assert_eq!(check.nonfinite, 1);
        assert!(!check.ok());

        let mut gate = Gate::default();
        gate.add(smoke_pass());
        gate.add(pass);
        let v = gate.verdict();
        assert_eq!(v.attempted, 8);
        assert_eq!(v.failed, 1, "only the poisoned query fails");
    }

    #[test]
    fn shape_mismatch_fails() {
        let pass = smoke_pass();
        let a = &pass.runs[0].outputs[0];
        let b = &pass.runs[0].outputs[1];
        assert!(!compare(a, b).ok());
    }
}
