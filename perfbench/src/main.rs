//! Wall-clock benchmark of the FuseME engine.
//!
//! ```text
//! fuseme-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop caller issues workload passes, each after the previous
//! one returns. With `--trace 0` it reports the end-to-end metrics from
//! untraced passes; with `--trace 1` it reports the per-layer metrics from
//! traced passes, alternated with untraced ones to measure the tracing
//! overhead. Every output is checked against the reference interpreter,
//! and the exact figures (simulated seconds, bytes, counts) must repeat on
//! every pass, else the run aborts without a result. The last line of
//! standard output is the result as one JSON object. See `NOTES.md`.

mod gate;
mod kernels;
mod layers;
mod pass;
mod probe;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;
use std::time::Instant;

use fuseme::prelude::*;
use serde::Serialize;

use gate::Gate;
use layers::Layers;
use probe::Timed;
use workload::Workload;

const USAGE: &str = "usage: fuseme-perfbench --workload <nmf-wide|nmf-dense|gnmf-loop> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Fewest input generations per untraced run; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
/// Untraced runs keep generating inputs until this many seconds are spent.
const SETUP_SECONDS: f64 = 1.5;
/// Fewest measured passes per untraced run, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Fewest untraced/traced pass pairs per traced run.
const MIN_PAIRS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Generates the inputs at least `times` times and until `seconds` are
/// spent (each generation replaces the last), returning the median timing
/// of a generation plus binding, and the inputs.
fn setup(w: &Workload, seed: u64, times: usize, seconds: f64) -> Result<(Timed, Bindings), String> {
    let mut timings = Vec::new();
    let mut inputs = Bindings::new();
    let start = Instant::now();
    while timings.len() < times || start.elapsed().as_secs_f64() < seconds {
        drop(std::mem::take(&mut inputs));
        let (generated, t) = probe::timed(|| {
            let generated = w.generate(seed)?;
            let mut session = Session::new(Engine::fuseme(w.cluster));
            for (name, m) in &generated {
                session.bind_shared(name, Arc::clone(m));
            }
            Ok::<_, String>(generated)
        });
        inputs = generated?;
        timings.push(t);
    }
    Ok((median_timed(&timings), inputs))
}

/// Medians of the raw and of the scaled seconds.
fn median_timed(timings: &[Timed]) -> Timed {
    Timed {
        raw_s: median(&mut timings.iter().map(|t| t.raw_s).collect::<Vec<_>>()),
        scaled_s: median(&mut timings.iter().map(|t| t.scaled_s).collect::<Vec<_>>()),
    }
}

/// Holds the first value seen and rejects any later value that differs.
struct Same<T>(Option<T>);

impl<T: PartialEq + Debug> Same<T> {
    fn check(&mut self, what: &str, value: T) -> Result<(), String> {
        match &self.0 {
            None => {
                self.0 = Some(value);
                Ok(())
            }
            Some(first) if *first == value => Ok(()),
            Some(first) => Err(format!(
                "{what} is not exact across passes: {first:?} vs {value:?}"
            )),
        }
    }

    fn get(self) -> Result<T, String> {
        self.0.ok_or_else(|| "no pass ran".to_string())
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// A run's result: the gate's counts and the metrics by name.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// End-to-end metrics from untraced passes.
fn untraced(args: &Args) -> Result<Report, String> {
    let w = &args.workload;
    let (setup, inputs) = setup(w, args.seed, MIN_SETUPS, SETUP_SECONDS)?;
    let mut gate = Gate::default();
    let mut exact = Same(None);

    // The first pass of a process runs colder (allocator, page faults), so
    // it is checked but not timed.
    let warm = pass::run(w, &inputs);
    let warm_s = warm.wall.raw_s;
    exact.check("exact figures", warm.exact)?;
    gate.add(warm);
    // Read after set-up and one pass: later passes grow the resident set
    // by a few MB through allocator fragmentation whose extent depends on
    // how the stage pool's threads are scheduled, not on the workload.
    let rss = peak_rss_mb()?;

    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let p = pass::run(w, &inputs);
        walls.push(p.wall);
        exact.check("exact figures", p.exact)?;
        gate.add(p);
    }
    let verdict = gate.verdict();
    let exact = exact.get()?;
    let raw: Vec<f64> = walls.iter().map(|t| t.raw_s).collect();
    let scaled: Vec<f64> = walls.iter().map(|t| t.scaled_s).collect();
    eprintln!(
        "{}: setup raw {:.4}s; warm-up pass raw {warm_s:.3}s; measured passes raw {raw:.3?} s, \
         scaled {scaled:.3?} s",
        w.name, setup.raw_s
    );
    Ok(Report {
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: vec![
            ("wall_s", median_timed(&walls).scaled_s, "s"),
            ("setup_s", setup.scaled_s, "s"),
            ("sim_s", exact.sim_s, "s"),
            ("shuffle_bytes", exact.shuffle_bytes() as f64, "B"),
            ("peak_rss_mb", rss, "MB"),
            (
                "ok_frac",
                1.0 - verdict.failed as f64 / verdict.attempted as f64,
                "ratio",
            ),
        ],
    })
}

/// Per-layer metrics from traced passes.
fn traced(args: &Args) -> Result<Report, String> {
    let w = &args.workload;
    let (_, inputs) = setup(w, args.seed, 1, 0.0)?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut gate = Gate::default();
    let mut exact = Same(None);
    let mut trace_exact = Same(None);

    let warm = pass::run(w, &inputs);
    exact.check("exact figures", warm.exact)?;
    gate.add(warm);

    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut per_pass: Vec<Layers> = Vec::new();
    let (mut search_s, mut search_evals) = (Vec::new(), Same(None));
    let start = Instant::now();
    while per_pass.len() < MIN_PAIRS || start.elapsed().as_secs_f64() < args.seconds {
        // Alternate which pass of a pair runs first, so drift within a run
        // does not bias the tracing overhead.
        let traced_first = per_pass.len() % 2 == 1;
        for traced in [traced_first, !traced_first] {
            if !traced {
                let plain = pass::run(w, &inputs);
                plain_walls.push(plain.wall);
                exact.check("exact figures", plain.exact)?;
                gate.add(plain);
                continue;
            }
            let rec = Recorder::new();
            fuseme_obs::install(&rec);
            let p = pass::run(w, &inputs);
            fuseme_obs::uninstall();
            traced_walls.push(p.wall);
            exact.check("exact figures", p.exact)?;
            let (layers, te) = layers::from_recorder(&rec, workers);
            let layers = layers.scaled(p.wall.factor());
            if (te.consolidation_bytes, te.aggregation_bytes)
                != (p.exact.consolidation_bytes, p.exact.aggregation_bytes)
            {
                return Err(format!(
                    "trace bytes {}+{} differ from ledger bytes {}+{}",
                    te.consolidation_bytes,
                    te.aggregation_bytes,
                    p.exact.consolidation_bytes,
                    p.exact.aggregation_bytes
                ));
            }
            trace_exact.check("trace figures", te)?;
            let ((secs, evals), t) = probe::timed(|| layers::search(&p.runs, &p.model));
            search_s.push(secs * t.factor());
            search_evals.check("search candidates", evals)?;
            per_pass.push(layers);
            gate.add(p);
        }
    }
    let (edge, density) = w.kernel_shape();
    let (rates, kernel_t) = probe::timed(|| kernels::measure(edge, density, args.seed));
    let (verdict, verdict_t) = probe::timed(|| gate.verdict());
    let exact = exact.get()?;
    let te = trace_exact.get()?;
    let raw = |walls: &[Timed]| walls.iter().map(|t| t.raw_s).collect::<Vec<_>>();
    eprintln!(
        "{}: raw seconds of untraced passes {:.3?}, of traced passes {:.3?}",
        w.name,
        raw(&plain_walls),
        raw(&traced_walls)
    );

    let med = |f: fn(&Layers) -> f64| median(&mut per_pass.iter().map(f).collect::<Vec<_>>());
    let plain_wall = median_timed(&plain_walls);
    let traced_wall = median_timed(&traced_walls);
    let lookups = exact.cache_hits + exact.cache_misses;
    Ok(Report {
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: vec![
            ("lang.compile_s", med(|l| l.compile_s), "s"),
            ("fusion.plan_s", med(|l| l.plan_s), "s"),
            ("fusion.search_s", median(&mut search_s), "s"),
            ("fusion.search_evals", search_evals.get()? as f64, "count"),
            ("fusion.units", exact.units as f64, "count"),
            ("fusion.fused_ops", exact.fused_ops as f64, "count"),
            ("exec.run_s", med(|l| l.run_s), "s"),
            ("exec.unit_self_s", med(|l| l.unit_self_s), "s"),
            ("exec.kernel_busy_s", med(|l| l.kernel_busy_s), "s"),
            ("sim.stage_s", med(|l| l.stage_s), "s"),
            ("sim.pool_idle_s", med(|l| l.pool_idle_s), "s"),
            ("sim.stages", te.stages as f64, "count"),
            ("sim.tasks", te.tasks as f64, "count"),
            (
                "sim.consolidation_bytes",
                exact.consolidation_bytes as f64,
                "B",
            ),
            ("sim.aggregation_bytes", exact.aggregation_bytes as f64, "B"),
            ("sim.declared_flops", te.declared_flops as f64, "FLOP"),
            (
                "sim.declared_peak_task_mem_bytes",
                te.declared_peak_task_mem_bytes as f64,
                "B",
            ),
            (
                "sim.cache_hit_ratio",
                if lookups == 0 {
                    0.0
                } else {
                    exact.cache_hits as f64 / lookups as f64
                },
                "ratio",
            ),
            ("sim.cache_saved_bytes", exact.cache_saved_bytes as f64, "B"),
            (
                "matrix.gemm_gflops",
                rates.gemm_gflops / kernel_t.factor(),
                "GFLOP/s",
            ),
            (
                "matrix.spgemm_gflops",
                rates.spgemm_gflops / kernel_t.factor(),
                "GFLOP/s",
            ),
            (
                "matrix.ewise_ns_per_elem",
                rates.ewise_ns_per_elem * kernel_t.factor(),
                "ns/elem",
            ),
            ("plan.oracle_s", verdict.oracle_s * verdict_t.factor(), "s"),
            (
                "obs.trace_overhead_frac",
                (traced_wall.scaled_s - plain_wall.scaled_s) / plain_wall.scaled_s,
                "ratio",
            ),
            ("bench.raw_wall_s", plain_wall.raw_s, "s"),
            (
                "bench.probe_s",
                median(
                    &mut plain_walls
                        .iter()
                        .map(|t| probe::REFERENCE_S / t.factor())
                        .collect::<Vec<_>>(),
                ),
                "s",
            ),
        ],
    })
}

#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark aborted: {e}");
            std::process::exit(1);
        }
    };
    if let Some((name, value, _)) = report.metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("benchmark aborted: {name} is {value}");
        std::process::exit(1);
    }

    println!(
        "workload {} seed {} trace {}: {} queries, {} failed",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    let line = ResultLine {
        correct: report.failed == 0,
        attempted: report.attempted,
        failed: report.failed,
        metrics: report
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Metric {
                        value,
                        unit: unit.to_string(),
                    },
                )
            })
            .collect(),
    };
    match serde_json::to_string(&line) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("benchmark aborted: {e}");
            std::process::exit(1);
        }
    }
}
