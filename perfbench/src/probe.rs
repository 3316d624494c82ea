//! Simulator probes: single kernel launches and one full SIMCoV
//! evaluation, at each lowering level.
//!
//! The level is process-global and read when a kernel is compiled, so a
//! probe sets it, compiles and launches, and [`run_all`] restores O2
//! before it returns: every search in this process runs the shipped O2.

use crate::stats::median;
use crate::trace::Tracer;
use gevo_bench::cases;
use gevo_engine::Workload;
use gevo_gpu::OptLevel;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time each probe case spends launching, per level.
const PROBE_TIME: Duration = Duration::from_millis(300);

/// One probe result: a metric name and its median in microseconds.
pub type Probe = (String, f64);

fn level_tag(level: OptLevel) -> &'static str {
    match level {
        OptLevel::O0 => "o0",
        OptLevel::O2 => "o2",
    }
}

/// Median span length in microseconds of the `name` spans recorded
/// since span index `from`.
fn median_us(tracer: &Tracer, from: usize, name: &str) -> f64 {
    let durs: Vec<f64> = tracer.spans()[from..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    median(&durs)
}

/// Launch spans of one case until [`PROBE_TIME`] has passed (at least
/// three calls after one untimed warm-up call).
fn repeat(tracer: &Tracer, name: &'static str, mut call: impl FnMut()) {
    call();
    let start = Instant::now();
    let mut n = 0;
    while n < 3 || start.elapsed() < PROBE_TIME {
        let mut span = tracer.open(name);
        call();
        span.ok = true;
        drop(span);
        n += 1;
    }
}

/// Runs every probe at O2 and O0 and restores O2.
pub fn run_all(tracer: &Tracer) -> Vec<Probe> {
    let mut out = Vec::new();
    for level in [OptLevel::O2, OptLevel::O0] {
        gevo_gpu::set_opt_level(level);
        let tag = level_tag(level);
        for (case, setup) in [
            ("adept_v0", cases::adept_v0_case as fn() -> _),
            ("simcov_cdiff", cases::simcov_cdiff_case),
        ] {
            let (mut gpu, kernel, cfg, args) = setup();
            let compiled = gpu
                .compile(&kernel)
                .expect("pristine probe kernel compiles");
            let from = tracer.spans().len();
            repeat(tracer, "launch", || {
                black_box(
                    gpu.launch_compiled(&compiled, cfg, &args)
                        .expect("probe launch"),
                );
            });
            out.push((
                format!("gpu.launch_us.{case}.{tag}"),
                median_us(tracer, from, "launch"),
            ));
        }
        let (w, compiled, launches) = cases::simcov_eval_case();
        let from = tracer.spans().len();
        repeat(tracer, "probe.evaluate", || {
            assert!(black_box(w.evaluate_compiled(&compiled, 0)).is_valid());
        });
        out.push((
            format!("gpu.us_per_launch.simcov_eval.{tag}"),
            median_us(tracer, from, "probe.evaluate") / launches,
        ));
    }
    gevo_gpu::set_opt_level(OptLevel::O2);
    out
}
