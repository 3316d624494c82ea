//! Per-layer metrics of a traced run, computed from its spans.

use crate::drive::{Plan, SearchRun};
use crate::stats::{median, quantile};
use crate::trace::{covered_ns, Span};
use std::collections::HashMap;

/// A metric as reported: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What the spans of the traced searches add up to.
pub struct Layers {
    pub metrics: Vec<Metric>,
    /// Problems found while reading the spans (a child outside its step,
    /// wrapper counts that disagree with the program's); each fails the
    /// run.
    pub problems: Vec<String>,
    /// How the steps' time splits into self time and child spans.
    pub accounting: String,
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics over the `runs` traced with `spans`, as means per
/// search for counts and times, and over all calls for percentiles.
pub fn summarize(plan: &Plan, spans: &[Span], runs: &[SearchRun]) -> Layers {
    let mut problems = Vec::new();
    let per = runs.len().max(1) as f64;
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u32, Vec<&Span>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }

    // Engine: each step's self time is its span minus the part its
    // children (compile, evaluate) cover.
    let (mut steps, mut step_ns, mut self_ns, mut busy_ns) = (0, 0u64, 0u64, 0u64);
    for step in named("step") {
        steps += 1;
        let kids = children.get(&step.id).map_or(&[][..], Vec::as_slice);
        for k in kids {
            if k.start_ns < step.start_ns || k.end_ns > step.end_ns {
                problems.push(format!(
                    "{} span {} lies outside its step {}",
                    k.name, k.id, step.id
                ));
            }
        }
        let mut iv: Vec<(u64, u64)> = kids.iter().map(|k| (k.start_ns, k.end_ns)).collect();
        step_ns += step.dur_ns();
        self_ns += step.dur_ns() - covered_ns(step.start_ns, step.end_ns, &mut iv);
        busy_ns += kids.iter().map(|k| k.dur_ns()).sum::<u64>();
    }

    // Evaluate and compile calls, and the instructions the wrapper saw
    // per search (must equal the program's own count).
    let evals: Vec<&Span> = named("evaluate").collect();
    let compiles: Vec<&Span> = named("compile").collect();
    let eval_ns: u64 = evals.iter().map(|s| s.dur_ns()).sum();
    let winstr: u64 = evals.iter().map(|s| s.work).sum();
    let eval_ok = evals.iter().filter(|s| s.ok).count() as f64;
    let rejects = compiles.iter().filter(|s| !s.ok).count() as f64;
    let search_of = |s: &Span| by_id.get(&s.parent).map(|step| step.parent);
    let mut winstr_by_search: HashMap<u32, u64> = HashMap::new();
    for e in &evals {
        *winstr_by_search
            .entry(search_of(e).unwrap_or(0))
            .or_default() += e.work;
    }
    let invalid = evals.len() as f64 - eval_ok + rejects;
    let faults: usize = runs.iter().map(|r| r.stats.faults.total()).sum();
    if faults as f64 != invalid {
        problems.push(format!(
            "the wrapper saw {invalid} invalid variants, the program's fault tallies {faults}"
        ));
    }
    let searches: Vec<&Span> = named("search").collect();
    if searches.len() == runs.len() {
        for (span, run) in searches.iter().zip(runs) {
            let seen = winstr_by_search.get(&span.id).copied().unwrap_or(0);
            if seen != run.result.instructions {
                problems.push(format!(
                    "seed {}: the wrapper saw {seen} warp-instructions, the search counted {}",
                    run.seed, run.result.instructions
                ));
            }
        }
    } else {
        problems.push(format!(
            "{} search spans for {} traced searches",
            searches.len(),
            runs.len()
        ));
    }

    let durs = |v: &[&Span]| v.iter().map(|s| s.dur_ns() as f64).collect::<Vec<f64>>();
    let eval_durs = durs(&evals);
    let compile_durs = durs(&compiles);
    let writes: Vec<&Span> = named("ckpt.write").collect();
    let loads: Vec<f64> = named("ckpt.load").map(|s| ms(s.dur_ns() as f64)).collect();
    let resumes: Vec<f64> = named("ckpt.resume")
        .map(|s| ms(s.dur_ns() as f64))
        .collect();

    let sum = |f: &dyn Fn(&SearchRun) -> f64| runs.iter().map(f).sum::<f64>();
    let evals_n = sum(&|r| r.result.evals as f64);
    let hits_n = sum(&|r| r.result.cache_hits as f64);
    let stat = |f: &dyn Fn(&SearchRun) -> usize| sum(&|r| f(r) as f64) / per;

    let metrics: Vec<Metric> = vec![
        ("evaluate.calls".into(), evals.len() as f64 / per, "count"),
        ("evaluate.s".into(), eval_ns as f64 / 1e9 / per, "s"),
        ("evaluate.ms_p50".into(), ms(median(&eval_durs)), "ms"),
        (
            "evaluate.ms_p90".into(),
            ms(quantile(&eval_durs, 0.9)),
            "ms",
        ),
        (
            "evaluate.fail_frac".into(),
            1.0 - ratio(eval_ok, evals.len() as f64),
            "ratio",
        ),
        ("evaluate.winstr".into(), winstr as f64 / per, "count"),
        (
            "evaluate.ns_per_winstr".into(),
            ratio(eval_ns as f64, winstr as f64),
            "ns/winstr",
        ),
        ("compile.calls".into(), compiles.len() as f64 / per, "count"),
        (
            "compile.s".into(),
            compile_durs.iter().sum::<f64>() / 1e9 / per,
            "s",
        ),
        ("compile.us_p50".into(), median(&compile_durs) / 1e3, "us"),
        (
            "compile.us_p90".into(),
            quantile(&compile_durs, 0.9) / 1e3,
            "us",
        ),
        (
            "compile.reject_frac".into(),
            ratio(rejects, compiles.len() as f64),
            "ratio",
        ),
        ("engine.step_s".into(), step_ns as f64 / 1e9 / per, "s"),
        ("engine.self_s".into(), self_ns as f64 / 1e9 / per, "s"),
        (
            "engine.gens".into(),
            sum(&|r| r.result.history.records.len() as f64) / per,
            "count",
        ),
        ("engine.evals".into(), evals_n / per, "count"),
        ("engine.cache_hits".into(), hits_n / per, "count"),
        (
            "engine.cache_hit_rate".into(),
            ratio(hits_n, hits_n + evals_n),
            "ratio",
        ),
        ("engine.invalid".into(), invalid / per, "count"),
        (
            "engine.valid_frac".into(),
            ratio(eval_ok, evals.len() as f64 + rejects),
            "ratio",
        ),
        (
            "engine.batch_idle_frac".into(),
            1.0 - ratio(busy_ns as f64, plan.threads as f64 * step_ns as f64),
            "ratio",
        ),
        (
            "fitness.compiles".into(),
            stat(&|r| r.stats.compiles),
            "count",
        ),
        (
            "fitness.delta_patched".into(),
            stat(&|r| r.stats.delta_patched),
            "count",
        ),
        (
            "fitness.delta_fallbacks".into(),
            stat(&|r| r.stats.delta_fallbacks),
            "count",
        ),
        (
            "fitness.scalarized_frac".into(),
            ratio(
                sum(&|r| r.stats.uniform_insts as f64),
                sum(&|r| r.stats.lowered_insts as f64),
            ),
            "ratio",
        ),
        (
            "fitness.faults.step_limit".into(),
            stat(&|r| r.stats.faults.step_limit),
            "count",
        ),
        (
            "fitness.faults.verify".into(),
            stat(&|r| r.stats.faults.verify),
            "count",
        ),
        (
            "fitness.faults.exec".into(),
            stat(&|r| r.stats.faults.exec),
            "count",
        ),
        (
            "fitness.faults.mismatch".into(),
            stat(&|r| r.stats.faults.mismatch),
            "count",
        ),
        (
            "fitness.faults.panic".into(),
            stat(&|r| r.stats.faults.panic),
            "count",
        ),
        (
            "fitness.faults.other".into(),
            stat(&|r| r.stats.faults.other),
            "count",
        ),
        ("ckpt.writes".into(), writes.len() as f64 / per, "count"),
        ("ckpt.write_ms_p50".into(), ms(median(&durs(&writes))), "ms"),
        (
            "ckpt.bytes_max".into(),
            writes.iter().map(|s| s.work).max().unwrap_or(0) as f64,
            "B",
        ),
        ("ckpt.load_ms_p50".into(), median(&loads), "ms"),
        (
            "ckpt.load_ms_max".into(),
            loads.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
        ("ckpt.resume_ms".into(), median(&resumes), "ms"),
        (
            "ckpt.rollbacks".into(),
            sum(&|r| r.ckpt.rollbacks as f64) / per,
            "count",
        ),
    ];
    let accounting = format!(
        "{steps} steps: {:.6} s of step spans = {:.6} s self + {:.6} s covered by child spans",
        step_ns as f64 / 1e9,
        self_ns as f64 / 1e9,
        (step_ns - self_ns) as f64 / 1e9
    );
    Layers {
        metrics,
        problems,
        accounting,
    }
}
