//! The repository benchmark: fixed-budget GEVO searches driven through
//! the public `gevo_engine::Search` API, one search at a time.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <simcov-2t|adept-v1-resume> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload's panel of GA seeds (derived from
//! `--seed`) untraced, repeating the panel while `--seconds` allow, checks
//! every search's output and reports the end-to-end metrics. `--trace 1`
//! runs the simulator probes, then searches each seed of a shorter panel
//! untraced and traced, and reports the per-layer metrics from the spans.
//! The last line of standard output is the result as one JSON object;
//! the lines before it give the same numbers for a reader, plus the exact
//! counts of every search. See README.md.

mod drive;
mod layers;
mod probe;
mod stats;
mod trace;

use drive::{Plan, SearchRun};
use layers::Metric;
use stats::median;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Traced, Tracer};

const USAGE: &str = "usage: perfbench --workload <simcov-2t|adept-v1-resume> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// The caveat printed beside `best_speedup`.
const SPEEDUP_CAVEAT: &str =
    "simulated cycles; the timing model is not validated against a real GPU";

#[derive(Debug)]
struct Args {
    plan: Plan,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let (flag, inline) = match flag.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (flag.as_str(), None),
        };
        let value = inline
            .or_else(|| it.next().cloned())
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag {
            "--workload" => {
                workload = Some(Plan::named(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("want an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|_| bad("want a whole number of seconds"))?;
                seconds = Some(Duration::from_secs(s.max(1)));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        plan: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(30)),
        trace: trace.unwrap_or(false),
    })
}

/// What one run reports.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The exact counts of one search: a perf-only change must reproduce
/// these lines for the same seed.
fn print_counts(plan: &Plan, tag: &str, run: &SearchRun, heldout_pass: Option<bool>) {
    let r = &run.result;
    let heldout = heldout_pass.map_or("", |p| if p { " heldout=pass" } else { " heldout=fail" });
    println!(
        "counts {}{tag} seed={} evals={} cache_hits={} evaluate.winstr={} gens={} best_bits={:016x}{heldout}",
        plan.name,
        run.seed,
        r.evals,
        r.cache_hits,
        r.instructions,
        r.history.records.len(),
        r.best.fitness.map_or(0, f64::to_bits),
    );
}

/// Untraced run: the end-to-end metrics.
fn untraced(plan: &Plan, args: &Args, dir: &Path) -> Report {
    let t = Instant::now();
    let built = plan.build();
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let w = built.workload();
    let seeds: Vec<u64> = (0..plan.panel)
        .map(|i| Plan::ga_seed(args.seed, i))
        .collect();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut firsts: Vec<SearchRun> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    loop {
        let round = Instant::now();
        for (i, &seed) in seeds.iter().enumerate() {
            let run = drive::run_search(plan, w, seed, None, dir);
            attempted += 1;
            times[i].push(run.search_s);
            if let Some(first) = firsts.get(i) {
                if first.result != run.result || run.stats.faults.panic > 0 {
                    eprintln!("repeat of seed {seed} diverged from its first search");
                    failed += 1;
                }
                continue;
            }
            let check = drive::check(plan, &run);
            setup_s.push(check.build_s);
            failed += usize::from(!check.ok);
            print_counts(plan, "", &run, Some(check.heldout_pass));
            firsts.push(run);
        }
        if start.elapsed() + round.elapsed() > args.seconds {
            break;
        }
    }

    // Per seed, the median over rounds. Per run, search_s is the mean over
    // seeds and the throughputs are the work of all seeds over their
    // summed time: seeds differ far more than rounds do, and a median over
    // seeds jumps between searches with and without a step-limit kill.
    let per_seed: Vec<f64> = times.iter().map(|t| median(t)).collect();
    for (seed, t) in seeds.iter().zip(&times) {
        let t: Vec<String> = t.iter().map(|s| format!("{s:.4}")).collect();
        println!("seconds {} seed={seed} {}", plan.name, t.join(" "));
    }
    let total_s: f64 = per_seed.iter().sum();
    let total = |f: &dyn Fn(&SearchRun) -> u64| firsts.iter().map(f).sum::<u64>() as f64;
    let speedups: Vec<f64> = firsts.iter().map(|r| r.result.speedup).collect();
    println!(
        "{attempted} searches: {} seeds x {} rounds in {:.1} s",
        seeds.len(),
        attempted / seeds.len(),
        start.elapsed().as_secs_f64()
    );
    Report {
        attempted,
        failed,
        metrics: vec![
            ("search_s".into(), total_s / per_seed.len() as f64, "s"),
            (
                "evals_per_s".into(),
                total(&|r| r.result.evals as u64) / total_s,
                "1/s",
            ),
            (
                "winstr_per_s".into(),
                total(&|r| r.result.instructions) / total_s / 1e6,
                "Mwinstr/s",
            ),
            ("best_speedup".into(), median(&speedups), "x"),
            ("setup_s".into(), median(&setup_s), "s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ],
    }
}

/// Traced run: probes, then each seed of the trace panel untraced and
/// traced; the per-layer metrics come from the traced searches' spans.
fn traced(plan: &Plan, args: &Args, dir: &Path) -> Report {
    let tracer = Tracer::new();
    let mut metrics = probe::run_all(&tracer)
        .into_iter()
        .map(|(name, us)| (name, us, "us"))
        .collect::<Vec<Metric>>();
    assert_eq!(
        gevo_gpu::opt_level(),
        gevo_gpu::OptLevel::O2,
        "probes restore O2 before any search"
    );
    let probe_spans = tracer.spans().len();

    let built = plan.build();
    let w = built.workload();
    let wrapped = Traced {
        inner: w,
        tracer: &tracer,
    };
    let (mut attempted, mut failed) = (0, 0);
    let (mut runs, mut overhead_s, mut heldout_fail) = (Vec::new(), Vec::new(), 0);
    for i in 0..plan.trace_panel {
        let seed = Plan::ga_seed(args.seed, i);
        // Alternate which of the pair runs first, so neither side always
        // pays for a cold start.
        let search = |traced: bool| {
            if traced {
                drive::run_search(plan, &wrapped, seed, Some(&tracer), dir)
            } else {
                drive::run_search(plan, w, seed, None, dir)
            }
        };
        let (plain, run) = if i % 2 == 0 {
            let plain = search(false);
            (plain, search(true))
        } else {
            let run = search(true);
            (search(false), run)
        };
        attempted += 2;
        let check = drive::check(plan, &run);
        failed += usize::from(!check.ok);
        heldout_fail += usize::from(!check.heldout_pass);
        if plain.result != run.result {
            eprintln!("seed {seed}: the traced search diverged from the untraced one");
            failed += 1;
        }
        print_counts(plan, "", &plain, None);
        print_counts(plan, "+trace", &run, Some(check.heldout_pass));
        overhead_s.push(run.search_s - plain.search_s);
        runs.push(run);
    }

    let spans = tracer.spans();
    let layers = layers::summarize(plan, &spans[probe_spans..], &runs);
    for p in &layers.problems {
        eprintln!("trace: {p}");
    }
    failed += layers.problems.len();
    println!("{}", layers.accounting);
    metrics.extend(layers.metrics);
    metrics.push(("trace.overhead_s".into(), median(&overhead_s), "s"));
    metrics.push(("check.heldout_fail".into(), heldout_fail as f64, "count"));
    let file = dir.join(format!("trace-{}-{}.jsonl", plan.name, args.seed));
    match write_spans(&file, &spans) {
        Ok(()) => println!("{} spans written to {}", spans.len(), file.display()),
        Err(e) => eprintln!("cannot write {}: {e}", file.display()),
    }
    Report {
        attempted,
        failed,
        metrics,
    }
}

fn write_spans(path: &Path, spans: &[trace::Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"ok\":{},\"work\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.ok, s.work
        )?;
    }
    out.flush()
}

/// A JSON number for `v` with all its digits (non-finite values, which
/// no metric should produce, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let plan = args.plan;
    gevo_gpu::set_opt_level(gevo_gpu::OptLevel::O2);
    let dir: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    println!(
        "perfbench {} seed {}: pop {} x {} gens, 4 islands, {} eval thread(s), {} gens per session, O2",
        plan.name, args.seed, plan.population, plan.generations, plan.threads, plan.session_gens
    );

    let report = if args.trace {
        traced(&plan, &args, &dir)
    } else {
        untraced(&plan, &args, &dir)
    };

    for (name, value, unit) in &report.metrics {
        let note = if name == "best_speedup" {
            format!("  ({SPEEDUP_CAVEAT})")
        } else {
            String::new()
        };
        println!("{name:<36} {value:>16.6} {unit}{note}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload simcov-2t --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.plan.name, "simcov-2t");
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (7, Duration::from_secs(12), true)
        );
        let b = parse_args(&argv("--workload=adept-v1-resume --seed=3")).unwrap();
        assert_eq!((b.plan.name, b.trace), ("adept-v1-resume", false));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "--workload nope --seed 1",
            "--workload adept-v1-resume",
            "--workload adept-v1-resume --seed -1",
            "--workload adept-v1-resume --seed 1 --trace 2",
            "--workload adept-v1-resume --seed 1 --verbose 1",
            "--workload adept-v1-resume --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
