//! The workloads, and one fixed-budget search driven through the public
//! `Search` API, split into checkpointed sessions where the workload asks
//! for it, followed by the check of its output.

use crate::trace::Tracer;
use gevo_bench::checkpoint::{load_state_with_rollback, previous_path, write_checkpoint};
use gevo_engine::{
    EvalStats, Evaluator, GaConfig, Patch, Search, SearchResult, SearchSpec, StepStatus, Workload,
};
use gevo_workloads::adept::{AdeptWorkload, Version};
use gevo_workloads::simcov::SimcovWorkload;
use std::path::Path;
use std::time::Instant;

/// Which program a workload searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    AdeptV1,
    Simcov,
}

/// One benchmark workload: a program, the search budget, how many
/// evaluation threads, and how the search is split into sessions.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub name: &'static str,
    pub program: Program,
    pub threads: usize,
    pub population: usize,
    pub generations: usize,
    /// Generations per session. Below `generations`, the search writes a
    /// sealed checkpoint after every generation and each later session
    /// resumes from the file the previous one wrote.
    pub session_gens: usize,
    /// Searches (GA seeds) per run in the untraced mode.
    pub panel: usize,
    /// Searches per run in the traced mode (each also run untraced).
    pub trace_panel: usize,
}

pub const PLANS: [Plan; 2] = [
    Plan {
        name: "simcov-2t",
        program: Program::Simcov,
        threads: 2,
        population: 16,
        generations: 10,
        session_gens: 10,
        panel: 11,
        trace_panel: 5,
    },
    Plan {
        name: "adept-v1-resume",
        program: Program::AdeptV1,
        threads: 1,
        population: 16,
        generations: 10,
        session_gens: 2,
        panel: 16,
        trace_panel: 7,
    },
];

impl Plan {
    pub fn named(name: &str) -> Option<Plan> {
        PLANS.iter().copied().find(|p| p.name == name)
    }

    /// Builds the program on the scaled P100: test data, CPU oracle and
    /// the pristine kernels' own check.
    pub fn build(&self) -> Built {
        let p100 = &gevo_bench::scaled_table1_specs()[0];
        match self.program {
            Program::AdeptV1 => Built::Adept(gevo_bench::adept_on(Version::V1, p100)),
            Program::Simcov => Built::Simcov(gevo_bench::simcov_on(p100)),
        }
    }

    /// Four islands, uniform mutation scheduling, this plan's budget.
    pub fn spec(&self, seed: u64) -> SearchSpec {
        SearchSpec {
            ga: GaConfig {
                population: self.population,
                generations: self.generations,
                seed,
                threads: self.threads,
                ..GaConfig::scaled()
            },
            islands: 4,
            ..SearchSpec::default()
        }
    }

    /// The `i`-th GA seed of the run seeded with `seed`.
    pub fn ga_seed(seed: u64, i: usize) -> u64 {
        seed.wrapping_mul(1000).wrapping_add(i as u64)
    }
}

/// A built program.
pub enum Built {
    Adept(AdeptWorkload),
    Simcov(SimcovWorkload),
}

impl Built {
    pub fn workload(&self) -> &dyn Workload {
        match self {
            Built::Adept(w) => w,
            Built::Simcov(w) => w,
        }
    }

    /// Held-out validation of `patch` (a larger, differently seeded
    /// input; the tight-arena large grid for SIMCoV).
    pub fn heldout_passes(&self, patch: &Patch) -> bool {
        match self {
            Built::Adept(w) => {
                let (kernels, _) = patch.apply(gevo_engine::Workload::kernels(w));
                w.validate_heldout(&kernels, 12, 777).is_ok()
            }
            Built::Simcov(w) => w.validate_heldout(patch, 64, 3).is_ok(),
        }
    }
}

/// Checkpoint traffic of one search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CkptCounts {
    pub writes: u64,
    pub bytes_max: u64,
    pub loads: u64,
    pub rollbacks: u64,
}

/// One finished search.
pub struct SearchRun {
    pub seed: u64,
    pub search_s: f64,
    pub result: SearchResult,
    /// The evaluator's counters, summed over sessions (the process-local
    /// ones restart with every resumed session).
    pub stats: EvalStats,
    pub ckpt: CkptCounts,
}

fn add_local_counters(total: &mut EvalStats, s: &EvalStats) {
    total.compiles += s.compiles;
    total.compiled_hits += s.compiled_hits;
    total.delta_patched += s.delta_patched;
    total.delta_fallbacks += s.delta_fallbacks;
    total.lowered_insts += s.lowered_insts;
    total.uniform_insts += s.uniform_insts;
    total.folded_insts += s.folded_insts;
    let (f, g) = (&mut total.faults, &s.faults);
    f.step_limit += g.step_limit;
    f.verify += g.verify;
    f.exec += g.exec;
    f.mismatch += g.mismatch;
    f.panic += g.panic;
    f.other += g.other;
}

/// Runs one search from the first `step()` to its result, including
/// every checkpoint write, load and resume. `tracer` records spans
/// around each of those calls; pass `w` already wrapped in
/// [`crate::trace::Traced`] to trace the workload's layers as well.
pub fn run_search(
    plan: &Plan,
    w: &dyn Workload,
    seed: u64,
    tracer: Option<&Tracer>,
    ckpt_dir: &Path,
) -> SearchRun {
    let path = ckpt_dir.join(format!("{}-s{seed}.ckpt.json", plan.name));
    let checkpointing = plan.session_gens < plan.generations;
    for stale in [path.clone(), previous_path(&path)] {
        let _ = std::fs::remove_file(stale);
    }
    let mut stats = EvalStats::default();
    let mut ckpt = CkptCounts::default();

    let start = Instant::now();
    let search_span = tracer.map(|t| t.enter("search"));
    let mut search = Search::from_spec(w, plan.spec(seed));
    loop {
        for _ in 0..plan.session_gens {
            let status = {
                let _step = tracer.map(|t| t.enter("step"));
                search.step()
            };
            if status == StepStatus::Done {
                break;
            }
            if checkpointing {
                let mut span = tracer.map(|t| t.open("ckpt.write"));
                let state = search.checkpoint();
                write_checkpoint(&path, &state);
                let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                if let Some(s) = span.as_mut() {
                    s.ok = true;
                    s.work = bytes;
                }
                ckpt.writes += 1;
                ckpt.bytes_max = ckpt.bytes_max.max(bytes);
            }
        }
        if search.generation() >= plan.generations {
            break;
        }
        add_local_counters(&mut stats, &search.eval_stats());
        drop(search);
        let (state, note) = {
            let mut span = tracer.map(|t| t.open("ckpt.load"));
            let loaded = load_state_with_rollback(&path)
                .expect("the checkpoint this search just wrote loads");
            if let Some(s) = span.as_mut() {
                s.ok = loaded.1.is_none();
            }
            loaded
        };
        ckpt.loads += 1;
        ckpt.rollbacks += u64::from(note.is_some());
        search = {
            let mut span = tracer.map(|t| t.open("ckpt.resume"));
            let resumed = Search::resume(w, &state);
            if let Some(s) = span.as_mut() {
                s.ok = true;
            }
            resumed
        };
    }
    let last = search.eval_stats();
    let result = search.into_result();
    drop(search_span);
    let search_s = start.elapsed().as_secs_f64();

    add_local_counters(&mut stats, &last);
    stats.evals = last.evals;
    stats.cache_hits = last.cache_hits;
    stats.instructions = last.instructions;
    for stale in [path.clone(), previous_path(&path)] {
        let _ = std::fs::remove_file(stale);
    }
    SearchRun {
        seed,
        search_s,
        result,
        stats,
        ckpt,
    }
}

/// The output check of one search, made on a freshly built program.
pub struct Check {
    /// The best patch is valid against the CPU oracle, its fitness equals
    /// the reported best bit for bit, and so does the speedup.
    pub ok: bool,
    pub heldout_pass: bool,
    /// Seconds the fresh build took (a set-up sample).
    pub build_s: f64,
}

pub fn check(plan: &Plan, run: &SearchRun) -> Check {
    let t = Instant::now();
    let fresh = plan.build();
    let build_s = t.elapsed().as_secs_f64();
    let ev = Evaluator::new(fresh.workload());
    let best = &run.result.best;
    let outcome = ev.evaluate(&best.patch);
    let bits = |f: Option<f64>| f.map(f64::to_bits);
    let fitness_ok = outcome.is_valid() && bits(outcome.fitness) == bits(best.fitness);
    let speedup_ok = outcome.fitness.map(|f| (ev.baseline() / f).to_bits())
        == Some(run.result.speedup.to_bits());
    let ok = fitness_ok && speedup_ok && run.stats.faults.panic == 0;
    if !ok {
        eprintln!(
            "check failed: {} seed {}: re-evaluated {:?} / {:?}, reported {:?} / {}, panics {}",
            plan.name,
            run.seed,
            outcome.fitness,
            outcome.failure,
            best.fitness,
            run.result.speedup,
            run.stats.faults.panic
        );
    }
    Check {
        ok,
        heldout_pass: fresh.heldout_passes(&best.patch),
        build_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::summarize;
    use crate::trace::Traced;

    /// A plan at a test-sized budget.
    fn small(name: &str) -> Plan {
        Plan {
            population: 8,
            generations: 3,
            panel: 1,
            trace_panel: 1,
            ..Plan::named(name).expect("known workload")
        }
    }

    #[test]
    fn traced_and_untraced_searches_give_identical_exact_counts() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join("test");
        std::fs::create_dir_all(&dir).unwrap();
        for plan in [
            small("simcov-2t"),
            Plan {
                session_gens: 1,
                ..small("adept-v1-resume")
            },
        ] {
            let built = plan.build();
            let tracer = Tracer::new();
            let wrapped = Traced {
                inner: built.workload(),
                tracer: &tracer,
            };
            let plain = run_search(&plan, built.workload(), 5, None, &dir);
            let traced = run_search(&plan, &wrapped, 5, Some(&tracer), &dir);
            assert!(
                plain.result == traced.result,
                "{}: traced search diverged",
                plan.name
            );
            assert_eq!(plain.stats, traced.stats, "{}", plan.name);
            assert_eq!(plain.ckpt, traced.ckpt, "{}", plan.name);
            assert_eq!(plain.result.history.records.len(), 3);
            if plan.session_gens < plan.generations {
                assert_eq!(
                    (plain.ckpt.writes, plain.ckpt.loads),
                    (3, 2),
                    "{}",
                    plan.name
                );
            }
            let layers = summarize(&plan, &tracer.spans(), std::slice::from_ref(&traced));
            assert!(
                layers.problems.is_empty(),
                "{}: {:?}",
                plan.name,
                layers.problems
            );
            assert!(check(&plan, &traced).ok, "{}: output check", plan.name);
        }
    }
}
