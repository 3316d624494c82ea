//! Fixed-seed trajectory pins for the optimizing lowering pipeline: a
//! whole GA run under `O2` must reproduce the `O0` run's `SearchResult`
//! byte-for-byte (the process-wide knob may change wall-clock, never a
//! trajectory), checkpoints taken under either level must be
//! byte-identical, and a checkpoint written under one level must resume
//! correctly under the other.
//!
//! Everything lives in ONE test function: [`gevo_gpu::set_opt_level`]
//! is process-wide, so concurrent tests flipping it would race. This
//! integration binary is its own process — flipping the global here
//! cannot leak into any other test target.

use gevo_bench::{adept_on, scaled_table1_specs, simcov_on};
use gevo_engine::{GaConfig, Search, SearchSpec, StepStatus, Workload};
use gevo_gpu::{opt_level, set_opt_level, OptLevel};
use gevo_workloads::adept::Version;

/// The shared fixed-seed budget: small enough for CI, long enough to
/// exercise mutation chains and cache reuse.
fn pinned_spec() -> SearchSpec {
    SearchSpec {
        ga: GaConfig {
            population: 8,
            generations: 6,
            seed: 7,
            threads: 1,
            ..GaConfig::scaled()
        },
        ..SearchSpec::default()
    }
}

/// Runs the full search, checkpointing after `ckpt_gen` generations.
/// Returns `(result_json, checkpoint_json, eval_stats)`.
fn run_with_checkpoint(
    w: &dyn Workload,
    spec: &SearchSpec,
    ckpt_gen: usize,
) -> (String, String, gevo_engine::EvalStats) {
    let mut search = Search::from_spec(w, spec.clone());
    let mut ckpt = None;
    while let StepStatus::Advanced { gen } = search.step() {
        if gen + 1 == ckpt_gen {
            ckpt = Some(search.checkpoint().to_json().to_string());
        }
    }
    let stats = search.eval_stats();
    let ckpt = ckpt.expect("checkpoint generation inside the budget");
    (search.into_result().to_json().to_string(), ckpt, stats)
}

/// Resumes from a checkpoint JSON and drives the rest of the run.
fn resume_and_finish(w: &dyn Workload, ckpt_json: &str) -> String {
    let value = serde_json::from_str(ckpt_json).expect("checkpoint is valid JSON");
    let state = gevo_engine::SearchState::from_json(&value).expect("checkpoint decodes");
    let mut search = Search::resume(w, &state);
    while matches!(search.step(), StepStatus::Advanced { .. }) {}
    search.into_result().to_json().to_string()
}

#[test]
fn o2_preserves_fixed_seed_trajectories_and_checkpoints() {
    // This integration binary is a fresh process: the library default
    // must be the O0 control arm, and the knob must round-trip.
    assert_eq!(opt_level(), OptLevel::O0, "library default is O0");
    set_opt_level(OptLevel::O2);
    assert_eq!(opt_level(), OptLevel::O2);
    set_opt_level(OptLevel::O0);
    assert_eq!(opt_level(), OptLevel::O0);

    let spec = pinned_spec();
    let p100 = &scaled_table1_specs()[0];

    for name in ["adept-v0", "simcov"] {
        // Workloads are built fresh per arm *after* the level is set:
        // construction may pre-compile, and each arm must compile
        // everything at its own level.
        let build = |v: Version| -> Box<dyn Workload> {
            match name {
                "adept-v0" => Box::new(adept_on(v, p100)),
                _ => Box::new(simcov_on(p100)),
            }
        };

        set_opt_level(OptLevel::O0);
        let w0 = build(Version::V0);
        let (r0, c0, s0) = run_with_checkpoint(w0.as_ref(), &spec, 3);

        set_opt_level(OptLevel::O2);
        let w2 = build(Version::V0);
        let (r2, c2, s2) = run_with_checkpoint(w2.as_ref(), &spec, 3);

        // The tentpole contract, end to end: identical trajectories,
        // identical fitness, identical history — byte for byte.
        assert_eq!(r0, r2, "{name}: O2 changed the fixed-seed search result");
        // Checkpoints never embed pass facts, so they are byte-stable
        // across levels (an O0 fleet and an O2 fleet share state).
        assert_eq!(c0, c2, "{name}: checkpoint bytes differ across levels");
        assert_eq!(s0.evals, s2.evals, "{name}: eval counts diverge");
        assert_eq!(s0.cache_hits, s2.cache_hits, "{name}: cache hits diverge");
        assert_eq!(
            s0.instructions, s2.instructions,
            "{name}: simulated instruction counts diverge"
        );

        // The passes actually fire on the paper's workloads: the O2 run
        // lowered real instructions and scalarized a nonzero fraction,
        // while the O0 control arm tagged nothing.
        assert!(s2.lowered_insts > 0, "{name}: O2 run lowered no code");
        assert!(
            s2.uniform_insts > 0,
            "{name}: O2 run found no warp-uniform instructions"
        );
        assert_eq!(s0.uniform_insts, 0, "{name}: O0 arm must tag nothing");
        assert_eq!(s0.folded_insts, 0, "{name}: O0 arm must fold nothing");
        assert!(
            s2.scalarized_fraction() > 0.0,
            "{name}: scalarized fraction empty at O2"
        );

        // Cross-level resume: a checkpoint written under O2 resumes
        // under O0 (and vice versa) onto the exact same final result.
        set_opt_level(OptLevel::O0);
        let w_cross = build(Version::V0);
        assert_eq!(
            resume_and_finish(w_cross.as_ref(), &c2),
            r0,
            "{name}: O2 checkpoint resumed under O0 diverges"
        );
        set_opt_level(OptLevel::O2);
        let w_back = build(Version::V0);
        assert_eq!(
            resume_and_finish(w_back.as_ref(), &c0),
            r2,
            "{name}: O0 checkpoint resumed under O2 diverges"
        );
    }

    // Leave the process at the library default for good hygiene.
    set_opt_level(OptLevel::O0);
}
