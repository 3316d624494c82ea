//! Fixed-seed behaviour tests for the `Search` API on the real Table-1
//! workloads. Trajectory fingerprints of the single-objective engine
//! live in `tests/adapt_pin.rs`.

use gevo_repro::prelude::*;

fn tiny(seed: u64, pop: usize, gens: usize) -> GaConfig {
    GaConfig {
        population: pop,
        generations: gens,
        seed,
        threads: 1,
        ..GaConfig::scaled()
    }
}

/// The acceptance bar for multi-objective mode: a two-objective NSGA-II
/// run on a Table-1 workload surfaces a Pareto front with at least two
/// mutually non-dominated points (deterministic at this fixed seed).
#[test]
fn two_objective_nsga2_yields_a_real_pareto_front_on_adept_v0() {
    let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
    // Seed 4 at this tiny budget deterministically discovers variants
    // trading cycles against memory traffic (3-point front); the whole
    // stack is seed-deterministic, so this is a regression test, not a
    // flake.
    let res = Search::new(&w)
        .config(tiny(4, 16, 10))
        .objectives(&[Objective::Cycles, Objective::MemoryTraffic])
        .run();
    assert_eq!(res.objectives.len(), 2);
    assert!(
        res.pareto.len() >= 2,
        "expected a multi-point front, got {} point(s)",
        res.pareto.len()
    );
    for (i, p) in res.pareto.iter().enumerate() {
        assert_eq!(p.scores.len(), 2);
        assert!(p.fitness > 0.0);
        for (j, q) in res.pareto.iter().enumerate() {
            if i != j {
                assert!(
                    !gevo_repro::engine::dominates(&p.scores, &q.scores),
                    "front points must be mutually non-dominated"
                );
            }
        }
    }
    // The front's fastest point matches the run's reported best.
    let fastest = res
        .pareto
        .iter()
        .map(|p| p.fitness)
        .fold(f64::INFINITY, f64::min);
    assert_eq!(fastest, res.best.fitness.unwrap());
}
