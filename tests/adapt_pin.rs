//! Fixed-seed trajectory pins for the adaptive-scheduling control arm.
//!
//! `AdaptPolicy::Uniform` (the default) must be **byte-identical** to
//! the engine as it stood before the adapt subsystem existed: the same
//! RNG draws in the same order, the same populations, the same
//! histories. These pins record CRC-32 fingerprints of whole
//! `SearchResult` JSON bodies captured on the pre-adapt engine; any
//! accidental RNG consumption or population reordering introduced by
//! the scheduler plumbing flips a fingerprint.

use gevo_repro::prelude::*;

/// CRC-32 (IEEE) — same polynomial as the checkpoint footer, local so
/// this test does not depend on gevo-bench.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn tiny(seed: u64, pop: usize, gens: usize) -> GaConfig {
    GaConfig {
        population: pop,
        generations: gens,
        seed,
        threads: 1,
        ..GaConfig::scaled()
    }
}

fn fingerprint(w: &dyn Workload, spec: &SearchSpec) -> (u32, usize) {
    let res = Search::from_spec(w, spec.clone()).run();
    let json = res.to_json().to_string();
    (crc32(json.as_bytes()), res.evals)
}

#[test]
fn uniform_policy_pins_pre_adapt_trajectory_on_adept_v0() {
    let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
    let spec = SearchSpec {
        ga: tiny(3, 12, 6),
        ..SearchSpec::default()
    };
    let (crc, evals) = fingerprint(&w, &spec);
    assert_eq!(
        (crc, evals),
        (0x2E18_31A6, 48),
        "Uniform trajectory drifted from the pre-adapt engine"
    );
}

#[test]
fn uniform_policy_pins_pre_adapt_trajectory_on_adept_v0_islands() {
    let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
    let spec = SearchSpec {
        ga: tiny(2, 16, 6),
        islands: 4,
        migration_interval: 2,
        ..SearchSpec::default()
    };
    let (crc, evals) = fingerprint(&w, &spec);
    assert_eq!(
        (crc, evals),
        (0xB768_98CB, 67),
        "Uniform island trajectory drifted from the pre-adapt engine"
    );
}

#[test]
fn uniform_policy_pins_pre_adapt_trajectory_on_simcov() {
    let w = SimcovWorkload::new(SimcovConfig::scaled());
    let spec = SearchSpec {
        ga: tiny(7, 10, 4),
        ..SearchSpec::default()
    };
    let (crc, evals) = fingerprint(&w, &spec);
    assert_eq!(
        (crc, evals),
        (0x05D5_60B9, 24),
        "Uniform trajectory drifted from the pre-adapt engine"
    );
}

/// Islands on `SIMCoV` through `Search::from_spec`: the configuration
/// whose batches interleave several parents per generation. Captured
/// on the engine that still carried delta compilation, the
/// compiled-image cache and the `run_islands` shim, so it pins all
/// three deletions as result-invisible.
#[test]
fn uniform_policy_pins_pre_adapt_trajectory_on_simcov_islands() {
    let w = SimcovWorkload::new(SimcovConfig::scaled());
    let spec = SearchSpec {
        ga: tiny(5, 9, 4),
        islands: 3,
        migration_interval: 2,
        ..SearchSpec::default()
    };
    let (crc, evals) = fingerprint(&w, &spec);
    assert_eq!(
        (crc, evals),
        (0x0AE2_DB67, 20),
        "Uniform island trajectory drifted from the pre-deletion engine"
    );
}
