//! The parallel orchestrator's core contract: for any worker count, the
//! synthesized suite is byte-identical to the sequential engine's, on
//! both candidate-execution backends, and every counter aggregates
//! losslessly.

use proptest::prelude::*;
use transform_par::{synthesize_all_jobs, synthesize_suite_jobs};
use transform_synth::{Backend, Suite, SynthOptions};
use transform_x86::x86t_elt;

/// A byte-exact rendering of everything user-visible in a suite: the
/// programs in order, each witness's full structure, and the violated
/// axioms. Two suites are interchangeable iff their fingerprints match.
fn fingerprint(suite: &Suite) -> String {
    let mut out = format!("axiom {}\n", suite.axiom);
    for elt in &suite.elts {
        out.push_str(&format!(
            "program {:?}\nwitness {:?}\nviolated {:?}\n",
            elt.program,
            elt.witness.to_parts(),
            elt.violated,
        ));
    }
    out
}

fn opts(bound: usize, backend: Backend) -> SynthOptions {
    let mut o = SynthOptions::new(bound);
    o.enumeration.allow_fences = false;
    o.enumeration.allow_rmw = false;
    o.backend = backend;
    o
}

#[test]
fn jobs_1_and_8_are_byte_identical_on_both_backends() {
    let mtm = x86t_elt();
    for backend in [Backend::Explicit, Backend::Relational] {
        for axiom in ["sc_per_loc", "invlpg"] {
            let o = opts(4, backend);
            let one = synthesize_suite_jobs(&mtm, axiom, &o, 1);
            let eight = synthesize_suite_jobs(&mtm, axiom, &o, 8);
            assert!(
                !one.elts.is_empty(),
                "{axiom} via {backend:?}: empty suite makes this test vacuous"
            );
            assert_eq!(
                fingerprint(&one),
                fingerprint(&eight),
                "{axiom} via {backend:?}: suites diverge between jobs=1 and jobs=8"
            );
            // Lossless counter aggregation: per-shard sums equal the
            // sequential totals exactly.
            assert_eq!(one.stats.programs, eight.stats.programs);
            assert_eq!(one.stats.executions, eight.stats.executions);
            assert_eq!(one.stats.forbidden, eight.stats.forbidden);
            assert_eq!(one.stats.minimal, eight.stats.minimal);
            for suite in [&one, &eight] {
                let (items, execs, forb, min) =
                    suite
                        .stats
                        .shards
                        .iter()
                        .fold((0, 0, 0, 0), |(i, e, f, m), s| {
                            (
                                i + s.items,
                                e + s.executions,
                                f + s.forbidden,
                                m + s.minimal,
                            )
                        });
                assert_eq!(execs, suite.stats.executions);
                assert_eq!(forb, suite.stats.forbidden);
                assert_eq!(min, suite.stats.minimal);
                assert!(items > 0);
            }
        }
    }
}

#[test]
fn parallel_explicit_and_relational_backends_agree_on_programs() {
    // The two backends count different things (the relational generator
    // only materializes violating executions), but the synthesized
    // programs and witnesses must agree.
    let mtm = x86t_elt();
    for axiom in ["sc_per_loc", "invlpg"] {
        let explicit = synthesize_suite_jobs(&mtm, axiom, &opts(4, Backend::Explicit), 4);
        let relational = synthesize_suite_jobs(&mtm, axiom, &opts(4, Backend::Relational), 4);
        assert_eq!(
            explicit.elts.len(),
            relational.elts.len(),
            "{axiom}: suite sizes diverge across backends"
        );
        for (a, b) in explicit.elts.iter().zip(&relational.elts) {
            assert_eq!(a.program, b.program, "{axiom}");
            assert_eq!(a.witness, b.witness, "{axiom}");
        }
    }
}

#[test]
fn partition_sizes_never_change_the_suite() {
    // The streaming pipeline's batch granularity — fixed at any value or
    // autotuned — is pure scheduling: the suite must stay byte-identical
    // to the sequential engine.
    let mtm = x86t_elt();
    let reference = {
        let o = opts(4, Backend::Explicit);
        fingerprint(&synthesize_suite_jobs(&mtm, "sc_per_loc", &o, 1))
    };
    for partition_size in [None, Some(1), Some(7), Some(100_000)] {
        for jobs in [2usize, 8] {
            let mut o = opts(4, Backend::Explicit);
            o.partition_size = partition_size;
            let suite = synthesize_suite_jobs(&mtm, "sc_per_loc", &o, jobs);
            assert_eq!(
                reference,
                fingerprint(&suite),
                "partition_size={partition_size:?} jobs={jobs}"
            );
        }
    }
}

#[test]
fn streamed_bound_5_suite_is_byte_identical_to_sequential() {
    // The acceptance bar for the fused pipeline: an engine-level run at
    // bound 5 reproduces the sequential suite exactly, under several
    // partition shapes (worker counts) and a pinned partition size.
    let mtm = x86t_elt();
    let o = opts(5, Backend::Explicit);
    let sequential = synthesize_suite_jobs(&mtm, "sc_per_loc", &o, 1);
    assert!(!sequential.elts.is_empty());
    for (jobs, partition_size) in [(4, None), (3, None), (4, Some(13))] {
        let mut o = opts(5, Backend::Explicit);
        o.partition_size = partition_size;
        let streamed = synthesize_suite_jobs(&mtm, "sc_per_loc", &o, jobs);
        let tag = format!("jobs={jobs} partition_size={partition_size:?}");
        assert_eq!(fingerprint(&sequential), fingerprint(&streamed), "{tag}");
        assert_eq!(sequential.stats.programs, streamed.stats.programs, "{tag}");
        assert_eq!(
            sequential.stats.executions, streamed.stats.executions,
            "{tag}"
        );
        assert_eq!(
            sequential.stats.forbidden, streamed.stats.forbidden,
            "{tag}"
        );
        assert_eq!(sequential.stats.minimal, streamed.stats.minimal, "{tag}");
    }
}

#[test]
fn partition_shapes_are_byte_identical_on_both_backends() {
    // The partition split (set by the worker count) and the batch size
    // are pure scheduling: same suite, byte for byte, as the
    // sequential engine — on both backends.
    let mtm = x86t_elt();
    for backend in [Backend::Explicit, Backend::Relational] {
        let reference = {
            let o = opts(4, backend);
            fingerprint(&synthesize_suite_jobs(&mtm, "invlpg", &o, 1))
        };
        for (jobs, partition_size) in [(4, None), (7, None), (4, Some(3))] {
            let mut o = opts(4, backend);
            o.partition_size = partition_size;
            let suite = synthesize_suite_jobs(&mtm, "invlpg", &o, jobs);
            assert_eq!(
                reference,
                fingerprint(&suite),
                "{backend:?} jobs={jobs} partition_size={partition_size:?}"
            );
        }
    }
}

#[test]
fn fused_all_axiom_run_matches_per_axiom_sequential_suites() {
    // The cross-axiom acceptance bar: one fused run (no shared plan
    // materialized up front) reproduces every per-axiom sequential
    // suite, counters included, at several worker counts.
    let mtm = x86t_elt();
    let o = opts(4, Backend::Explicit);
    let sequential: Vec<(String, String)> = mtm
        .axioms()
        .iter()
        .map(|ax| {
            (
                ax.name.clone(),
                fingerprint(&synthesize_suite_jobs(&mtm, &ax.name, &o, 1)),
            )
        })
        .collect();
    for jobs in [2usize, 4, 8] {
        let fused = synthesize_all_jobs(&mtm, &o, jobs);
        assert_eq!(fused.len(), sequential.len(), "jobs={jobs}");
        for (axiom, reference) in &sequential {
            let suite = &fused[axiom];
            assert_eq!(reference, &fingerprint(suite), "{axiom} jobs={jobs}");
            assert!(!suite.stats.timed_out, "{axiom} jobs={jobs}");
            let solo = synthesize_suite_jobs(&mtm, axiom, &o, 1);
            assert_eq!(suite.stats.programs, solo.stats.programs, "{axiom}");
            assert_eq!(suite.stats.executions, solo.stats.executions, "{axiom}");
            assert_eq!(suite.stats.forbidden, solo.stats.forbidden, "{axiom}");
            assert_eq!(suite.stats.minimal, solo.stats.minimal, "{axiom}");
        }
    }
}

#[test]
fn fused_all_axiom_run_matches_the_eager_shared_plan_baseline() {
    let mtm = x86t_elt();
    let o = opts(4, Backend::Explicit);
    let eager = transform_par::synthesize_all_jobs_eager(&mtm, &o, 4);
    let fused = synthesize_all_jobs(&mtm, &o, 4);
    assert_eq!(eager.len(), fused.len());
    for (axiom, a) in &eager {
        let b = &fused[axiom];
        assert_eq!(fingerprint(a), fingerprint(b), "{axiom}");
        assert_eq!(a.stats.programs, b.stats.programs, "{axiom}");
        assert_eq!(a.stats.executions, b.stats.executions, "{axiom}");
    }
}

#[test]
fn eager_reference_path_matches_the_fused_pipeline() {
    let mtm = x86t_elt();
    for backend in [Backend::Explicit, Backend::Relational] {
        let o = opts(4, backend);
        let eager = transform_par::synthesize_suite_jobs_eager(&mtm, "invlpg", &o, 4);
        let fused = synthesize_suite_jobs(&mtm, "invlpg", &o, 4);
        assert_eq!(
            fingerprint(&eager),
            fingerprint(&fused),
            "{backend:?}: two-phase and fused pipelines diverge"
        );
        assert_eq!(eager.stats.programs, fused.stats.programs);
        assert_eq!(eager.stats.executions, fused.stats.executions);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any job count — odd, even, oversubscribed far past the core
    /// count — reproduces the sequential suite.
    #[test]
    fn arbitrary_job_counts_stay_deterministic(jobs in 2usize..24) {
        let mtm = x86t_elt();
        let o = opts(4, Backend::Explicit);
        let reference = fingerprint(&synthesize_suite_jobs(&mtm, "sc_per_loc", &o, 1));
        let suite = synthesize_suite_jobs(&mtm, "sc_per_loc", &o, jobs);
        prop_assert_eq!(reference, fingerprint(&suite), "jobs={}", jobs);
    }

    /// Jobs × partition size together: still the sequential suite.
    #[test]
    fn job_and_partition_size_grid_stays_deterministic(
        jobs in 2usize..12,
        partition_size in 1usize..64,
    ) {
        let mtm = x86t_elt();
        let mut o = opts(4, Backend::Explicit);
        o.partition_size = Some(partition_size);
        let reference = {
            let o = opts(4, Backend::Explicit);
            fingerprint(&synthesize_suite_jobs(&mtm, "invlpg", &o, 1))
        };
        let suite = synthesize_suite_jobs(&mtm, "invlpg", &o, jobs);
        prop_assert_eq!(
            reference,
            fingerprint(&suite),
            "jobs={} partition_size={}",
            jobs,
            partition_size
        );
    }

    /// Jobs × partition size, through the fused all-axiom run: every
    /// per-axiom suite stays the sequential one.
    #[test]
    fn fused_all_jobs_partition_grid_stays_deterministic(
        jobs in 2usize..10,
        partition_size in 0usize..48,
    ) {
        let mtm = x86t_elt();
        let mut o = opts(4, Backend::Explicit);
        // 0 stands in for "autotune" (the engine takes None).
        o.partition_size = (partition_size > 0).then_some(partition_size);
        let fused = synthesize_all_jobs(&mtm, &o, jobs);
        for ax in mtm.axioms() {
            let reference = {
                let o = opts(4, Backend::Explicit);
                fingerprint(&synthesize_suite_jobs(&mtm, &ax.name, &o, 1))
            };
            prop_assert_eq!(
                reference,
                fingerprint(&fused[&ax.name]),
                "{} jobs={} partition_size={:?}",
                &ax.name, jobs, partition_size
            );
        }
    }
}
