//! The parallel orchestrator's core contract: for any worker count, the
//! synthesized suite is byte-identical to the sequential engine's, on
//! both candidate-execution backends, and every counter aggregates
//! losslessly.

use proptest::prelude::*;
use std::collections::BTreeMap;
use transform_core::axiom::Mtm;
use transform_par::Run;
use transform_synth::{
    assemble_suite, synthesize_suite, Backend, Examiner, ShardStats, Suite, SynthOptions,
};
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

/// One axiom's suite through the fused pipeline on `jobs` workers.
fn fused(mtm: &Mtm, axiom: &str, o: &SynthOptions, jobs: usize) -> Suite {
    Run::new(mtm, &[axiom], o, jobs)
        .collect()
        .remove(axiom)
        .expect("the run covers its axiom")
}

/// Every axiom's suite through one fused run on `jobs` workers.
fn fused_all(mtm: &Mtm, o: &SynthOptions, jobs: usize) -> BTreeMap<String, Suite> {
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    Run::new(mtm, &axioms, o, jobs).collect()
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
            let sequential = synthesize_suite(&mtm, axiom, &o);
            let one = fused(&mtm, axiom, &o, 1);
            let eight = fused(&mtm, axiom, &o, 8);
            assert!(
                !sequential.elts.is_empty(),
                "{axiom} via {backend:?}: empty suite makes this test vacuous"
            );
            for (jobs, suite) in [(1, &one), (8, &eight)] {
                assert_eq!(
                    fingerprint(&sequential),
                    fingerprint(suite),
                    "{axiom} via {backend:?}: jobs={jobs} diverges from the sequential engine"
                );
                // Lossless counter aggregation: per-shard sums equal the
                // sequential totals exactly.
                assert_eq!(sequential.stats.programs, suite.stats.programs);
                assert_eq!(sequential.stats.executions, suite.stats.executions);
                assert_eq!(sequential.stats.forbidden, suite.stats.forbidden);
                assert_eq!(sequential.stats.minimal, suite.stats.minimal);
            }
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
        let explicit = fused(&mtm, axiom, &opts(4, Backend::Explicit), 4);
        let relational = fused(&mtm, axiom, &opts(4, Backend::Relational), 4);
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
fn streamed_bound_5_suite_is_byte_identical_to_sequential() {
    // The acceptance bar for the fused pipeline: an engine-level run at
    // bound 5 reproduces the sequential suite exactly, at several worker
    // counts.
    let mtm = x86t_elt();
    let o = opts(5, Backend::Explicit);
    let sequential = synthesize_suite(&mtm, "sc_per_loc", &o);
    assert!(!sequential.elts.is_empty());
    for jobs in [4usize, 3] {
        let streamed = fused(&mtm, "sc_per_loc", &o, jobs);
        let tag = format!("jobs={jobs}");
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
    // The order in which partitions are enumerated and their batches
    // examined (set by the worker count) is pure scheduling: same
    // suite, byte for byte, as the sequential engine — on both
    // backends.
    let mtm = x86t_elt();
    for backend in [Backend::Explicit, Backend::Relational] {
        let reference = {
            let o = opts(4, backend);
            fingerprint(&synthesize_suite(&mtm, "invlpg", &o))
        };
        for jobs in [4usize, 7] {
            let suite = fused(&mtm, "invlpg", &opts(4, backend), jobs);
            assert_eq!(reference, fingerprint(&suite), "{backend:?} jobs={jobs}");
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
                fingerprint(&synthesize_suite(&mtm, &ax.name, &o)),
            )
        })
        .collect();
    for jobs in [2usize, 4, 8] {
        let all = fused_all(&mtm, &o, jobs);
        assert_eq!(all.len(), sequential.len(), "jobs={jobs}");
        for (axiom, reference) in &sequential {
            let suite = &all[axiom];
            assert_eq!(reference, &fingerprint(suite), "{axiom} jobs={jobs}");
            assert!(!suite.stats.timed_out, "{axiom} jobs={jobs}");
            let solo = synthesize_suite(&mtm, axiom, &o);
            assert_eq!(suite.stats.programs, solo.stats.programs, "{axiom}");
            assert_eq!(suite.stats.executions, solo.stats.executions, "{axiom}");
            assert_eq!(suite.stats.forbidden, solo.stats.forbidden, "{axiom}");
            assert_eq!(suite.stats.minimal, solo.stats.minimal, "{axiom}");
        }
    }
}

/// The two-phase baseline built from the sequential engine's phases:
/// one axiom-independent plan materialized up front, then every axiom
/// examined over it on one examiner.
fn eager_shared_plan_baseline(mtm: &Mtm, o: &SynthOptions) -> BTreeMap<String, Suite> {
    let start = std::time::Instant::now();
    let plan = transform_synth::plan_suite(mtm, &mtm.axioms()[0].name, o, None);
    mtm.axioms()
        .iter()
        .map(|ax| {
            let mut examiner = Examiner::new(mtm, &ax.name, o.backend, plan.branch_co_pa);
            let mut shard = ShardStats::new(0);
            let results = plan
                .items
                .iter()
                .map(|item| {
                    let examined = examiner.examine(&item.program);
                    shard.absorb(&examined);
                    (item.index, examined)
                })
                .collect();
            let suite = assemble_suite(
                &ax.name,
                &plan,
                results,
                vec![shard],
                start.elapsed(),
                false,
            );
            (ax.name.clone(), suite)
        })
        .collect()
}

#[test]
fn fused_all_axiom_run_matches_the_eager_shared_plan_baseline() {
    let mtm = x86t_elt();
    let o = opts(4, Backend::Explicit);
    let eager = eager_shared_plan_baseline(&mtm, &o);
    let all = fused_all(&mtm, &o, 4);
    assert_eq!(eager.len(), all.len());
    for (axiom, a) in &eager {
        let b = &all[axiom];
        assert_eq!(fingerprint(a), fingerprint(b), "{axiom}");
        assert_eq!(a.stats.programs, b.stats.programs, "{axiom}");
        assert_eq!(a.stats.executions, b.stats.executions, "{axiom}");
    }
}

#[test]
fn eager_reference_path_matches_the_fused_pipeline() {
    // The sequential engine is the eager reference: its whole plan is
    // materialized before any examination starts.
    let mtm = x86t_elt();
    for backend in [Backend::Explicit, Backend::Relational] {
        let o = opts(4, backend);
        let eager = synthesize_suite(&mtm, "invlpg", &o);
        let streamed = fused(&mtm, "invlpg", &o, 4);
        assert_eq!(
            fingerprint(&eager),
            fingerprint(&streamed),
            "{backend:?}: two-phase and fused pipelines diverge"
        );
        assert_eq!(eager.stats.programs, streamed.stats.programs);
        assert_eq!(eager.stats.executions, streamed.stats.executions);
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
        let reference = fingerprint(&synthesize_suite(&mtm, "sc_per_loc", &o));
        let suite = fused(&mtm, "sc_per_loc", &o, jobs);
        prop_assert_eq!(reference, fingerprint(&suite), "jobs={}", jobs);
    }

    /// Any job count on a second axiom: still the sequential suite.
    #[test]
    fn job_grid_stays_deterministic(jobs in 2usize..12) {
        let mtm = x86t_elt();
        let o = opts(4, Backend::Explicit);
        let reference = fingerprint(&synthesize_suite(&mtm, "invlpg", &o));
        let suite = fused(&mtm, "invlpg", &o, jobs);
        prop_assert_eq!(reference, fingerprint(&suite), "jobs={}", jobs);
    }

    /// Any job count through the fused all-axiom run, whose partitions
    /// each queue one batch for every axiom: every per-axiom suite stays
    /// the sequential one.
    #[test]
    fn fused_all_jobs_partition_grid_stays_deterministic(jobs in 2usize..10) {
        let mtm = x86t_elt();
        let o = opts(4, Backend::Explicit);
        let all = fused_all(&mtm, &o, jobs);
        for ax in mtm.axioms() {
            let reference = {
                let o = opts(4, Backend::Explicit);
                fingerprint(&synthesize_suite(&mtm, &ax.name, &o))
            };
            prop_assert_eq!(
                reference,
                fingerprint(&all[&ax.name]),
                "{} jobs={}",
                &ax.name, jobs
            );
        }
    }
}
