//! End-to-end synthesis tests for the x86t_elt case study (§V–§VI).

use transform::synth::{
    exclusive_attribution, suite_contains, synthesize_all, synthesize_suite, unique_union, Program,
    SynthOptions,
};
use transform::x86::x86t_elt;

fn opts(bound: usize) -> SynthOptions {
    let mut o = SynthOptions::new(bound);
    o.enumeration.allow_fences = false;
    o.enumeration.allow_rmw = false;
    o
}

#[test]
fn bound4_suite_sizes_are_pinned() {
    // Regression-pins for the Fig. 9a reproduction at bound 4 (fences and
    // RMWs excluded; see EXPERIMENTS.md).
    let mtm = x86t_elt();
    let sizes: Vec<(String, usize)> = synthesize_all(&mtm, &opts(4))
        .into_iter()
        .map(|(k, s)| (k, s.elts.len()))
        .collect();
    let expect = [
        ("causality", 6),
        ("invlpg", 2),
        ("rmw_atomicity", 0),
        ("sc_per_loc", 11),
        ("tlb_causality", 2),
    ];
    for ((name, got), (ename, want)) in sizes.iter().zip(expect) {
        assert_eq!(name, ename);
        assert_eq!(*got, want, "{name} suite size at bound 4");
    }
}

#[test]
fn every_witness_is_forbidden_minimal_and_within_bound() {
    let mtm = x86t_elt();
    for (axiom, suite) in synthesize_all(&mtm, &opts(4)) {
        for elt in &suite.elts {
            assert!(elt.program.size() <= 4);
            let v = mtm.permits(&elt.witness);
            assert!(v.violates(&axiom), "witness must violate {axiom}");
            assert!(elt.witness.has_write(), "spanning criterion 1");
            assert!(
                transform::synth::minimal::is_minimal(&elt.witness, &mtm),
                "spanning criterion: minimality"
            );
        }
    }
}

#[test]
fn suites_grow_monotonically_with_the_bound() {
    // Everything synthesizable at bound b is synthesizable at b+1 (the
    // bound is an upper limit), so counts are monotone.
    let mtm = x86t_elt();
    for axiom in ["sc_per_loc", "invlpg"] {
        let small = synthesize_suite(&mtm, axiom, &opts(4));
        let large = synthesize_suite(&mtm, axiom, &opts(5));
        assert!(
            large.elts.len() >= small.elts.len(),
            "{axiom}: {} -> {}",
            small.elts.len(),
            large.elts.len()
        );
        // And the small suite's programs all reappear.
        for elt in &small.elts {
            assert!(suite_contains(&large, &elt.program));
        }
    }
}

#[test]
fn fig11_program_is_synthesized_at_bound_5() {
    let mtm = x86t_elt();
    let suite = synthesize_suite(&mtm, "invlpg", &opts(5));
    let fig11 = Program::from_execution(&transform::core::figures::fig11_cross_core_invlpg());
    assert!(suite_contains(&suite, &fig11));
}

#[test]
fn union_deduplicates_across_suites() {
    // Fig. 10a violates both sc_per_loc and invlpg, so its program appears
    // in both suites but only once in the union (the paper's "140 unique").
    let mtm = x86t_elt();
    let suites = synthesize_all(&mtm, &opts(4));
    let total: usize = suites.values().map(|s| s.elts.len()).sum();
    let union = unique_union(suites.values());
    assert!(union.len() < total, "cross-suite duplicates must collapse");
    let attribution = exclusive_attribution(&suites);
    // tlb_causality has tests of its own (the paper attributes five of 140
    // to it at full bounds).
    assert!(attribution.values().sum::<usize>() <= union.len());
}

#[test]
fn relational_backend_agrees_at_bound_4() {
    let mtm = x86t_elt();
    let mut relational = opts(4);
    relational.backend = transform::synth::Backend::Relational;
    for axiom in ["invlpg", "sc_per_loc", "tlb_causality"] {
        let explicit_suite = synthesize_suite(&mtm, axiom, &opts(4));
        let relational_suite = synthesize_suite(&mtm, axiom, &relational);
        assert_eq!(
            explicit_suite.elts.len(),
            relational_suite.elts.len(),
            "{axiom}: explicit vs relational"
        );
        for elt in &explicit_suite.elts {
            assert!(suite_contains(&relational_suite, &elt.program), "{axiom}");
        }
    }
}

/// The fused pipeline's all-axiom listing at bound 5 (`--fences
/// --rmw`, two workers) is byte-identical on the explicit and
/// relational backends: every axiom's members, witnesses and their
/// rendering agree.
#[test]
fn relational_backend_listing_matches_explicit_at_bound_5() {
    use transform::litmus::format::print_elt;
    use transform::par::Run;
    use transform::synth::Backend;
    let mtm = x86t_elt();
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    let listing = |backend: Backend| {
        let mut o = SynthOptions::new(5);
        o.backend = backend;
        let suites = Run::new(&mtm, &axioms, &o, 2).collect();
        let mut out = String::new();
        for axiom in &axioms {
            for (i, elt) in suites[*axiom].elts.iter().enumerate() {
                out.push_str(&print_elt(&format!("{axiom}_{i}"), &elt.witness));
                out.push('\n');
            }
        }
        out
    };
    let explicit = listing(Backend::Explicit);
    assert!(!explicit.is_empty());
    assert_eq!(explicit, listing(Backend::Relational));
}

#[test]
fn rmw_atomicity_has_a_seven_event_minimal_test() {
    // Our cost model needs 7 events for a minimal rmw_atomicity violation
    // (the paper reports 6; see EXPERIMENTS.md for the deviation
    // rationale): an RMW on one core and an intervening write on another.
    use transform::core::{EltBuilder, Va};
    let mtm = x86t_elt();
    let mut b = EltBuilder::new();
    let c0 = b.thread();
    let c1 = b.thread();
    let (r, p) = b.read_walk(c0, Va(0));
    let (w, db_w) = b.write(c0, Va(0));
    b.rmw(r, w);
    let _ = p;
    let (w2, db_w2, _) = b.write_walk(c1, Va(0));
    // r reads the initial value; w2 slots between it and the RMW's write.
    b.co([w2, w]);
    b.co([db_w2, db_w]); // PTE-location coherence for the dirty bits
    let x = b.build();
    assert_eq!(x.size(), 7);
    let v = mtm.permits(&x);
    assert!(v.violates("rmw_atomicity"), "violated: {:?}", v.violated);
    assert!(transform::synth::minimal::is_minimal(&x, &mtm));
}

#[test]
fn single_core_rmw_violation_is_not_minimal() {
    // The 6-event single-core variant also breaks coherence, and dropping
    // the rmw dependency leaves it forbidden — so it fails minimality.
    use transform::core::{EltBuilder, Va};
    let mtm = x86t_elt();
    let mut b = EltBuilder::new();
    let c0 = b.thread();
    let (r, _) = b.read_walk(c0, Va(0));
    let (w, db_w) = b.write(c0, Va(0));
    b.rmw(r, w);
    let (w2, db_w2) = b.write(c0, Va(0));
    b.co([w2, w]); // against po: coherence violation too
    b.co([db_w, db_w2]);
    let x = b.build();
    assert_eq!(x.size(), 6);
    let v = mtm.permits(&x);
    assert!(v.violates("rmw_atomicity"));
    assert!(v.violates("sc_per_loc"));
    assert!(!transform::synth::minimal::is_minimal(&x, &mtm));
}
