//! The streaming enumeration's core contract: [`EnumSpace::stream`],
//! one partition per root shape, yields exactly the sequence of the
//! eager [`programs`] enumeration — same programs, same order, same
//! symmetry-reduction outcomes — while the partitioned form gives every
//! program a stable, scheduling-independent position.

use transform_synth::programs::{programs, EnumOptions, EnumSpace, Program};

fn options(bound: usize, fences: bool, rmw: bool) -> EnumOptions {
    let mut o = EnumOptions::new(bound);
    o.allow_fences = fences;
    o.allow_rmw = rmw;
    o
}

#[test]
fn bound_5_stream_matches_eager() {
    let opts = options(5, false, false);
    let eager = programs(&opts);
    assert!(!eager.is_empty());
    let streamed: Vec<Program> = EnumSpace::new(&opts).stream().collect();
    assert_eq!(
        eager.len(),
        streamed.len(),
        "stream yields a different count"
    );
    assert_eq!(eager, streamed, "sequences diverge");
}

#[test]
fn bound_5_with_fences_and_rmw_streams_identically() {
    // The nightly stress configuration.
    let opts = options(5, true, true);
    let eager = programs(&opts);
    assert_eq!(
        eager,
        EnumSpace::new(&opts).stream().collect::<Vec<Program>>()
    );
}

/// A max-threads cap partitions identically too.
#[test]
fn stream_respects_max_threads() {
    for max_threads in 1usize..=3 {
        let mut opts = options(4, false, false);
        opts.max_threads = Some(max_threads);
        let streamed: Vec<Program> = EnumSpace::new(&opts).stream().collect();
        assert_eq!(programs(&opts), streamed, "max_threads {max_threads}");
    }
}

/// Every bound ≤ 4 and option mix: the stream is the eager
/// enumeration.
#[test]
fn stream_equals_programs() {
    for bound in 2usize..=4 {
        for (fences, rmw) in [(false, false), (false, true), (true, false), (true, true)] {
            let opts = options(bound, fences, rmw);
            let streamed: Vec<Program> = EnumSpace::new(&opts).stream().collect();
            assert_eq!(
                programs(&opts),
                streamed,
                "bound={bound} fences={fences} rmw={rmw}"
            );
        }
    }
}
