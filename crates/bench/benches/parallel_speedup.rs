//! Parallel synthesis speedup: wall-clock for the `transform-par`
//! orchestrator at jobs ∈ {1, 2, 8}, at a fixed bound, on both backends.
//!
//! Besides the per-point measurements, the run prints a one-line speedup
//! summary (sequential-engine time over jobs=8 time). On a single-core
//! host the ratio hovers around 1.0 — the orchestrator's overhead — and
//! grows toward the core count on real hardware.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Instant;
use transform_par::Run;
use transform_synth::{Backend, SynthOptions};
use transform_x86::x86t_elt;

const BOUND: usize = 5;
const AXIOM: &str = "sc_per_loc";

fn opts(backend: Backend) -> SynthOptions {
    let mut o = SynthOptions::new(BOUND);
    o.enumeration.allow_fences = false;
    o.enumeration.allow_rmw = false;
    o.backend = backend;
    o
}

fn bench_jobs_sweep(c: &mut Criterion) {
    let mtm = x86t_elt();
    let mut group = c.benchmark_group("parallel_speedup/jobs");
    group.sample_size(10);
    for backend in [Backend::Explicit, Backend::Relational] {
        for jobs in [1usize, 2, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("{backend:?}"), jobs),
                &jobs,
                |b, &jobs| {
                    let o = opts(backend);
                    b.iter(|| Run::new(&mtm, &[AXIOM], &o, jobs).collect())
                },
            );
        }
    }
    group.finish();
}

fn speedup_summary(_c: &mut Criterion) {
    let mtm = x86t_elt();
    let o = opts(Backend::Explicit);
    let start = Instant::now();
    let n1 = transform_synth::synthesize_suite(&mtm, AXIOM, &o)
        .elts
        .len();
    let t1 = start.elapsed();
    let start = Instant::now();
    let n8 = Run::new(&mtm, &[AXIOM], &o, 8).collect()[AXIOM].elts.len();
    let t8 = start.elapsed();
    assert_eq!(n1, n8, "parallel suite diverged from sequential");
    println!(
        "parallel_speedup summary: `{AXIOM}` @ bound {BOUND}: sequential {t1:?}, jobs=8 {t8:?} \
         => {:.2}x on {} core(s)",
        t1.as_secs_f64() / t8.as_secs_f64().max(f64::EPSILON),
        transform_par::default_jobs(),
    );
}

criterion_group!(benches, bench_jobs_sweep, speedup_summary);
criterion_main!(benches);
