//! Warm-vs-cold suite cache: wall-clock of `TieredCache::serve` when
//! the store is empty (synthesize + seal) versus sealed (stream the
//! entry back). The paper's runs took up to a week per bound; the store
//! turns every repeat into a read.
//!
//! Besides the per-temperature measurements, the run prints a one-line
//! `cache_speedup/ratio` summary (cold time over warm time). At bound 4
//! the ratio is well over 10×, and it grows with the bound — the warm
//! path's cost scales with the suite's size, not the search space.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::path::PathBuf;
use std::time::Instant;
use transform_core::axiom::Mtm;
use transform_par::Run;
use transform_store::{CacheStatus, Store, TieredCache};
use transform_synth::{Suite, SynthOptions};
use transform_x86::x86t_elt;

const BOUND: usize = 4;
const AXIOM: &str = "sc_per_loc";
const JOBS: usize = 2;

fn opts() -> SynthOptions {
    SynthOptions::new(BOUND)
}

/// Serves the benchmarked suite through `cache`.
fn serve_one(cache: &TieredCache, mtm: &Mtm) -> (Suite, CacheStatus) {
    let mut served = cache
        .serve(&Run::new(mtm, &[AXIOM], &opts(), JOBS))
        .expect("the cache serves");
    served.remove(AXIOM).expect("the run covers its axiom")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "transform-cache-bench-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn bench_cold(c: &mut Criterion) {
    let mtm = x86t_elt();
    let mut group = c.benchmark_group("cache_speedup");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter_batched(
            || {
                let dir = fresh_dir("cold");
                TieredCache::new(Store::open(&dir).expect("store opens"))
            },
            |cache| {
                let (suite, status) = serve_one(&cache, &mtm);
                assert!(!status.is_hit());
                suite.elts.len()
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
    std::fs::remove_dir_all(fresh_dir("cold")).ok();
}

fn bench_warm(c: &mut Criterion) {
    let mtm = x86t_elt();
    let dir = fresh_dir("warm");
    let cache = TieredCache::new(Store::open(&dir).expect("store opens"));
    serve_one(&cache, &mtm);
    let mut group = c.benchmark_group("cache_speedup");
    group.sample_size(50);
    group.bench_function("warm", |b| {
        b.iter(|| {
            let (suite, status) = serve_one(&cache, &mtm);
            assert!(status.is_hit());
            suite.elts.len()
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn speedup_summary(_c: &mut Criterion) {
    let mtm = x86t_elt();
    let dir = fresh_dir("ratio");
    let cache = TieredCache::new(Store::open(&dir).expect("store opens"));

    let start = Instant::now();
    let (cold_suite, _) = serve_one(&cache, &mtm);
    let cold = start.elapsed();

    // Median of repeated warm reads, so one slow I/O outlier cannot
    // understate the speedup.
    let mut warm_samples = Vec::new();
    let mut warm_len = 0;
    for _ in 0..9 {
        let start = Instant::now();
        let (warm_suite, status) = serve_one(&cache, &mtm);
        warm_samples.push(start.elapsed());
        assert!(status.is_hit());
        warm_len = warm_suite.elts.len();
    }
    warm_samples.sort_unstable();
    let warm = warm_samples[warm_samples.len() / 2];
    assert_eq!(cold_suite.elts.len(), warm_len);

    let ratio = cold.as_secs_f64() / warm.as_secs_f64().max(f64::EPSILON);
    println!(
        "cache_speedup/ratio: {AXIOM} @ bound {BOUND}: cold {cold:.3?} / warm {warm:.3?} = {ratio:.1}x"
    );
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_cold, bench_warm, speedup_summary);
criterion_main!(benches);
