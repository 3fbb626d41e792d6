//! Enumeration throughput and the fused synthesis pipeline's
//! end-to-end numbers.
//!
//! Measured per configuration:
//!
//! * programs/second of the eager `programs()` enumeration (the
//!   enumeration oracle) vs the partition-streamed `EnumSpace::stream()`
//!   (same sequence, proven by count);
//! * wall-clock of the fused streaming pipeline (`Run::stream`);
//! * peak live candidates: the full enumeration would hold every
//!   program at once, the streamed pipeline holds at most a few
//!   partitions (`StreamMetrics::peak_live_candidates`).
//!
//! * fused cross-axiom synthesis: every axiom in one `Run`, checked
//!   against the sequential engine's per-axiom suites;
//! * progress-instrumentation overhead: the fused run with a subscribed
//!   journaling `ProgressState` (published counters, span-event journal
//!   recording, plus a polling sampler thread at the coalesced 100 ms
//!   cadence `--progress` actually samples at) vs the unobserved fused
//!   run, recorded as `progress_overhead_pct` per point. Acceptance
//!   bar: ≤ 5% even at the short bound-5 point, where a hot-polling
//!   sampler used to steal a visible slice of a two-core budget.
//!
//! Besides the per-point measurements, the run writes the numbers to
//! `BENCH_enum.json` at the workspace root so the perf trajectory is
//! tracked across PRs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use transform_par::{default_jobs, ProgressState, Run, StreamMetrics, SuiteSink};
use transform_synth::programs::EnumSpace;
use transform_synth::{ShardStats, SuiteRecord, SynthOptions};
use transform_x86::x86t_elt;

const AXIOM: &str = "sc_per_loc";

fn opts(bound: usize) -> SynthOptions {
    let mut o = SynthOptions::new(bound);
    o.enumeration.allow_fences = true;
    o.enumeration.allow_rmw = true;
    o
}

fn jobs() -> usize {
    default_jobs().max(2)
}

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("enum_throughput");
    group.sample_size(10);
    let o = opts(5);
    group.bench_function("eager/bound5", |b| {
        b.iter(|| transform_synth::programs::programs(&o.enumeration).len())
    });
    group.bench_function("streamed/bound5", |b| {
        b.iter(|| EnumSpace::new(&o.enumeration).stream().count())
    });
    group.finish();
}

/// A collecting sink, deliberately implemented against the public
/// [`SuiteSink`] trait (the same API the store streams through) rather
/// than any internal collector, so the bench measures the external
/// contract.
struct Collect(Mutex<Vec<SuiteRecord>>);

impl SuiteSink for Collect {
    fn shard_done(&self, _stats: ShardStats, records: Vec<SuiteRecord>) {
        self.0.lock().expect("collect lock").extend(records);
    }
}

struct Point {
    bound: usize,
    programs: usize,
    elts: usize,
    enum_eager: Duration,
    enum_streamed: Duration,
    synth_fused: Duration,
    synth_observed: Duration,
    metrics: StreamMetrics,
}

fn measure(bound: usize) -> Point {
    let mtm = x86t_elt();
    let o = opts(bound);
    let jobs = jobs();

    let start = Instant::now();
    let enumerated = transform_synth::programs::programs(&o.enumeration).len();
    let enum_eager = start.elapsed();

    let start = Instant::now();
    let streamed_count = EnumSpace::new(&o.enumeration).stream().count();
    let enum_streamed = start.elapsed();
    assert_eq!(enumerated, streamed_count, "stream diverged from eager");

    let run = Run::new(&mtm, &[AXIOM], &o, jobs);
    let sink = Collect(Mutex::new(Vec::new()));
    let start = Instant::now();
    let (stats, metrics) = run.stream(&[&sink]);
    let synth_fused = start.elapsed();
    let stats = &stats[0];
    let mut records = sink.0.into_inner().expect("collect lock");
    records.sort_by_key(|r| r.index);
    // The whole point: the pipeline never materializes the full
    // enumeration at once.
    if enumerated > 100 {
        assert!(
            metrics.peak_live_candidates < enumerated,
            "peak live {} should stay below the full enumeration {}",
            metrics.peak_live_candidates,
            enumerated
        );
    }

    // The same fused run with a live observer subscribed: publishing
    // the progress atomics, recording the span-event journal (the way
    // any `--cache` run does), plus a sampling thread polling snapshots
    // at the 100 ms cadence the `--progress` reporter coalesces to. The
    // delta against the unobserved fused run is the instrumentation
    // overhead (acceptance bar: ≤ 5% at bound 5, < 2% at bound 6). The
    // cadence matters on small runs: a 10 ms hot poll used to charge
    // ~27% to a half-second bound-5 point on a two-core runner, all of
    // it sampler-thread contention rather than instrumentation cost.
    let sink = Collect(Mutex::new(Vec::new()));
    let progress = std::sync::Arc::new(ProgressState::with_journal(&[AXIOM]));
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let progress = std::sync::Arc::clone(&progress);
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut samples = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = progress.snapshot();
                samples += 1;
                std::thread::sleep(Duration::from_millis(100));
            }
            samples
        })
    };
    let start = Instant::now();
    let (observed_stats, observed_metrics) = Run {
        progress: Some(&progress),
        ..run
    }
    .stream(&[&sink]);
    let synth_observed = start.elapsed();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    sampler.join().expect("sampler joins");
    let mut observed_records = sink.0.into_inner().expect("collect lock");
    observed_records.sort_by_key(|r| r.index);
    assert_eq!(observed_records.len(), records.len());
    for (r, e) in observed_records.iter().zip(&records) {
        assert_eq!(r.elt.program, e.elt.program, "observed suite diverged");
    }
    assert_eq!(observed_stats[0].programs, stats.programs);
    assert_eq!(observed_metrics.partitions, metrics.partitions);
    // The overhead number must cover a *recording* run: the journal
    // has to have actually captured the run's span events.
    let events = progress.take_journal();
    assert!(
        events.len() > metrics.batches,
        "journal captured only {} events across {} batches",
        events.len(),
        metrics.batches
    );

    Point {
        bound,
        programs: stats.programs,
        elts: records.len(),
        enum_eager,
        enum_streamed,
        synth_fused,
        synth_observed,
        metrics,
    }
}

fn json_point(p: &Point) -> String {
    format!(
        concat!(
            "{{\"bound\": {}, \"fences\": true, \"rmw\": true, ",
            "\"programs\": {}, \"elts\": {}, ",
            "\"enum_eager_secs\": {:.6}, \"enum_streamed_secs\": {:.6}, ",
            "\"enum_eager_programs_per_sec\": {:.1}, ",
            "\"enum_streamed_programs_per_sec\": {:.1}, ",
            "\"synth_fused_secs\": {:.6}, ",
            "\"synth_observed_secs\": {:.6}, \"progress_overhead_pct\": {:.2}, ",
            "\"peak_live_streamed\": {}, ",
            "\"partitions\": {}, \"batches\": {}, \"final_batch_size\": {}}}"
        ),
        p.bound,
        p.programs,
        p.elts,
        p.enum_eager.as_secs_f64(),
        p.enum_streamed.as_secs_f64(),
        p.programs as f64 / p.enum_eager.as_secs_f64().max(f64::EPSILON),
        p.programs as f64 / p.enum_streamed.as_secs_f64().max(f64::EPSILON),
        p.synth_fused.as_secs_f64(),
        p.synth_observed.as_secs_f64(),
        (p.synth_observed.as_secs_f64() / p.synth_fused.as_secs_f64().max(f64::EPSILON) - 1.0)
            * 100.0,
        p.metrics.peak_live_candidates,
        p.metrics.partitions,
        p.metrics.batches,
        p.metrics.final_batch_size,
    )
}

/// The fused cross-axiom run: every axiom of x86t_elt in one pass,
/// checked against the sequential engine's per-axiom suites.
struct AllAxiomsPoint {
    bound: usize,
    axioms: usize,
    elts_total: usize,
    fused_secs: f64,
}

fn measure_all_axioms(bound: usize) -> AllAxiomsPoint {
    let mtm = x86t_elt();
    let o = opts(bound);
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();

    let start = Instant::now();
    let fused = Run::new(&mtm, &axioms, &o, jobs()).collect();
    let fused_secs = start.elapsed().as_secs_f64();

    let sequential = transform_synth::synthesize_all(&mtm, &o);
    assert_eq!(sequential.len(), fused.len());
    for (axiom, a) in &sequential {
        let b = &fused[axiom];
        assert_eq!(
            a.elts.len(),
            b.elts.len(),
            "{axiom}: fused all-axiom run diverged from the sequential engine"
        );
        for (x, y) in a.elts.iter().zip(&b.elts) {
            assert_eq!(x.program, y.program, "{axiom}");
        }
    }
    AllAxiomsPoint {
        bound,
        axioms: fused.len(),
        elts_total: fused.values().map(|s| s.elts.len()).sum(),
        fused_secs,
    }
}

fn throughput_summary(_c: &mut Criterion) {
    let points: Vec<Point> = [5usize, 6].iter().map(|&b| measure(b)).collect();
    for p in &points {
        println!(
            "enum_throughput summary: `{AXIOM}` @ bound {} --fences --rmw on {} workers: \
             enum eager {:?} vs streamed {:?}; synth fused {:?}; \
             observed fused {:?} ({:+.2}% progress overhead); \
             peak live {} (of {} programs, {} partitions, {} batches)",
            p.bound,
            jobs(),
            p.enum_eager,
            p.enum_streamed,
            p.synth_fused,
            p.synth_observed,
            (p.synth_observed.as_secs_f64() / p.synth_fused.as_secs_f64().max(f64::EPSILON) - 1.0)
                * 100.0,
            p.metrics.peak_live_candidates,
            p.programs,
            p.metrics.partitions,
            p.metrics.batches,
        );
    }
    let all = measure_all_axioms(4);
    println!(
        "enum_throughput all-axioms: {} axioms @ bound {} --fences --rmw on {} workers: \
         fused {:.3}s, {} ELTs total",
        all.axioms,
        all.bound,
        jobs(),
        all.fused_secs,
        all.elts_total,
    );

    let body = points
        .iter()
        .map(json_point)
        .collect::<Vec<_>>()
        .join(",\n    ");
    let all_body = format!(
        concat!(
            "{{\"bound\": {}, \"fences\": true, \"rmw\": true, \"axioms\": {}, ",
            "\"elts_total\": {}, \"synth_all_fused_secs\": {:.6}}}"
        ),
        all.bound, all.axioms, all.elts_total, all.fused_secs,
    );
    let json = format!(
        "{{\n  \"bench\": \"enum_throughput\",\n  \"axiom\": \"{AXIOM}\",\n  \
         \"jobs\": {},\n  \"points\": [\n    {}\n  ],\n  \
         \"all_axioms\": {}\n}}\n",
        jobs(),
        body,
        all_body,
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_enum.json");
    std::fs::write(&path, json).expect("BENCH_enum.json is writable");
    println!("enum_throughput: wrote {}", path.display());
}

criterion_group!(benches, bench_enumeration, throughput_summary);
criterion_main!(benches);
