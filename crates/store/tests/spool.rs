//! The pending-entry spool: shards stream into memory, the seal merges
//! them in plan-index order, and nothing but sealed entries (and the
//! index and run journals beside them) ever lands in the store
//! directory.

use transform_core::axiom::Mtm;
use transform_par::{Run, SuiteSink};
use transform_store::{suite_fingerprint, EntryMeta, Store, StoreError, TieredCache};
use transform_synth::{
    synthesize_suite, ShardStats, SuiteRecord, SuiteStats, SynthOptions, SynthesizedElt,
};
use transform_x86::x86t_elt;

fn temp_store(tag: &str) -> (Store, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("tfs-spool-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    (Store::open(&dir).expect("store opens"), dir)
}

fn small_opts() -> SynthOptions {
    let mut o = SynthOptions::new(4);
    o.enumeration.allow_fences = false;
    o.enumeration.allow_rmw = false;
    o
}

/// A few real suite members, as records with the given plan indices.
fn records(mtm: &Mtm, indices: &[usize]) -> Vec<SuiteRecord> {
    let suite = synthesize_suite(mtm, "sc_per_loc", &small_opts());
    assert!(suite.elts.len() >= indices.len(), "suite too small");
    indices
        .iter()
        .zip(&suite.elts)
        .map(|(&index, elt)| SuiteRecord {
            index,
            elt: elt.clone(),
        })
        .collect()
}

fn directory_listing(store: &Store) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(store.root())
        .expect("readable")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn duplicate_plan_indices_fail_the_seal_as_corrupt() {
    let mtm = x86t_elt();
    let (store, dir) = temp_store("dup");
    let o = small_opts();
    let fp = suite_fingerprint(&mtm, "sc_per_loc", &o);
    let pending = store
        .begin(fp, EntryMeta::describe(&mtm, "sc_per_loc", &o))
        .expect("begins");
    let recs = records(&mtm, &[3, 7]);
    pending.shard_done(ShardStats::new(0), vec![recs[0].clone()]);
    // A second shard claiming plan index 3 again.
    let mut clash = recs[1].clone();
    clash.index = 3;
    pending.shard_done(ShardStats::new(1), vec![clash]);
    let err = pending
        .seal(&SuiteStats::from_shards(10, Vec::new()))
        .expect_err("overlapping shards cannot seal");
    assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    assert!(store.entries().expect("lists").is_empty(), "nothing sealed");
    assert!(store.stale_tmp_entries().expect("lists").is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unsealed_pending_entry_leaves_nothing_behind() {
    let mtm = x86t_elt();
    let (store, dir) = temp_store("drop");
    let o = small_opts();
    let fp = suite_fingerprint(&mtm, "sc_per_loc", &o);
    let pending = store
        .begin(fp, EntryMeta::describe(&mtm, "sc_per_loc", &o))
        .expect("begins");
    pending.shard_done(ShardStats::new(0), records(&mtm, &[0, 1]));
    drop(pending);
    assert_eq!(directory_listing(&store), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn into_suite_returns_members_in_plan_index_order() {
    let mtm = x86t_elt();
    let (store, dir) = temp_store("order");
    let o = small_opts();
    let fp = suite_fingerprint(&mtm, "sc_per_loc", &o);
    let pending = store
        .begin(fp, EntryMeta::describe(&mtm, "sc_per_loc", &o))
        .expect("begins");
    let recs = records(&mtm, &[5, 2, 9, 0]);
    // Shards arrive out of order, and records out of order within them.
    pending.shard_done(ShardStats::new(1), vec![recs[2].clone(), recs[0].clone()]);
    pending.shard_done(ShardStats::new(0), vec![recs[1].clone(), recs[3].clone()]);
    let suite = pending
        .into_suite(&SuiteStats::from_shards(10, Vec::new()))
        .expect("assembles");
    let mut sorted = recs.clone();
    sorted.sort_by_key(|r| r.index);
    let want: Vec<SynthesizedElt> = sorted.into_iter().map(|r| r.elt).collect();
    assert_eq!(suite.elts, want);
    assert_eq!(suite.axiom, "sc_per_loc");
    assert_eq!(directory_listing(&store), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cached_all_axiom_run_leaves_no_tmp_entries() {
    let mtm = x86t_elt();
    let (store, dir) = temp_store("all5");
    let mut o = SynthOptions::new(5);
    o.enumeration.allow_fences = true;
    o.enumeration.allow_rmw = true;
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    let cache = TieredCache::new(Store::open(store.root()).expect("opens"));
    let served = cache
        .serve(&Run::new(&mtm, &axioms, &o, 2))
        .expect("serves");
    assert_eq!(served.len(), axioms.len());
    assert_eq!(store.entries().expect("lists").len(), axioms.len());
    assert!(
        store.stale_tmp_entries().expect("lists").is_empty(),
        "{:?}",
        directory_listing(&store)
    );
    std::fs::remove_dir_all(&dir).ok();
}
