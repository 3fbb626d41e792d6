//! The advisory entry index: written atomically on seal, validated
//! against the directory listing on read, and never trusted when stale
//! or damaged — the fallback is always the full header scan.

use std::path::PathBuf;
use transform_core::spec::parse_mtm;
use transform_par::Run;
use transform_store::{Store, TieredCache, INDEX_FILE};
use transform_synth::SynthOptions;

fn opts(bound: usize) -> SynthOptions {
    let mut o = SynthOptions::new(bound);
    o.enumeration.allow_fences = false;
    o.enumeration.allow_rmw = false;
    o
}

fn mtm() -> transform_core::axiom::Mtm {
    parse_mtm(
        "mtm m {
           axiom sc_per_loc: acyclic(rf | co | fr | po_loc)
           axiom invlpg:     acyclic(fr_va | ^po | remap)
         }",
    )
    .expect("spec parses")
}

/// Synthesizes and seals one bound-4 suite through a local-only cache.
fn seal(store: &Store, mtm: &transform_core::axiom::Mtm, axiom: &str) {
    let cache = TieredCache::new(Store::open(store.root()).expect("store reopens"));
    cache
        .serve(&Run::new(mtm, &[axiom], &opts(4), 2))
        .expect("seals");
}

fn temp_store(tag: &str) -> (PathBuf, Store) {
    let dir = std::env::temp_dir().join(format!("tfs-index-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir).expect("store opens");
    (dir, store)
}

#[test]
fn seal_maintains_an_exact_index() {
    let (dir, store) = temp_store("seal");
    let m = mtm();
    assert!(store.read_index().is_none(), "no index before any seal");

    seal(&store, &m, "sc_per_loc");
    let index = store.read_index().expect("index after one seal");
    assert_eq!(index.len(), 1);
    assert_eq!(index[0].meta.axiom, "sc_per_loc");
    assert_eq!(index[0].meta.bound, 4);

    seal(&store, &m, "invlpg");
    let index = store.read_index().expect("index after two seals");
    assert_eq!(index.len(), 2);
    // Sorted by fingerprint, exactly like Store::entries.
    let listed: Vec<_> = index.iter().map(|e| e.fingerprint).collect();
    assert_eq!(listed, store.entries().expect("listable"));
    // Metadata matches what each entry's own header says.
    for entry in &index {
        let reader = store.open_suite(entry.fingerprint).expect("entry opens");
        assert_eq!(reader.meta(), &entry.meta);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_and_corrupt_indexes_are_rejected_and_rebuildable() {
    let (dir, store) = temp_store("stale");
    let m = mtm();
    seal(&store, &m, "sc_per_loc");
    seal(&store, &m, "invlpg");
    assert!(store.read_index().is_some());

    // Delete one sealed entry behind the store's back: the index now
    // lists an entry that no longer exists, so it must be rejected.
    let victim = store.entries().expect("listable")[0];
    store.remove(victim).expect("removable");
    assert!(
        store.read_index().is_none(),
        "stale index must not be served"
    );

    // An explicit rebuild brings it back in sync.
    let indexed = store.rebuild_index().expect("rebuilds");
    assert_eq!(indexed, 1);
    assert_eq!(store.read_index().expect("valid again").len(), 1);

    // A flipped byte anywhere in the file invalidates it.
    let path = dir.join(INDEX_FILE);
    let mut bytes = std::fs::read(&path).expect("readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).expect("writable");
    assert!(
        store.read_index().is_none(),
        "corrupt index must not be served"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tmp_entries_are_listed_and_swept() {
    let (dir, store) = temp_store("tmp");
    // A crashed synthesis leaves a shard directory; a crashed index
    // rewrite leaves a staging file. Both must be swept.
    std::fs::create_dir_all(dir.join("tmp-deadbeef-123-0")).expect("mkdir");
    std::fs::write(dir.join("tmp-deadbeef-123-0/shard-0000.bin"), b"junk").expect("write");
    std::fs::write(dir.join("tmp-index-123-0"), b"junk").expect("write");
    assert_eq!(store.stale_tmp_entries().expect("listable").len(), 2);
    assert_eq!(store.sweep_tmp().expect("sweeps"), 2);
    assert!(store.stale_tmp_entries().expect("listable").is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
