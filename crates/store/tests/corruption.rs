//! Corruption injection: flipped bytes, truncation, and version skew in
//! a sealed entry must be *detected* (checksums/version field) and the
//! suite transparently *rebuilt* — damaged bytes are never served.

use proptest::proptest;
use transform_core::axiom::Mtm;
use transform_litmus::format::print_elt;
use transform_par::Run;
use transform_store::{suite_fingerprint, CacheStatus, Store, StoreError, TieredCache};
use transform_synth::{Suite, SynthOptions};
use transform_x86::x86t_elt;

fn opts() -> SynthOptions {
    let mut o = SynthOptions::new(4);
    o.enumeration.allow_fences = false;
    o.enumeration.allow_rmw = false;
    o
}

/// Serves one axiom's suite through a local-only cache over `store`.
fn cached(
    store: &Store,
    mtm: &Mtm,
    axiom: &str,
    o: &SynthOptions,
    jobs: usize,
) -> Result<(Suite, CacheStatus), StoreError> {
    let cache = TieredCache::new(Store::open(store.root())?);
    let mut served = cache.serve(&Run::new(mtm, &[axiom], o, jobs))?;
    Ok(served.remove(axiom).expect("the run covers its axiom"))
}

fn render(suite: &Suite) -> String {
    let mut out = String::new();
    for (i, elt) in suite.elts.iter().enumerate() {
        out.push_str(&print_elt(&format!("{}_{i}", suite.axiom), &elt.witness));
        out.push('\n');
    }
    out
}

/// Seeds a fresh store with one sealed entry and returns the harness.
struct Harness {
    store: Store,
    dir: std::path::PathBuf,
    mtm: Mtm,
    path: std::path::PathBuf,
    clean_bytes: Vec<u8>,
    clean_rendering: String,
}

impl Harness {
    fn new(tag: &str) -> Harness {
        let dir = std::env::temp_dir().join(format!("tfs-corrupt-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).expect("store opens");
        let mtm = x86t_elt();
        let (suite, _) = cached(&store, &mtm, "sc_per_loc", &opts(), 2).expect("seeds");
        let path = store.entry_path(suite_fingerprint(&mtm, "sc_per_loc", &opts()));
        let clean_bytes = std::fs::read(&path).expect("sealed entry exists");
        Harness {
            store,
            dir,
            mtm,
            path,
            clean_rendering: render(&suite),
            clean_bytes,
        }
    }

    /// Overwrites the entry with `bytes`, then asserts the cache layer
    /// detects the damage, rebuilds, and serves the correct suite.
    fn assert_detected_and_rebuilt(&self, bytes: &[u8], what: &str) {
        std::fs::write(&self.path, bytes).expect("plants damage");
        let (suite, status) =
            cached(&self.store, &self.mtm, "sc_per_loc", &opts(), 2).expect("rebuild succeeds");
        assert!(
            matches!(status, CacheStatus::Rebuilt { .. }),
            "{what}: expected a rebuild, got {status:?}"
        );
        assert_eq!(
            render(&suite),
            self.clean_rendering,
            "{what}: rebuilt suite must match the clean one"
        );
        // The rebuild resealed a valid entry: the next read is a hit.
        let (_, status) =
            cached(&self.store, &self.mtm, "sc_per_loc", &opts(), 2).expect("post-rebuild read");
        assert!(status.is_hit(), "{what}: reseal must restore the entry");
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

#[test]
fn every_single_flipped_byte_is_detected() {
    let h = Harness::new("flip-sweep");
    // Reading a damaged entry directly must error for *every* position
    // (the whole file is covered by header, record, or trailer
    // checksums); the cheap direct read makes an exhaustive sweep
    // affordable.
    let fp = suite_fingerprint(&h.mtm, "sc_per_loc", &opts());
    for at in 0..h.clean_bytes.len() {
        let mut bytes = h.clean_bytes.clone();
        bytes[at] ^= 0x40;
        std::fs::write(&h.path, &bytes).expect("plants damage");
        let outcome = h.store.open_suite(fp).and_then(|r| {
            for record in r {
                record?;
            }
            Ok(())
        });
        assert!(outcome.is_err(), "flip at byte {at} went undetected");
    }
    // Restore so the harness drop leaves a consistent directory.
    std::fs::write(&h.path, &h.clean_bytes).expect("restores");
}

proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(24))]
    #[test]
    fn flipped_bytes_are_rebuilt_not_served(at in 0usize..4096, bit in 0u8..8) {
        let h = Harness::new("flip");
        let at = at % h.clean_bytes.len();
        let mut bytes = h.clean_bytes.clone();
        bytes[at] ^= 1 << bit;
        h.assert_detected_and_rebuilt(&bytes, &format!("bit {bit} of byte {at}"));
    }

    #[test]
    fn truncation_is_rebuilt_not_served(cut in 0usize..4096) {
        let h = Harness::new("trunc");
        let cut = cut % h.clean_bytes.len();
        h.assert_detected_and_rebuilt(&h.clean_bytes[..cut], &format!("truncation at {cut}"));
    }
}

#[test]
fn stale_format_versions_are_rebuilt_not_served() {
    let h = Harness::new("version");
    // Bytes 8..12 hold the little-endian format version, right after the
    // 8-byte magic. A future (or ancient) version must be refused before
    // any structure is trusted, then rebuilt.
    let mut bytes = h.clean_bytes.clone();
    let stale = (transform_store::FORMAT_VERSION + 1).to_le_bytes();
    bytes[8..12].copy_from_slice(&stale);
    let fp = suite_fingerprint(&h.mtm, "sc_per_loc", &opts());
    std::fs::write(&h.path, &bytes).expect("plants version skew");
    match h.store.open_suite(fp) {
        Err(transform_store::StoreError::Version { found }) => {
            assert_eq!(found, transform_store::FORMAT_VERSION + 1);
        }
        Err(other) => panic!("expected a version error, got {other}"),
        Ok(_) => panic!("expected a version error, got a reader"),
    }
    h.assert_detected_and_rebuilt(&bytes, "stale version");

    // The previous format's own layout: its entry header carried two
    // more `EntryMeta` booleans (identity remaps, symmetry reduction)
    // after `allow_rmw`. Read as the current layout, those bytes would
    // shift every later header field — so the version must be refused
    // before the header is decoded at all.
    let previous = transform_store::FORMAT_VERSION - 1;
    let old = previous_layout(&h.clean_bytes, previous);
    std::fs::write(&h.path, &old).expect("plants the previous layout");
    match h.store.open_suite(fp) {
        Err(transform_store::StoreError::Version { found }) => assert_eq!(found, previous),
        Err(other) => panic!("expected a version error, got {other}"),
        Ok(_) => panic!("expected a version error, got a reader"),
    }
    h.assert_detected_and_rebuilt(&old, "previous format version");
}

/// Re-encodes a sealed entry in the previous format's layout: `version`
/// in the version field, the two removed booleans (identity remaps off,
/// symmetry reduction on) spliced into the header after `allow_rmw`,
/// and the header length and checksum recomputed so that only the
/// version and the layout are stale.
fn previous_layout(clean: &[u8], version: u32) -> Vec<u8> {
    use transform_store::codec::{Dec, Enc, Fnv64};
    let (magic, rest) = clean.split_at(8);
    let mut d = Dec::new(&rest[4..]);
    let header_len = d.size().expect("header length");
    // The varint's own width: re-encode it.
    let mut len_bytes = Enc::new();
    len_bytes.size(header_len);
    let header_at = 4 + len_bytes.into_bytes().len();
    let header = &rest[header_at..header_at + header_len];
    let tail = &rest[header_at + header_len + 8..]; // past the header checksum

    // Decode the header fields up to `allow_rmw` and re-encode them to
    // learn where the two extra booleans go.
    let mut d = Dec::new(header);
    let mut prefix = Enc::new();
    prefix.u64(d.u64().expect("fingerprint hi"));
    prefix.u64(d.u64().expect("fingerprint lo"));
    prefix.string(&d.string().expect("mtm"));
    prefix.string(&d.string().expect("axiom"));
    prefix.size(d.size().expect("bound"));
    let capped = d.boolean().expect("max_threads tag");
    prefix.boolean(capped);
    if capped {
        prefix.size(d.size().expect("max_threads"));
    }
    prefix.boolean(d.boolean().expect("allow_fences"));
    prefix.boolean(d.boolean().expect("allow_rmw"));
    let prefix = prefix.into_bytes();
    assert_eq!(&header[..prefix.len()], prefix.as_slice());
    let mut old_header = prefix.clone();
    old_header.extend_from_slice(&[0, 1]);
    old_header.extend_from_slice(&header[prefix.len()..]);

    let mut e = Enc::new();
    e.raw(magic);
    e.u32(version);
    e.size(old_header.len());
    e.raw(&old_header);
    let mut checksum = Fnv64::new();
    checksum.update(magic);
    checksum.update(&version.to_le_bytes());
    checksum.update(&old_header);
    e.u64(checksum.finish());
    e.raw(tail);
    e.into_bytes()
}

#[test]
fn garbage_files_are_rebuilt_not_served() {
    let h = Harness::new("garbage");
    h.assert_detected_and_rebuilt(b"definitely not a suite", "garbage file");
    h.assert_detected_and_rebuilt(&[], "empty file");
}
