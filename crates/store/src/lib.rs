//! `transform-store` — the persistent, content-addressed suite store.
//!
//! The TransForm paper's synthesis runs took up to a week per
//! instruction bound; this crate makes their results durable. A
//! synthesized per-axiom suite is written once into a store directory
//! and addressed by a [`Fingerprint`] of everything that determines its
//! content — the MTM's canonical spec text, the target axiom, the
//! instruction bound, and the enumeration/backend options — so any
//! later `synthesize`, `compare`, or `fig9` invocation with the same
//! inputs streams the sealed artifact instead of resynthesizing.
//!
//! The moving parts:
//!
//! * [`codec`] — a versioned binary encoding for suite records
//!   (program + witness execution + violated axioms) and work
//!   statistics, round-tripping exactly: a decoded witness prints
//!   byte-identically under [`transform_litmus::format::print_elt`].
//! * [`fingerprint`] — the content-address of a synthesis run.
//! * [`store`] — the on-disk format: parallel workers hand retired
//!   shards to an in-memory spool ([`store::PendingSuite`] implements
//!   [`transform_par::SuiteSink`]), the seal encodes the records in
//!   plan-index order and renames the canonical entry into place, and
//!   [`store::SuiteReader`] iterates a sealed suite record-by-record
//!   behind checksum validation.
//! * [`journal`] — synthesis runs as durable artifacts: a checksummed
//!   binary journal per run (manifest + timestamped pipeline events)
//!   written alongside the sealed suites, the substrate for
//!   `transform runs` and the `transform top` live view.
//! * [`index`] — the advisory entry index (fingerprint → key metadata),
//!   rewritten atomically on every seal, so `query`/`export` filter
//!   entries without opening each header; a missing or stale index
//!   falls back to the full scan.
//! * [`tier`] — the caching policy: a [`CacheTier`] abstraction over
//!   "places sealed bytes live", and [`TieredCache`], whose one
//!   [`TieredCache::serve`] call serves sealed entries, layers an
//!   optional shared remote tier behind the local directory
//!   (read-through population, push-on-seal), streams cold runs in, and
//!   rebuilds (never serves) corrupt, truncated, or version-mismatched
//!   files.
//! * [`remote`] — the dependency-free HTTP/1.1 client for a
//!   `transform serve` endpoint ([`HttpTier`]), the remote half of a
//!   shared cache.
//!
//! # Examples
//!
//! ```
//! use transform_core::spec::parse_mtm;
//! use transform_par::Run;
//! use transform_store::{Store, TieredCache};
//! use transform_synth::SynthOptions;
//!
//! let mtm = parse_mtm(
//!     "mtm demo {
//!        axiom sc_per_loc: acyclic(rf | co | fr | po_loc)
//!      }",
//! ).expect("spec parses");
//! let mut opts = SynthOptions::new(4);
//! opts.enumeration.allow_fences = false;
//! opts.enumeration.allow_rmw = false;
//! let dir = std::env::temp_dir().join(format!("tfs-doc-{}", std::process::id()));
//! // A local-only cache: no remote tier behind the store directory.
//! let cache = TieredCache::new(Store::open(&dir).expect("store opens"));
//! let run = Run::new(&mtm, &["sc_per_loc"], &opts, 2);
//!
//! let cold = cache.serve(&run).expect("synthesizes");
//! let warm = cache.serve(&run).expect("reads");
//! assert!(!cold["sc_per_loc"].1.is_hit());
//! assert!(warm["sc_per_loc"].1.is_hit());
//! assert_eq!(cold["sc_per_loc"].0.elts.len(), warm["sc_per_loc"].0.elts.len());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![deny(missing_docs)]

pub mod codec;
pub mod fingerprint;
pub mod index;
pub mod journal;
pub mod remote;
pub mod store;
pub mod tier;

pub use codec::{CodecError, FORMAT_VERSION};
pub use fingerprint::{suite_fingerprint, Fingerprint};
pub use index::{IndexEntry, INDEX_FILE};
pub use journal::{
    decode_run, decode_run_list, encode_run, encode_run_list, fresh_run_id, RunAxiom, RunJournal,
    RunManifest, RunOutcome, RUNS_FILE,
};
pub use remote::HttpTier;
pub use store::{read_suite, EntryMeta, PendingSuite, Store, StoreError, SuiteReader};
pub use tier::{CacheStatus, CacheTier, TieredCache};
