//! # TransForm — memory transistency models, formalized
//!
//! A Rust reproduction of *“TransForm: Formally Specifying Transistency
//! Models and Synthesizing Enhanced Litmus Tests”* (Hossain, Trippel,
//! Martonosi — ISCA 2020).
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`core`](mod@crate::core) — the MTM vocabulary (events, candidate
//!   executions, derived relations), the axiom engine, and the MTM spec DSL.
//! * [`synth`] — bounded synthesis of enhanced litmus
//!   tests (ELTs): candidate enumeration, spanning-set pruning, minimality
//!   under relaxation, and canonical deduplication.
//! * [`x86`] — the `x86-TSO` consistency and `x86t_elt`
//!   transistency models, a reconstructed COATCheck suite, and the §VI-B
//!   comparison tool.
//! * [`litmus`] — classic MCM litmus tests and the
//!   MCM-test → ELT enhancement of the paper's Fig. 2.
//! * [`sim`] — an operational x86-TSO + virtual-memory
//!   reference machine: exhaustive ELT-program exploration, conformance
//!   checking (observed ⊆ permitted), and injectable transistency bugs
//!   such as the AMD `INVLPG` erratum from the paper's introduction.
//! * [`par`] — the parallel synthesis orchestrator:
//!   sharded enumeration over worker threads with work stealing and
//!   deterministic merging, byte-identical to the sequential engine.
//! * [`store`] — the persistent content-addressed suite store: a
//!   versioned binary codec, an in-memory shard spool sealed
//!   atomically, checksum-validated streaming reads, and the cache
//!   policy.
//! * [`relational`] — a Kodkod-style bounded relational model finder,
//!   with incremental shared-solver sessions.
//! * [`tsat`] — the CDCL SAT solver underneath it, solving under
//!   assumptions with clause retention across calls.
//!
//! # Quickstart
//!
//! ```
//! use transform::core::figures;
//! use transform::x86::x86t_elt;
//!
//! // The store-buffering ELT of the paper's Fig. 2b is permitted...
//! let elt = figures::fig2b_sb_elt();
//! let mtm = x86t_elt();
//! assert!(mtm.permits(&elt).is_permitted());
//!
//! // ...but the aliased variant of Fig. 2c is forbidden.
//! let aliased = figures::fig2c_sb_elt_aliased();
//! assert!(!mtm.permits(&aliased).is_permitted());
//! ```

pub use relational;
pub use transform_core as core;
pub use transform_litmus as litmus;
pub use transform_par as par;
pub use transform_sim as sim;
pub use transform_store as store;
pub use transform_synth as synth;
pub use transform_x86 as x86;
pub use tsat;
