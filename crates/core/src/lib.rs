//! # nassim
//!
//! The facade crate: end-to-end pipelines assembling the NAssim
//! components (paper Figure 1) behind a small API.
//!
//! * [`pipeline`] — the **VDM construction phase**: run a vendor parser
//!   over manual pages, audit CLI syntax, derive and validate the
//!   hierarchy, and assemble the validated VDM with a Table-4 style
//!   construction report.
//! * [`modelzoo`] — the **VDM-UDM mapping phase**'s encoders: pre-train
//!   the SBERT-like and SimCSE-like substitutes on a generic
//!   sentence-matching corpus, and domain-adapt NetBERT from labelled
//!   alignments.
//! * [`deviceize`] — build a simulated-device model from a catalog and
//!   vendor style, for §5.3 live validation.
//!
//! Sub-crates are re-exported under their short names, so downstream
//! users depend on `nassim` alone.

pub mod artifacts;
pub mod crash;
pub mod deviceize;
pub mod modelzoo;
pub mod pipeline;

pub use nassim_cgm as cgm;
pub use nassim_corpus as corpus;
pub use nassim_datasets as datasets;
pub use nassim_device as device;
pub use nassim_diag as diag;
pub use nassim_html as html;
pub use nassim_mapper as mapper;
pub use nassim_nlp as nlp;
pub use nassim_parser as parser;
pub use nassim_syntax as syntax;
pub use nassim_validator as validator;

pub use artifacts::{
    assimilate_incremental, corpus_key, ArtifactStore, StoreStats, MAX_STORE_BYTES,
};
pub use crash::{
    append_record, atomic_write, clean_orphans, decide_crash, global_crash_plan, orphan_count,
    CrashPlan, CrashPoint, PersistOp,
};
pub use pipeline::{assimilate, assimilate_with, Assimilation};
