//! # nassim-validator
//!
//! The NAssim Validator (§5 of the paper): three escalating validation
//! stages that turn the *preliminary* VDM produced by the Parser
//! Framework into a *validated* VDM, surfacing every manual defect for
//! expert review along the way.
//!
//! * [`syntax_stage`] — **formal syntax validation** (§5.1):
//!   command-level auditing of every `CLIs` field against the BNF-derived
//!   template grammar, with classified diagnoses and candidate fixes.
//! * [`hierarchy`] — **model hierarchy derivation and validation**
//!   (§5.2): inter-command-level. Derives the view tree from `Examples`
//!   snippets via indentation tracking + CGM instance–template matching
//!   with majority voting, or ingests explicit context paths for
//!   Nokia-style manuals; flags ambiguous views.
//! * [`vdm_build`] — assembles the semantics-enhanced VDM tree from the
//!   derivation result.
//! * [`empirical`] — **validation with empirical data** (§5.3):
//!   snippet-level. Replays configuration files from running devices
//!   against the VDM (Figure 8), and drives a live (simulated) device
//!   over TCP with generated instances for templates the empirical data
//!   never exercises, read-back-checking each one.
//! * [`report`] — the per-vendor construction report behind Table 4.

pub mod empirical;
pub mod hierarchy;
pub mod report;
pub mod syntax_stage;
pub mod vdm_build;

pub use empirical::{
    validate_config_files, validate_on_device, validate_on_device_with, DevicePush,
    DeviceValidation, EmpiricalReport, SkippedNode,
};
pub use hierarchy::{
    compile_graphs, compile_page_graphs, derive_hierarchy, derive_hierarchy_cached,
    evidence_fields_key, graph_key, graph_key_of, Derivation, EvidenceCache, GraphCache,
    PageGraphs,
};
pub use report::VdmConstructionReport;
pub use syntax_stage::{
    audit_corpus, audit_misses, audit_page, fold_page_syntax, syntax_key, PageSyntax, SyntaxAudit,
    SyntaxFailure,
};
pub use vdm_build::build_vdm;
