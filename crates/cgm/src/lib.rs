//! # nassim-cgm
//!
//! CLI Graph Models (CGM) — the finite-state-machine representation of CLI
//! command templates that powers hierarchy derivation and empirical
//! validation (§5.2, Appendix C of the paper).
//!
//! A CGM is a DAG with a single root and a single sink. Keyword nodes
//! require exact text matching; parameter nodes require *type* matching
//! (`string`, `int`, `ipv4-addr`, …). A CLI instance matches a template
//! iff some root→sink path matches its token sequence (Figure 6).
//!
//! Modules:
//!
//! * [`types`] — the parameter type system: inference from placeholder
//!   names, value checking, and value sampling for instance generation;
//! * [`graph`] — CGM construction from the nested template structure
//!   (Algorithms 2–3; see module docs for the equivalence argument);
//! * [`matching`] — instance–template matching (Algorithms 1 & 4), plus a
//!   complete matcher that also returns parameter bindings;
//! * [`generate`] — path enumeration and parameter instantiation, used to
//!   produce test configurations for commands unused in empirical data
//!   (§5.3).
//!
//! ```
//! use nassim_cgm::{CliGraph, matching::is_cli_match};
//! use nassim_syntax::parse_template;
//!
//! let struc = parse_template(
//!     "filter-policy { <acl-number> | ip-prefix <ip-prefix-name> | acl-name <acl-name> } { import | export }",
//! ).unwrap();
//! let graph = CliGraph::build(&struc);
//! assert!(is_cli_match("filter-policy acl-name acl1 export", &graph));
//! assert!(!is_cli_match("filter-policy import", &graph));
//! ```

pub mod generate;
pub mod graph;
pub mod matching;
pub mod types;

pub use graph::{CgmNode, CgmNodeId, CliGraph};
pub use matching::{is_cli_match, is_tokens_match, match_with_bindings, MatchOutcome};
pub use types::ParamType;
