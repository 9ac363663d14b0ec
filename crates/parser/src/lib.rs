//! # nassim-parser
//!
//! The NAssim Parser Framework (§4 of the paper): per-vendor manual
//! parsers that extract the vendor-independent corpus format of Table 3
//! from HTML manual pages, developed under a Test-Driven Development
//! workflow.
//!
//! Architecture (Figure 2):
//!
//! * [`framework`] — the [`VendorParser`] trait (the `Parser` base class),
//!   the TDD harness [`framework::run_parser`] that applies the
//!   Appendix-B validation tests to every parsed entry and produces the
//!   two-part violation report, and [`framework::ParsedPage`];
//! * [`extract`] — shared extraction components the vendor parsers
//!   compose: span-marked CLI text reconstruction, section slicing,
//!   labelled-definition parsing;
//! * [`cirrus`], [`helix`], [`norsk`], [`h4c`] — the four
//!   `Parser_<vendor>` implementations, each configured by a small table
//!   of CSS class names (the paper's ~50-LoC-per-vendor adaption cost).
//!
//! ```
//! use nassim_datasets::{catalog::Catalog, manualgen, style};
//! use nassim_parser::{framework::run_parser, helix::ParserHelix};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cat = Catalog::base();
//! let manual = manualgen::generate(
//!     &style::vendor("helix")?, &cat, &Default::default());
//! let run = run_parser(
//!     &ParserHelix::new(),
//!     manual.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
//! );
//! assert!(run.pages.len() > 70);
//! # Ok(()) }
//! ```

pub mod cirrus;
pub mod extract;
pub mod framework;
pub mod h4c;
pub mod helix;
pub mod norsk;

pub use framework::{
    ensure_parsable, fold_page_records, page_key, page_record, page_records, run_parser,
    run_parser_with, DefectRecord, PageDisposition, PageRecord, ParseRun, ParsedPage, Quarantined,
    QuarantineReason, TddReport, VendorParser,
};

/// Vendor names a parser is registered for.
pub const KNOWN_VENDORS: [&str; 4] = ["cirrus", "helix", "norsk", "h4c"];

/// The full-strength parser for a vendor name.
///
/// Unknown names return [`NassimError::UnknownVendor`](nassim_diag::NassimError::UnknownVendor) carrying the
/// registered vendor set, so callers can print an actionable message.
pub fn parser_for(vendor: &str) -> Result<Box<dyn VendorParser>, nassim_diag::NassimError> {
    match vendor {
        "cirrus" => Ok(Box::new(cirrus::ParserCirrus::new())),
        "helix" => Ok(Box::new(helix::ParserHelix::new())),
        "norsk" => Ok(Box::new(norsk::ParserNorsk::new())),
        "h4c" => Ok(Box::new(h4c::ParserH4c::new())),
        _ => Err(nassim_diag::NassimError::UnknownVendor {
            vendor: vendor.to_string(),
            known: KNOWN_VENDORS.iter().map(|v| v.to_string()).collect(),
        }),
    }
}
