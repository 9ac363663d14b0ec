//! Content-addressed stage artifacts and incremental re-assimilation.
//!
//! Every stage of the construction pipeline produces an immutable
//! artifact that is a pure function of its inputs:
//!
//! | stage artifact                    | content key                         |
//! |-----------------------------------|-------------------------------------|
//! | [`PageRecord`] (parse, per page)  | [`nassim_parser::page_key`]: FNV-1a over vendor, URL, budget and the HTML's [`nassim_corpus::digest64`] |
//! | [`PageSyntax`] (audit, per page)  | [`nassim_validator::syntax_key`] (FNV-1a) |
//! | compiled CGM graphs (per page)    | [`nassim_validator::graph_key`] (FNV-1a) |
//! | hierarchy evidence (per page)     | corpus template fingerprint + page fields (FNV-1a) |
//! | derivation (corpus, in memory)    | FNV-1a over the page count, the ordered [`nassim_validator::graph_key`]s and the ordered [`nassim_validator::evidence_fields_key`]s |
//! | leaf embeddings (per UDM leaf)    | [`nassim_mapper::leaf_embedding_key`] (FNV-1a) |
//!
//! The derivation key covers exactly what a derivation is a function
//! of, so a revision that only rewrites prose (function descriptions,
//! parameter definitions) replays the cached derivation, while an edit
//! to a CLI, working view, example, context path or `Enters:` marker, or
//! a page added or removed, re-derives through the graph and evidence
//! caches. The per-page keys the syntax and hierarchy stages read are
//! memoized by page identity: a clean page is the same
//! `Arc<ParsedPage>` as in the previous run, so it is hashed once, not
//! once per revision. The memo holds only the most recent run's pages.
//!
//! The VDM build is not cached: it is a cheap pure function of the
//! parsed pages and the derivation. Corpus entries are shared, not
//! copied — the VDM corpus holds the same `Arc<CorpusEntry>` as each
//! parsed page — so a rebuild costs the node tree, not the manual.
//! Per-section checksums stay FNV-1a.
//!
//! The [`ArtifactStore`] keeps them behind `Arc`s so re-assimilating an
//! edited manual shares every clean page's artifacts with the previous
//! run, and [`assimilate_incremental`] re-parses only dirty pages,
//! re-audits only changed pages, recompiles only changed CGM graphs and
//! — through [`EmbeddingCache`] — re-embeds only unseen leaf contexts.
//! The differential guarantee: the incremental result is **bit-for-bit
//! identical** to a cold [`crate::assimilate_with`] run on the same
//! pages (VDM, diagnostics, mapper rankings; wall-clock stats are the
//! only exception). `tests/incremental_differential.rs` enforces this
//! property-style. The stages are individually addressable
//! ([`ArtifactStore::parse_stage`] / [`ArtifactStore::syntax_stage`] /
//! [`ArtifactStore::hierarchy_stage`] / [`ArtifactStore::build_stage`])
//! so a caller that must persist between stages — the `nassim-serve`
//! job journal — runs exactly the pipeline [`assimilate_incremental`]
//! composes.
//!
//! # Durability
//!
//! Stores persist as versioned JSON ([`ArtifactStore::save`] /
//! [`ArtifactStore::load`]), **crash-consistently**: the bytes are
//! staged in a sibling temp file, fsynced, atomically renamed over the
//! destination, and the directory is fsynced ([`crate::atomic_write`])
//! — a kill at any byte leaves either the old committed store or the
//! new one, never a tear, at worst plus an orphaned `*.tmp.*` sibling
//! that the next successful save sweeps and loads ignore. Six
//! sections are persisted — parse records, syntax audits, compiled CGM
//! graph sources, hierarchy evidence, the embedding cache and the ANN
//! indexes — each guarded by an FNV-1a checksum in the `checksums`
//! footer. The in-memory derivation is the only cached artifact not
//! persisted directly; it is reconstructed from the cached graphs and
//! evidence, which is what makes a reload cheap.
//!
//! A magic + schema-version header guards against foreign files (the
//! version history is on `SCHEMA_VERSION`; a store from an older
//! version is the typed [`NassimError::ArtifactOutdated`]), loads
//! are size-capped ([`MAX_STORE_BYTES`]) against adversarial inputs,
//! and any corruption surfaces as the typed
//! [`NassimError::ArtifactCorrupt`] rather than a panic or a silently
//! empty store. [`ArtifactStore::load_lossy`] degrades instead of
//! failing: a section whose checksum does not match its bytes is a
//! torn or tampered write and is dropped whole (its entries are *not*
//! trusted), while a store whose checksum footer is missing entirely
//! falls back to per-entry salvage — either way each loss is a
//! [`Stage::Internal`] diagnostic and every loss is only a future
//! cache miss, re-derived from source.

use crate::crash::{atomic_write, CrashPlan};
use crate::pipeline::{finish_assimilation, keyed_pages, Assimilation};
use nassim_corpus::{fnv1a_str, Fnv1a};
use nassim_diag::NassimError;
use nassim_diag::{Diagnostic, Stage};
use nassim_html::IngestBudget;
use nassim_mapper::{AnnCache, EmbeddingCache, Mapper, RetrievalMode};
use nassim_parser::{
    fold_page_records, page_records, PageRecord, ParseRun, ParsedPage, VendorParser,
};
use nassim_validator::hierarchy::Derivation;
use nassim_validator::syntax_stage::{PageSyntax, SyntaxAudit};
use nassim_validator::vdm_build::VdmBuild;
use nassim_validator::{
    audit_page, build_vdm, derive_hierarchy_cached, evidence_fields_key, fold_page_syntax,
    graph_key, syntax_key, EvidenceCache, GraphCache,
};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// First line of defence against foreign files: a store that does not
/// open with this magic is rejected before any field is interpreted.
const MAGIC: &str = "NASSIM-ARTIFACTS";

/// Bumped on any change to the persisted layout or to how a persisted
/// key is computed; never a best-effort partial load. An older version
/// is the typed [`NassimError::ArtifactOutdated`] (its keys would all
/// miss, so a caller that can rebuild starts cold); a newer or unknown
/// one is [`NassimError::ArtifactCorrupt`].
///
/// | version | change |
/// |---|---|
/// | v1 | `pages` and `syntax` sections |
/// | v2 | `graphs` and `evidence` sections, per-section `checksums` footer |
/// | v3 | `ann` section (sub-linear retrieval indexes keyed by pooled-corpus hash) |
/// | v4 | page keys hash the HTML with [`nassim_corpus::digest64`] instead of FNV-1a |
const SCHEMA_VERSION: i64 = 4;

/// Ceiling on the bytes a store load will read. A corrupt length field
/// cannot exist in JSON, but a multi-GB file (disk corruption, an
/// adversarial artifact, the wrong path) must fail typed before any
/// allocation proportional to its size.
pub const MAX_STORE_BYTES: u64 = 256 * 1024 * 1024;

/// The persisted sections, in on-disk order. Every section carries an
/// FNV-1a checksum of its serialized bytes in the `checksums` footer.
const SECTIONS: [&str; 6] = ["pages", "syntax", "graphs", "evidence", "embeddings", "ann"];

/// Cache traffic counters for the store-level artifact maps. The graph
/// and embedding caches carry their own counters ([`GraphCache`],
/// [`EmbeddingCache`]); together these let benches and differential
/// tests assert that clean artifacts were actually reused rather than
/// silently recomputed.
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    pub page_hits: usize,
    pub page_misses: usize,
    pub syntax_hits: usize,
    pub syntax_misses: usize,
    pub derived_hits: usize,
    pub derived_misses: usize,
}

/// Content-addressed store of pipeline stage artifacts for one vendor.
///
/// All artifacts are `Arc`-shared: a lookup hit costs a reference-count
/// bump, and artifacts stay alive for as long as any assimilation result
/// or mapper references them, independent of the store's own lifetime.
#[derive(Default)]
pub struct ArtifactStore {
    /// Per-page parse artifacts, keyed by [`nassim_parser::page_key`].
    pages: HashMap<u64, Arc<PageRecord>>,
    /// Per-page syntax audits, keyed by [`nassim_validator::syntax_key`].
    syntax: HashMap<u64, Arc<PageSyntax>>,
    /// Per-page compiled CGM graphs (persisted by their CLI sources).
    pub graphs: GraphCache,
    /// Per-page hierarchy evidence, keyed against the whole-corpus
    /// template fingerprint.
    pub evidence: EvidenceCache,
    /// Normalized leaf-context embeddings for mapper construction.
    pub embeddings: EmbeddingCache,
    /// Built sub-linear retrieval indexes (quantized corpus + IVF), keyed
    /// by the pooled-corpus hash: a UDM or embedder change changes the
    /// hash, so a stale index is never served.
    pub ann: AnnCache,
    /// The last hierarchy derivation, keyed by [`derivation_key`]
    /// (in-memory only; rebuilt from the graph + evidence caches after a
    /// reload). The VDM build is not cached: it shares every entry with
    /// the parsed pages, so a rebuild costs little more than a replay.
    derived: Option<(u64, Derivation)>,
    /// Per-page keys of the most recent run's parsed pages.
    keys: KeyMemo,
    pub stats: StoreStats,
}

/// The per-page content keys the syntax and hierarchy stages read.
#[derive(Clone, Copy)]
struct PageKeys {
    /// [`syntax_key`]: URL + CLI forms.
    syntax: u64,
    /// [`graph_key`]: CLI forms.
    graph: u64,
    /// [`evidence_fields_key`]: the page-local evidence inputs.
    evidence: u64,
}

impl PageKeys {
    fn of(page: &ParsedPage) -> PageKeys {
        PageKeys {
            syntax: syntax_key(page),
            graph: graph_key(page),
            evidence: evidence_fields_key(page),
        }
    }
}

/// [`PageKeys`] memoized by page identity: each `Arc<ParsedPage>` is
/// hashed once, and a clean page — the same `Arc`, shared from its
/// cached [`PageRecord`] at the same position — costs a pointer compare
/// after that. Holding the `Arc` pins its address, and a page behind an
/// `Arc` is never mutated, so an identity match is always a content
/// match. The memo holds exactly the pages of the most recent run. A
/// page added or removed shifts the pages after it, which are re-hashed;
/// such a revision re-derives the hierarchy anyway.
#[derive(Default)]
struct KeyMemo {
    pages: Vec<Arc<ParsedPage>>,
    keys: Vec<PageKeys>,
}

impl KeyMemo {
    /// The keys of `pages`, in order; afterwards the memo holds `pages`.
    fn keys_for(&mut self, pages: &[Arc<ParsedPage>]) -> &[PageKeys] {
        let keys = pages
            .iter()
            .enumerate()
            .map(|(i, page)| match (self.pages.get(i), self.keys.get(i)) {
                (Some(old), Some(&keys)) if Arc::ptr_eq(old, page) => keys,
                _ => PageKeys::of(page),
            })
            .collect();
        self.pages = pages.to_vec();
        self.keys = keys;
        &self.keys
    }
}

/// In-memory key of a cached [`Derivation`]: FNV over the page count,
/// the ordered graph keys (the template fingerprint) and the ordered
/// page-local evidence digests — everything a derivation is a function
/// of. Prose, parameter definitions and URLs do not participate, so a
/// revision that only rewrites them replays the cached derivation.
fn derivation_key(keys: &[PageKeys]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(keys.len());
    for k in keys {
        h.write_u64(k.graph);
    }
    for k in keys {
        h.write_u64(k.evidence);
    }
    h.finish()
}

impl ArtifactStore {
    pub fn new() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// Number of cached parse artifacts.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of cached per-page syntax audits.
    pub fn syntax_count(&self) -> usize {
        self.syntax.len()
    }

    /// Number of parsed pages whose per-page keys are memoized: at most
    /// the parsed-page count of the most recent run.
    pub fn key_memo_len(&self) -> usize {
        self.keys.pages.len()
    }

    /// Persist the store as versioned, checksummed JSON via
    /// [`crate::atomic_write`]: a kill at any byte leaves the
    /// previously committed file intact. Only content-addressed
    /// artifacts are written — never hit/miss statistics — so saving
    /// and reloading cannot change any future assimilation result.
    ///
    /// Honours the process-wide `NASSIM_CRASH` plan
    /// ([`CrashPlan::global`]); tests inject explicit plans through
    /// [`ArtifactStore::save_with`].
    pub fn save(&self, path: &Path) -> Result<(), NassimError> {
        self.save_with(path, CrashPlan::global())
    }

    /// [`ArtifactStore::save`] under an explicit [`CrashPlan`] (or none).
    pub fn save_with(&self, path: &Path, plan: Option<&CrashPlan>) -> Result<(), NassimError> {
        let sections: Vec<(String, Value)> = vec![
            ("pages".to_string(), keyed_map_to_value(&self.pages)),
            ("syntax".to_string(), keyed_map_to_value(&self.syntax)),
            ("graphs".to_string(), self.graphs.to_value()),
            ("evidence".to_string(), self.evidence.to_value()),
            ("embeddings".to_string(), self.embeddings.to_value()),
            ("ann".to_string(), self.ann.to_value()),
        ];
        let mut checksums: Vec<(String, Value)> = Vec::with_capacity(sections.len());
        for (name, section) in &sections {
            checksums.push((name.clone(), Value::Str(section_checksum(section)?)));
        }
        let mut fields: Vec<(String, Value)> = vec![
            ("magic".to_string(), Value::Str(MAGIC.to_string())),
            (
                "schema_version".to_string(),
                Value::Num(SCHEMA_VERSION as f64),
            ),
        ];
        fields.extend(sections);
        fields.push(("checksums".to_string(), Value::Obj(checksums)));
        let text =
            serde_json::to_string(&Value::Obj(fields)).map_err(|e| NassimError::Internal {
                context: format!("serializing artifact store: {e:?}"),
            })?;
        atomic_write(path, text.as_bytes(), plan)
    }

    /// Load a store saved by [`ArtifactStore::save`]. I/O failures are
    /// [`NassimError::Io`]; anything structurally wrong with the file —
    /// oversized, bad JSON, missing or wrong magic, unknown schema
    /// version, a section checksum that does not match its bytes, a
    /// field that does not deserialize — is
    /// [`NassimError::ArtifactCorrupt`].
    pub fn load(path: &Path) -> Result<ArtifactStore, NassimError> {
        let text = read_store_bounded(path)?;
        let corrupt = |reason: String| NassimError::ArtifactCorrupt {
            path: path.display().to_string(),
            reason,
        };
        let value: Value =
            serde_json::from_str(&text).map_err(|e| corrupt(format!("invalid JSON: {e:?}")))?;
        check_header(path, &value)?;
        let Some(Value::Obj(sums)) = value.get("checksums") else {
            return Err(corrupt("missing `checksums` footer".to_string()));
        };
        for name in SECTIONS {
            let Some(section) = value.get(name) else {
                return Err(corrupt(format!("missing `{name}` section")));
            };
            let Some(Value::Str(stored)) = sums.iter().find(|(k, _)| k == name).map(|(_, v)| v)
            else {
                return Err(corrupt(format!("missing checksum for section `{name}`")));
            };
            let actual = section_checksum(section)?;
            if *stored != actual {
                return Err(corrupt(format!(
                    "section `{name}` checksum mismatch (stored {stored}, actual {actual}): \
                     torn or tampered write"
                )));
            }
        }
        let pages = keyed_map_from_value(value.get("pages"), "pages").map_err(|e| corrupt(e.0))?;
        let syntax =
            keyed_map_from_value(value.get("syntax"), "syntax").map_err(|e| corrupt(e.0))?;
        let graphs = match value.get("graphs") {
            Some(v) => GraphCache::from_value(v).map_err(|e| corrupt(e.0))?,
            None => return Err(corrupt("missing `graphs` section".to_string())),
        };
        let evidence = match value.get("evidence") {
            Some(v) => EvidenceCache::from_value(v).map_err(|e| corrupt(e.0))?,
            None => return Err(corrupt("missing `evidence` section".to_string())),
        };
        let embeddings = match value.get("embeddings") {
            Some(v) => EmbeddingCache::from_value(v).map_err(|e| corrupt(e.0))?,
            None => return Err(corrupt("missing `embeddings` section".to_string())),
        };
        let ann = match value.get("ann") {
            Some(v) => AnnCache::from_value(v).map_err(|e| corrupt(e.0))?,
            None => return Err(corrupt("missing `ann` section".to_string())),
        };
        Ok(ArtifactStore {
            pages,
            syntax,
            graphs,
            evidence,
            embeddings,
            ann,
            derived: None,
            keys: KeyMemo::default(),
            stats: StoreStats::default(),
        })
    }

    /// Degraded-startup variant of [`ArtifactStore::load`], for
    /// warm-starting a long-running service from a damaged store
    /// instead of refusing to come up. Loss is reported, bounded, and
    /// safe:
    ///
    /// * a section whose checksum does not match its bytes is a torn
    ///   or tampered write — it is dropped **whole** (a tampered entry
    ///   can still parse, so entries of an unverified section are never
    ///   trusted) and surfaced as one [`Stage::Internal`] diagnostic;
    /// * a store with no `checksums` footer at all cannot be verified
    ///   section-wise and falls back to per-entry salvage, each dropped
    ///   entry its own diagnostic;
    /// * a salvaged loss is only ever a future cache miss — re-derived
    ///   from source, never trusted.
    ///
    /// Damage the header cannot absorb (unreadable or oversized file,
    /// invalid JSON, wrong magic, unknown schema version) still fails
    /// hard with [`NassimError::Io`] / [`NassimError::ArtifactCorrupt`]:
    /// with no trustworthy frame there is nothing to salvage. An older
    /// schema version is [`NassimError::ArtifactOutdated`], as in
    /// [`ArtifactStore::load`].
    pub fn load_lossy(path: &Path) -> Result<(ArtifactStore, Vec<Diagnostic>), NassimError> {
        let text = read_store_bounded(path)?;
        let corrupt = |reason: String| NassimError::ArtifactCorrupt {
            path: path.display().to_string(),
            reason,
        };
        let value: Value =
            serde_json::from_str(&text).map_err(|e| corrupt(format!("invalid JSON: {e:?}")))?;
        check_header(path, &value)?;

        let mut diagnostics = Vec::new();
        let mut warn = |message: String| {
            diagnostics.push(Diagnostic::warning(
                Stage::Internal,
                format!("artifact store `{}`: {message}", path.display()),
            ));
        };

        let sums = match value.get("checksums") {
            Some(Value::Obj(sums)) => Some(sums),
            Some(_) => {
                warn("`checksums` footer is not an object (sections unverifiable)".to_string());
                None
            }
            None => {
                warn("missing `checksums` footer (sections unverifiable)".to_string());
                None
            }
        };
        // With a footer present, a section either verifies (its bytes
        // are exactly what `save` wrote — entries are trustworthy) or
        // it is dropped whole. Without a footer nothing verifies and
        // per-entry salvage is the best remaining option.
        let mut verified = |name: &str| -> Option<bool> {
            let sums = sums?;
            let section = value.get(name)?;
            let stored = match sums.iter().find(|(k, _)| k == name).map(|(_, v)| v) {
                Some(Value::Str(s)) => s.clone(),
                _ => {
                    warn(format!("section `{name}` has no checksum; dropping it"));
                    return Some(false);
                }
            };
            match section_checksum(section) {
                Ok(actual) if actual == stored => Some(true),
                Ok(actual) => {
                    warn(format!(
                        "section `{name}` failed its integrity checksum \
                         (stored {stored}, actual {actual}): torn or tampered write; \
                         dropping the section"
                    ));
                    Some(false)
                }
                Err(_) => {
                    warn(format!(
                        "section `{name}` cannot be re-serialized for verification; dropping it"
                    ));
                    Some(false)
                }
            }
        };
        // None ⇒ unverifiable (no footer / section missing): salvage
        // entry-wise. Some(false) ⇒ verified torn: drop whole.
        let pages_ok = verified("pages");
        let syntax_ok = verified("syntax");
        let graphs_ok = verified("graphs");
        let evidence_ok = verified("evidence");
        let embeddings_ok = verified("embeddings");
        let ann_ok = verified("ann");

        let mut diag = |what: &str, detail: String| {
            diagnostics.push(Diagnostic::warning(
                Stage::Internal,
                format!(
                    "artifact store `{}`: dropped corrupt {what}: {detail}",
                    path.display()
                ),
            ));
        };
        let pages = match pages_ok {
            Some(false) => HashMap::new(),
            _ => keyed_map_from_value_lossy(value.get("pages"), "pages", &mut diag),
        };
        let syntax = match syntax_ok {
            Some(false) => HashMap::new(),
            _ => keyed_map_from_value_lossy(value.get("syntax"), "syntax", &mut diag),
        };
        let graphs = match (graphs_ok, value.get("graphs")) {
            (Some(false), _) => GraphCache::new(),
            (_, Some(v)) => {
                let (cache, errors) = GraphCache::from_value_lossy(v);
                for e in errors {
                    diag("graph entry", e);
                }
                cache
            }
            (_, None) => {
                diag(
                    "section",
                    "missing `graphs` section (starting empty)".to_string(),
                );
                GraphCache::new()
            }
        };
        let evidence = match (evidence_ok, value.get("evidence")) {
            (Some(false), _) => EvidenceCache::new(),
            (_, Some(v)) => {
                let (cache, errors) = EvidenceCache::from_value_lossy(v);
                for e in errors {
                    diag("evidence entry", e);
                }
                cache
            }
            (_, None) => {
                diag(
                    "section",
                    "missing `evidence` section (starting empty)".to_string(),
                );
                EvidenceCache::new()
            }
        };
        let embeddings = match (embeddings_ok, value.get("embeddings")) {
            (Some(false), _) => EmbeddingCache::new(),
            (_, Some(v)) => {
                let (cache, errors) = EmbeddingCache::from_value_lossy(v);
                for e in errors {
                    diag("embedding entry", e);
                }
                cache
            }
            (_, None) => {
                diag(
                    "section",
                    "missing `embeddings` section (starting empty)".to_string(),
                );
                EmbeddingCache::new()
            }
        };
        let ann = match (ann_ok, value.get("ann")) {
            (Some(false), _) => AnnCache::new(),
            (_, Some(v)) => {
                let (cache, errors) = AnnCache::from_value_lossy(v);
                for e in errors {
                    diag("ann index entry", e);
                }
                cache
            }
            (_, None) => {
                diag(
                    "section",
                    "missing `ann` section (starting empty)".to_string(),
                );
                AnnCache::new()
            }
        };
        Ok((
            ArtifactStore {
                pages,
                syntax,
                graphs,
                evidence,
                embeddings,
                ann,
                derived: None,
                keys: KeyMemo::default(),
                stats: StoreStats::default(),
            },
            diagnostics,
        ))
    }

    /// [`Mapper::dl`] through this store's embedding cache: only leaf
    /// contexts the store has never embedded (under `embedder_id`) touch
    /// the embedder, and the resulting mapper is bit-for-bit identical
    /// to an uncached build.
    pub fn mapper_dl(
        &mut self,
        udm: &nassim_corpus::Udm,
        embedder: Arc<dyn nassim_mapper::Embedder>,
        embedder_id: &str,
    ) -> Mapper {
        Mapper::dl_cached(udm, embedder, embedder_id, &mut self.embeddings)
    }

    /// [`ArtifactStore::mapper_dl`] plus a retrieval mode enabled through
    /// this store's `ann` cache: a warm start whose corpus hash matches a
    /// persisted index skips the quantization + k-means build entirely,
    /// and a corpus change simply misses (the fresh index replaces the
    /// stale entry at the next save).
    pub fn mapper_dl_sublinear(
        &mut self,
        udm: &nassim_corpus::Udm,
        embedder: Arc<dyn nassim_mapper::Embedder>,
        embedder_id: &str,
        mode: RetrievalMode,
    ) -> Mapper {
        let mut mapper = self.mapper_dl(udm, embedder, embedder_id);
        mapper.set_retrieval_mode_cached(mode, &mut self.ann);
        mapper
    }

    // -----------------------------------------------------------------
    // The staged pipeline. `assimilate_incremental` composes these
    // four; `nassim-serve`'s journaled submit path calls them one at a
    // time so it can persist the store and journal a stage record
    // between stages.
    // -----------------------------------------------------------------

    /// §4 parse stage against the store: hits resolve to the stored
    /// record; misses are parsed in one chunked, panic-isolated fan-out
    /// (the cold path's own mechanism) and inserted. Returns the fold
    /// plus the ordered per-page content keys (the preimage of
    /// [`corpus_key`], which names the whole revision).
    pub fn parse_stage<'a>(
        &mut self,
        parser: &dyn VendorParser,
        pages: impl IntoIterator<Item = (&'a str, &'a str)>,
        budget: &IngestBudget,
    ) -> Result<(ParseRun, Vec<u64>), NassimError> {
        let keyed = keyed_pages(parser.vendor(), pages, budget)?;
        let mut records: Vec<Option<Arc<PageRecord>>> = vec![None; keyed.len()];
        let mut missing: Vec<usize> = Vec::new();
        for (i, kp) in keyed.iter().enumerate() {
            match self.pages.get(&kp.key) {
                Some(rec) => {
                    self.stats.page_hits += 1;
                    records[i] = Some(rec.clone());
                }
                None => {
                    self.stats.page_misses += 1;
                    missing.push(i);
                }
            }
        }
        if !missing.is_empty() {
            let dirty: Vec<(&str, &str)> = missing
                .iter()
                .map(|&i| (keyed[i].url, keyed[i].html))
                .collect();
            let fresh = page_records(parser, &dirty, budget);
            for (&i, rec) in missing.iter().zip(fresh) {
                let rec = Arc::new(rec);
                self.pages.insert(keyed[i].key, rec.clone());
                records[i] = Some(rec);
            }
        }
        let records: Vec<Arc<PageRecord>> = records
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| {
                    // Unreachable: every index was a hit or in `missing`;
                    // keep a sound fallback instead of panicking.
                    Arc::new(nassim_parser::page_record(
                        parser,
                        keyed[i].url,
                        keyed[i].html,
                        budget,
                    ))
                })
            })
            .collect();
        let parse = fold_page_records(parser.vendor(), records.iter().map(|r| r.as_ref()));
        let page_keys = keyed.iter().map(|kp| kp.key).collect();
        Ok((parse, page_keys))
    }

    /// §5.1 syntax stage against the store: per successfully parsed
    /// page, keyed by URL + CLIs (memoized per page).
    pub fn syntax_stage(&mut self, parse: &ParseRun) -> SyntaxAudit {
        let keys = self.keys.keys_for(&parse.pages);
        let mut per_page: Vec<Arc<PageSyntax>> = Vec::with_capacity(parse.pages.len());
        for (page, k) in parse.pages.iter().zip(keys) {
            match self.syntax.get(&k.syntax) {
                Some(audit) => {
                    self.stats.syntax_hits += 1;
                    per_page.push(audit.clone());
                }
                None => {
                    self.stats.syntax_misses += 1;
                    let audit = Arc::new(audit_page(page));
                    self.syntax.insert(k.syntax, audit.clone());
                    per_page.push(audit);
                }
            }
        }
        fold_page_syntax(per_page.iter().map(|a| a.as_ref()))
    }

    /// §5.2 hierarchy stage against the store: the same page count,
    /// ordered graph keys and ordered page-local evidence digests
    /// (`derivation_key`) → replay the cached derivation; otherwise
    /// derive through the per-page graph and evidence caches (clean
    /// pages reuse compiled CGM graphs and collected evidence, including
    /// ones reloaded from disk). A replay reuses every page's graphs and
    /// evidence, and counts one hit per page in each cache. `page_keys`
    /// is unused, as in [`ArtifactStore::build_stage`]: a derivation does
    /// not depend on the HTML those keys hash.
    pub fn hierarchy_stage(&mut self, parse: &ParseRun, _page_keys: &[u64]) -> Derivation {
        let keys = self.keys.keys_for(&parse.pages);
        let dkey = derivation_key(keys);
        if let Some((k, derivation)) = &self.derived {
            if *k == dkey {
                self.stats.derived_hits += 1;
                self.graphs.hits += keys.len();
                self.evidence.hits += keys.len();
                return derivation.clone();
            }
        }
        self.stats.derived_misses += 1;
        let graph_keys: Vec<u64> = keys.iter().map(|k| k.graph).collect();
        let derivation = derive_hierarchy_cached(
            &parse.pages,
            &graph_keys,
            &mut self.graphs,
            &mut self.evidence,
        );
        self.derived = Some((dkey, derivation.clone()));
        derivation
    }

    /// VDM build stage: a pure function of the parsed pages and the
    /// derivation, rebuilt on every call. `page_keys` is unused and kept
    /// so the four stages share one calling convention.
    pub fn build_stage(
        &mut self,
        vendor: &str,
        parse: &ParseRun,
        _page_keys: &[u64],
        derivation: &Derivation,
    ) -> VdmBuild {
        build_vdm(vendor, &parse.pages, derivation)
    }
}

/// FNV-1a over a section's serialized bytes, fixed-width hex — the
/// per-section integrity mark in the `checksums` footer. Deterministic
/// because the vendored serializer is order-preserving and every
/// section is emitted with sorted keys.
fn section_checksum(section: &Value) -> Result<String, NassimError> {
    let text = serde_json::to_string(section).map_err(|e| NassimError::Internal {
        context: format!("serializing store section for checksum: {e:?}"),
    })?;
    Ok(format!("{:016x}", fnv1a_str(&text)))
}

/// Size-capped read of a store file: the metadata is consulted before
/// any allocation, so a multi-GB corrupt or adversarial file fails
/// typed without being read.
fn read_store_bounded(path: &Path) -> Result<String, NassimError> {
    let meta = std::fs::metadata(path).map_err(|e| NassimError::Io {
        context: format!("reading artifact store from `{}`", path.display()),
        reason: e.to_string(),
    })?;
    if meta.len() > MAX_STORE_BYTES {
        return Err(NassimError::ArtifactCorrupt {
            path: path.display().to_string(),
            reason: format!(
                "store file is {} bytes, over the {MAX_STORE_BYTES}-byte load cap",
                meta.len()
            ),
        });
    }
    std::fs::read_to_string(path).map_err(|e| NassimError::Io {
        context: format!("reading artifact store from `{}`", path.display()),
        reason: e.to_string(),
    })
}

/// Magic + schema gate shared by both loads.
fn check_header(path: &Path, value: &Value) -> Result<(), NassimError> {
    let corrupt = |reason: String| NassimError::ArtifactCorrupt {
        path: path.display().to_string(),
        reason,
    };
    match value.get("magic") {
        Some(Value::Str(m)) if m == MAGIC => {}
        Some(Value::Str(m)) => {
            return Err(corrupt(format!("bad magic `{m}` (expected `{MAGIC}`)")))
        }
        _ => return Err(corrupt("missing magic header".to_string())),
    }
    match value.get("schema_version") {
        Some(Value::Num(v)) if *v == SCHEMA_VERSION as f64 => Ok(()),
        Some(Value::Num(v)) if v.fract() == 0.0 && (1.0..SCHEMA_VERSION as f64).contains(v) => {
            Err(NassimError::ArtifactOutdated {
                path: path.display().to_string(),
                found: *v as i64,
                expected: SCHEMA_VERSION,
            })
        }
        Some(Value::Num(v)) => Err(corrupt(format!(
            "unsupported schema version {v} (expected {SCHEMA_VERSION})"
        ))),
        _ => Err(corrupt("missing schema version".to_string())),
    }
}

/// u64-keyed artifact map → JSON object with fixed-width hex keys (the
/// vendored JSON value model has string keys only), sorted for stable
/// output.
fn keyed_map_to_value<T: Serialize>(map: &HashMap<u64, Arc<T>>) -> Value {
    let mut entries: Vec<(String, Value)> = map
        .iter()
        .map(|(k, v)| (format!("{k:016x}"), v.to_value()))
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Value::Obj(entries)
}

fn keyed_map_from_value<T: Deserialize>(
    v: Option<&Value>,
    what: &str,
) -> Result<HashMap<u64, Arc<T>>, DeError> {
    let Some(Value::Obj(entries)) = v else {
        return Err(DeError::new(format!("missing `{what}` object")));
    };
    let mut map = HashMap::with_capacity(entries.len());
    for (key, val) in entries {
        let k = u64::from_str_radix(key, 16)
            .map_err(|e| DeError::new(format!("`{what}` key `{key}` is not hex: {e}")))?;
        map.insert(k, Arc::new(T::from_value(val)?));
    }
    Ok(map)
}

/// Per-entry lossy variant of [`keyed_map_from_value`]: bad keys and
/// undeserializable values are reported through `diag` and skipped, a
/// missing or malformed section salvages nothing (one report, empty
/// map). Valid entries always load.
fn keyed_map_from_value_lossy<T: Deserialize>(
    v: Option<&Value>,
    what: &str,
    diag: &mut impl FnMut(&str, String),
) -> HashMap<u64, Arc<T>> {
    let Some(Value::Obj(entries)) = v else {
        diag(
            "section",
            format!("missing `{what}` object (starting empty)"),
        );
        return HashMap::new();
    };
    let mut map = HashMap::with_capacity(entries.len());
    for (key, val) in entries {
        let k = match u64::from_str_radix(key, 16) {
            Ok(k) => k,
            Err(e) => {
                diag("entry", format!("`{what}` key `{key}` is not hex: {e}"));
                continue;
            }
        };
        match T::from_value(val) {
            Ok(artifact) => {
                map.insert(k, Arc::new(artifact));
            }
            Err(e) => {
                diag("entry", format!("`{what}` entry `{key}`: {}", e.0));
            }
        }
    }
    map
}

/// Content key of a whole manual revision: FNV over the ordered
/// per-page keys. Any page edit, insertion, removal or reorder changes
/// it. The serve job journal uses it as the stage record key for the
/// corpus-level stages; the cached derivation is keyed more narrowly
/// (see `derivation_key`), by the fields a derivation reads.
pub fn corpus_key(page_keys: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(page_keys.len());
    for &k in page_keys {
        h.write_u64(k);
    }
    h.finish()
}

/// [`crate::assimilate_with`] against an [`ArtifactStore`]: stage
/// outputs whose content keys are already present are reused (an `Arc`
/// bump each); only dirty pages are re-parsed, re-audited and
/// re-compiled, in the same parallel fan-outs the cold path uses. The
/// result is bit-for-bit identical to the cold path on the same pages —
/// per-page artifacts are pure functions of their keys, and the folds
/// run in the same page order either way.
///
/// The store is updated in place, so a long-lived store keyed by manual
/// revisions converges to the working set of the manuals it has seen.
pub fn assimilate_incremental<'a>(
    parser: &dyn VendorParser,
    pages: impl IntoIterator<Item = (&'a str, &'a str)>,
    budget: &IngestBudget,
    store: &mut ArtifactStore,
) -> Result<Assimilation, NassimError> {
    let (parse, page_keys) = store.parse_stage(parser, pages, budget)?;
    let syntax = store.syntax_stage(&parse);
    let derivation = store.hierarchy_stage(&parse, &page_keys);
    let build = store.build_stage(parser.vendor(), &parse, &page_keys, &derivation);
    Ok(finish_assimilation(parse, syntax, derivation, build))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assimilate_with;
    use nassim_datasets::{catalog::Catalog, manualgen, style};
    use nassim_parser::parser_for;

    fn manual(seed: u64) -> manualgen::Manual {
        manualgen::generate(
            &style::vendor("helix").unwrap(),
            &Catalog::base(),
            &manualgen::GenOptions {
                seed,
                ..Default::default()
            },
        )
    }

    fn assimilations_match(a: &Assimilation, b: &Assimilation) {
        assert_eq!(a.build.vdm, b.build.vdm);
        assert_eq!(a.build.unplaced_pages, b.build.unplaced_pages);
        assert_eq!(a.syntax, b.syntax);
        assert_eq!(a.diagnostics, b.diagnostics);
        assert_eq!(a.parse.pages, b.parse.pages);
    }

    #[test]
    fn incremental_cold_run_matches_full() {
        let m = manual(11);
        let parser = parser_for("helix").unwrap();
        let pages: Vec<(&str, &str)> = m
            .pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str()))
            .collect();
        let budget = IngestBudget::default();
        let full = assimilate_with(parser.as_ref(), pages.clone(), &budget).unwrap();
        let mut store = ArtifactStore::new();
        let inc = assimilate_incremental(parser.as_ref(), pages, &budget, &mut store).unwrap();
        assimilations_match(&full, &inc);
        assert_eq!(store.stats.page_hits, 0);
        assert_eq!(store.stats.derived_misses, 1);
    }

    #[test]
    fn warm_rerun_is_all_hits() {
        let m = manual(12);
        let parser = parser_for("helix").unwrap();
        let pages: Vec<(&str, &str)> = m
            .pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str()))
            .collect();
        let budget = IngestBudget::default();
        let mut store = ArtifactStore::new();
        let first =
            assimilate_incremental(parser.as_ref(), pages.clone(), &budget, &mut store).unwrap();
        let again = assimilate_incremental(parser.as_ref(), pages, &budget, &mut store).unwrap();
        assimilations_match(&first, &again);
        assert_eq!(store.stats.page_misses, m.pages.len());
        assert_eq!(store.stats.page_hits, m.pages.len());
        assert_eq!(store.stats.syntax_misses, store.stats.syntax_hits);
        assert_eq!(store.stats.derived_hits, 1);
    }

    #[test]
    fn save_load_round_trips() {
        let m = manual(13);
        let parser = parser_for("helix").unwrap();
        let pages: Vec<(&str, &str)> = m
            .pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str()))
            .collect();
        let budget = IngestBudget::default();
        let mut store = ArtifactStore::new();
        let first =
            assimilate_incremental(parser.as_ref(), pages.clone(), &budget, &mut store).unwrap();
        let dir = std::env::temp_dir().join("nassim-artifact-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        store.save(&path).unwrap();
        let mut loaded = ArtifactStore::load(&path).unwrap();
        assert_eq!(loaded.page_count(), store.page_count());
        assert_eq!(loaded.syntax_count(), store.syntax_count());
        assert_eq!(loaded.graphs.len(), store.graphs.len());
        assert_eq!(loaded.evidence.len(), store.evidence.len());
        let again = assimilate_incremental(parser.as_ref(), pages, &budget, &mut loaded).unwrap();
        assimilations_match(&first, &again);
        // Every artifact of every persisted stage came from the loaded
        // store: parse, syntax, compiled graphs and evidence all replay
        // without a single recompute.
        assert_eq!(loaded.stats.page_misses, 0);
        assert_eq!(loaded.stats.syntax_misses, 0);
        assert_eq!(loaded.graphs.misses, 0);
        assert_eq!(loaded.evidence.misses, 0);
        assert!(loaded.graphs.hits > 0);
        assert!(loaded.evidence.hits > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn staged_pipeline_matches_composed_run() {
        let m = manual(17);
        let parser = parser_for("helix").unwrap();
        let pages: Vec<(&str, &str)> = m
            .pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str()))
            .collect();
        let budget = IngestBudget::default();
        let full = assimilate_with(parser.as_ref(), pages.clone(), &budget).unwrap();

        let mut store = ArtifactStore::new();
        let (parse, page_keys) = store.parse_stage(parser.as_ref(), pages, &budget).unwrap();
        let syntax = store.syntax_stage(&parse);
        let derivation = store.hierarchy_stage(&parse, &page_keys);
        let build = store.build_stage(parser.vendor(), &parse, &page_keys, &derivation);
        let staged = finish_assimilation(parse, syntax, derivation, build);
        assimilations_match(&full, &staged);
    }

    /// Build a store with all six persisted sections populated (the
    /// lossy/salvage tests damage them one at a time).
    fn populated_store(seed: u64) -> (manualgen::Manual, ArtifactStore) {
        let m = manual(seed);
        let parser = parser_for("helix").unwrap();
        let pages: Vec<(&str, &str)> = m
            .pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str()))
            .collect();
        let mut store = ArtifactStore::new();
        assimilate_incremental(parser.as_ref(), pages, &IngestBudget::default(), &mut store)
            .unwrap();
        let udm_data = nassim_datasets::udmgen::generate(
            &Catalog::base(),
            &nassim_datasets::udmgen::UdmGenOptions {
                seed: 1,
                paraphrase_strength: 0.8,
                distractors: 5,
                synthetic_leaves: 0,
            },
        );
        struct TestEmbedder;
        impl nassim_mapper::Embedder for TestEmbedder {
            fn embed(&self, text: &str) -> Vec<f32> {
                let mut v = vec![0.0f32; 8];
                for (i, b) in text.bytes().enumerate() {
                    v[i % 8] += b as f32;
                }
                v
            }
        }
        store.mapper_dl_sublinear(
            &udm_data.udm,
            Arc::new(TestEmbedder),
            "test-embedder",
            RetrievalMode::Quantized,
        );
        assert!(store.page_count() > 1, "need parse entries to damage");
        assert!(store.graphs.len() > 1, "need graph entries to damage");
        assert!(store.evidence.len() > 1, "need evidence entries to damage");
        assert!(store.embeddings.len() > 1, "need embeddings to damage");
        assert!(!store.ann.is_empty(), "need an ann index to damage");
        (m, store)
    }

    #[test]
    fn lossy_load_salvages_valid_entries_when_unverifiable() {
        use nassim_diag::Severity;

        let (m, store) = populated_store(14);
        let parser = parser_for("helix").unwrap();
        let pages: Vec<(&str, &str)> = m
            .pages
            .iter()
            .map(|p| (p.url.as_str(), p.html.as_str()))
            .collect();
        let budget = IngestBudget::default();
        let dir = std::env::temp_dir().join("nassim-artifact-lossy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        store.save(&path).unwrap();

        // A pristine store loads lossily without a single diagnostic.
        let (pristine, diags) = ArtifactStore::load_lossy(&path).unwrap();
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(pristine.page_count(), store.page_count());

        // Surgically corrupt individual entries — one page value, one
        // non-hex syntax key, one embedding entry — and strip the
        // checksum footer, simulating a store whose sections cannot be
        // verified: the load falls back to per-entry salvage.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut value: Value = serde_json::from_str(&text).unwrap();
        let Value::Obj(sections) = &mut value else { panic!("store is an object") };
        sections.retain(|(name, _)| name != "checksums");
        for (name, section) in sections.iter_mut() {
            match (name.as_str(), section) {
                ("pages", Value::Obj(entries)) => {
                    entries[0].1 = Value::Str("junk".to_string());
                }
                ("syntax", Value::Obj(entries)) => {
                    entries.push(("not-hex".to_string(), Value::Num(1.0)));
                }
                ("embeddings", emb) => {
                    let Value::Obj(outer) = emb else { panic!("embeddings is an object") };
                    let Value::Obj(entries) = &mut outer[0].1 else {
                        panic!("embeddings entries is an object")
                    };
                    entries[0].1 = Value::Str("garbled".to_string());
                }
                _ => {}
            }
        }
        std::fs::write(&path, serde_json::to_string(&value).unwrap()).unwrap();

        // Strict load refuses the damaged store…
        match ArtifactStore::load(&path) {
            Err(NassimError::ArtifactCorrupt { .. }) => {}
            other => panic!("expected ArtifactCorrupt, got {:?}", other.is_ok()),
        }
        // …while the lossy load salvages everything else and reports
        // each dropped entry (plus the missing footer) as a
        // Stage::Internal diagnostic.
        let (salvaged, diags) = ArtifactStore::load_lossy(&path).unwrap();
        assert_eq!(salvaged.page_count(), store.page_count() - 1);
        assert_eq!(salvaged.syntax_count(), store.syntax_count());
        assert_eq!(salvaged.embeddings.len(), store.embeddings.len() - 1);
        assert_eq!(salvaged.graphs.len(), store.graphs.len());
        assert_eq!(salvaged.evidence.len(), store.evidence.len());
        assert_eq!(diags.len(), 4, "{diags:?}");
        for d in &diags {
            assert_eq!(d.stage, Stage::Internal);
            assert_eq!(d.severity, Severity::Warning);
            assert!(
                d.message.contains("dropped corrupt") || d.message.contains("checksums"),
                "{}",
                d.message
            );
        }

        // The salvaged store still assimilates correctly: dropped
        // entries are plain cache misses, re-derived from source.
        let mut salvaged = salvaged;
        let again =
            assimilate_incremental(parser.as_ref(), pages, &budget, &mut salvaged).unwrap();
        assert_eq!(again.build.vdm, store_build_vdm(&m));
        assert_eq!(salvaged.stats.page_misses, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_sections_are_dropped_whole_and_the_rest_survive() {
        use nassim_diag::Severity;

        let (_m, store) = populated_store(15);
        let dir = std::env::temp_dir().join("nassim-artifact-sections");
        std::fs::create_dir_all(&dir).unwrap();
        let pristine_path = dir.join("pristine.json");
        store.save(&pristine_path).unwrap();
        let pristine = std::fs::read_to_string(&pristine_path).unwrap();

        let counts = |s: &ArtifactStore| {
            [
                s.page_count(),
                s.syntax_count(),
                s.graphs.len(),
                s.evidence.len(),
                s.embeddings.len(),
                s.ann.len(),
            ]
        };
        let full = counts(&store);
        for (si, name) in SECTIONS.iter().enumerate() {
            // Replace the whole section with bytes that still parse as
            // JSON but cannot be what `save` wrote: the checksum footer
            // catches it even though (for map sections) every remaining
            // entry would parse.
            let mut value: Value = serde_json::from_str(&pristine).unwrap();
            let Value::Obj(fields) = &mut value else { panic!("store is an object") };
            for (k, v) in fields.iter_mut() {
                if k == name {
                    *v = Value::Obj(vec![]);
                }
            }
            let path = dir.join(format!("torn-{name}.json"));
            std::fs::write(&path, serde_json::to_string(&value).unwrap()).unwrap();

            // Strict load refuses with a checksum-mismatch corruption…
            match ArtifactStore::load(&path) {
                Err(NassimError::ArtifactCorrupt { reason, .. }) => {
                    assert!(reason.contains("checksum"), "{name}: {reason}");
                }
                other => panic!("{name}: expected ArtifactCorrupt, got ok={}", other.is_ok()),
            }
            // …while the lossy load drops exactly that section and
            // keeps the other five intact, with one Internal warning.
            let (salvaged, diags) = ArtifactStore::load_lossy(&path).unwrap();
            let got = counts(&salvaged);
            for (i, (&g, &f)) in got.iter().zip(full.iter()).enumerate() {
                if i == si {
                    assert_eq!(g, 0, "damaged section `{name}` must come back empty");
                } else {
                    assert_eq!(g, f, "section {} damaged by `{name}` tear", SECTIONS[i]);
                }
            }
            assert_eq!(diags.len(), 1, "{name}: {diags:?}");
            assert_eq!(diags[0].stage, Stage::Internal);
            assert_eq!(diags[0].severity, Severity::Warning);
            assert!(
                diags[0].message.contains(name) && diags[0].message.contains("checksum"),
                "{}",
                diags[0].message
            );
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_file(&pristine_path).ok();
    }

    /// The `ann` section warm-starts sub-linear retrieval: a reloaded
    /// store rebuilds the mapper without re-running index construction,
    /// and the warmed mapper ranks bit-identically to the original.
    #[test]
    fn ann_index_round_trips_through_save_and_load() {
        struct ByteEmbedder;
        impl nassim_mapper::Embedder for ByteEmbedder {
            fn embed(&self, text: &str) -> Vec<f32> {
                let mut v = vec![0.0f32; 8];
                for (i, b) in text.bytes().enumerate() {
                    v[i % 8] += b as f32;
                }
                v
            }
        }
        let udm_data = nassim_datasets::udmgen::generate(
            &Catalog::base(),
            &nassim_datasets::udmgen::UdmGenOptions {
                seed: 3,
                paraphrase_strength: 0.8,
                distractors: 40,
                synthetic_leaves: 0,
            },
        );
        let query = nassim_mapper::Context {
            sequences: vec![
                "mtu".to_string(),
                "set interface mtu bytes".to_string(),
                "interface configuration".to_string(),
            ],
        };

        let mut store = ArtifactStore::new();
        let mapper = store.mapper_dl_sublinear(
            &udm_data.udm,
            Arc::new(ByteEmbedder),
            "byte-embedder",
            RetrievalMode::Quantized,
        );
        assert_eq!(store.ann.misses, 1, "first build is a cache miss");
        assert_eq!(store.ann.hits, 0);
        let want = mapper.recommend(&query, 10);

        let dir = std::env::temp_dir().join("nassim-artifact-ann");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        store.save(&path).unwrap();

        let mut loaded = ArtifactStore::load(&path).unwrap();
        assert_eq!(loaded.ann.len(), store.ann.len());
        let warmed = loaded.mapper_dl_sublinear(
            &udm_data.udm,
            Arc::new(ByteEmbedder),
            "byte-embedder",
            RetrievalMode::Quantized,
        );
        assert_eq!(loaded.ann.hits, 1, "persisted index must be reused");
        assert_eq!(loaded.ann.misses, 0);
        assert_eq!(loaded.embeddings.misses, 0, "leaf embeddings replay too");
        assert_eq!(warmed.retrieval_mode(), RetrievalMode::Quantized);
        let got = warmed.recommend(&query, 10);
        assert_eq!(got.len(), want.len());
        for ((gi, gs), (wi, ws)) in got.iter().zip(want.iter()) {
            assert_eq!(gi, wi);
            assert_eq!(gs.to_bits(), ws.to_bits(), "scores must be bit-identical");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn littered_directory_still_loads_the_committed_store() {
        let (_m, store) = populated_store(16);
        let dir = std::env::temp_dir().join("nassim-artifact-litter");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        store.save(&path).unwrap();

        // Crash debris: stale temps from torn saves (garbage bytes, a
        // truncated prefix of a real store, and a complete-but-unrenamed
        // candidate), both for this store and for an unrelated name.
        let committed = std::fs::read(&path).unwrap();
        std::fs::write(dir.join("store.json.tmp.999.0"), b"{torn garbage").unwrap();
        std::fs::write(dir.join("store.json.tmp.999.1"), &committed[..committed.len() / 3])
            .unwrap();
        std::fs::write(dir.join("store.json.tmp.999.2"), &committed).unwrap();
        std::fs::write(dir.join("other.json.tmp.7.0"), b"unrelated").unwrap();
        assert_eq!(crate::crash::orphan_count(&path), 3);

        // Loads read only the committed file — the litter is invisible.
        let loaded = ArtifactStore::load(&path).unwrap();
        assert_eq!(loaded.page_count(), store.page_count());
        let (lossy, diags) = ArtifactStore::load_lossy(&path).unwrap();
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(lossy.embeddings.len(), store.embeddings.len());

        // The next successful save sweeps this store's orphans (and
        // leaves the unrelated file alone).
        store.save(&path).unwrap();
        assert_eq!(crate::crash::orphan_count(&path), 0);
        assert!(dir.join("other.json.tmp.7.0").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_store_fails_typed_before_reading() {
        let dir = std::env::temp_dir().join("nassim-artifact-oversize");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("huge.json");
        // A sparse file over the cap: metadata reports the size without
        // the test paying for the bytes.
        let f = std::fs::File::create(&path).unwrap();
        f.set_len(MAX_STORE_BYTES + 1).unwrap();
        drop(f);
        for result in [
            ArtifactStore::load(&path).err(),
            ArtifactStore::load_lossy(&path).err(),
        ] {
            match result {
                Some(NassimError::ArtifactCorrupt { reason, .. }) => {
                    assert!(reason.contains("load cap"), "{reason}");
                }
                other => panic!("expected ArtifactCorrupt, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_save_crashes_never_lose_the_committed_store() {
        let (_m, store) = populated_store(18);
        let dir = std::env::temp_dir().join("nassim-artifact-crash");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        store.save(&path).unwrap();
        let committed = std::fs::read(&path).unwrap();

        let plan = CrashPlan::uniform(77, 1.0);
        for _ in 0..5 {
            match store.save_with(&path, Some(&plan)) {
                Err(NassimError::CrashInjected { .. }) => {}
                other => panic!("rate-1.0 saves must crash, got ok={}", other.is_ok()),
            }
            assert_eq!(
                std::fs::read(&path).unwrap(),
                committed,
                "injected crash touched the committed store"
            );
            let loaded = ArtifactStore::load(&path).unwrap();
            assert_eq!(loaded.page_count(), store.page_count());
        }
        assert!(plan.injection_count() >= 5);
        // Recovery: one clean save commits and sweeps the debris.
        store.save(&path).unwrap();
        assert_eq!(crate::crash::orphan_count(&path), 0);
        ArtifactStore::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The VDM a cold assimilation of `m` produces (ground truth for
    /// salvage tests).
    fn store_build_vdm(m: &manualgen::Manual) -> nassim_corpus::Vdm {
        let parser = parser_for("helix").unwrap();
        assimilate_with(
            parser.as_ref(),
            m.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
            &IngestBudget::default(),
        )
        .unwrap()
        .build
        .vdm
    }

    #[test]
    fn corrupt_stores_are_typed_errors() {
        let dir = std::env::temp_dir().join("nassim-artifact-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let missing_sections =
            format!("{{\"magic\":\"NASSIM-ARTIFACTS\",\"schema_version\":{SCHEMA_VERSION}}}");
        let cases: [(&str, &str); 5] = [
            ("garbage.json", "not json at all {{{"),
            ("magic.json", "{\"magic\":\"SOMETHING-ELSE\",\"schema_version\":2}"),
            (
                "version.json",
                "{\"magic\":\"NASSIM-ARTIFACTS\",\"schema_version\":999}",
            ),
            (
                "fractional.json",
                "{\"magic\":\"NASSIM-ARTIFACTS\",\"schema_version\":2.5}",
            ),
            ("missing.json", &missing_sections),
        ];
        for (name, content) in cases {
            let path = dir.join(name);
            std::fs::write(&path, content).unwrap();
            match ArtifactStore::load(&path) {
                Err(NassimError::ArtifactCorrupt { .. }) => {}
                other => panic!(
                    "{name}: expected ArtifactCorrupt, got {:?}",
                    other.err().map(|e| e.to_string())
                ),
            }
            std::fs::remove_file(&path).ok();
        }
        // An intact older store is outdated, not corrupt, in both loads.
        let path = dir.join("outdated.json");
        std::fs::write(&path, "{\"magic\":\"NASSIM-ARTIFACTS\",\"schema_version\":3}").unwrap();
        for outcome in [
            ArtifactStore::load(&path).err(),
            ArtifactStore::load_lossy(&path).err(),
        ] {
            match outcome {
                Some(NassimError::ArtifactOutdated {
                    found: 3,
                    expected: SCHEMA_VERSION,
                    ..
                }) => {}
                other => panic!("expected ArtifactOutdated, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
        // A missing file is an I/O error, not corruption.
        match ArtifactStore::load(&dir.join("no-such-file.json")) {
            Err(NassimError::Io { .. }) => {}
            other => panic!("expected Io, got {:?}", other.err().map(|e| e.to_string())),
        }
    }
}
