//! Stage 2 — model hierarchy derivation and validation (§5.2).
//!
//! The derivation exploits `Examples` fields: each snippet shows an
//! *instantiated* version of the page's CLI under its parent CLI
//! instances, with indentation carrying nesting. For every snippet we:
//!
//! 1. confirm the innermost line instantiates the page's own template
//!    (CGM instance–template matching, Algorithm 1);
//! 2. track back by prefix indentation to the parent CLI instance;
//! 3. search all corpora for templates matching the parent instance;
//! 4. cast a vote: *"view V (the page's working view) is entered by
//!    template T"*.
//!
//! Votes are aggregated per view with majority voting; views with
//! conflicting evidence — the Figure-7 shared-snippet problem — or with
//! no usable evidence are flagged ambiguous, each with its candidate
//! openers and example provenance, "so that NetOps can review them later".
//!
//! Manuals that state hierarchy explicitly (norsk context paths +
//! `Enters:` tree sections) bypass derivation: their evidence enters as
//! authoritative votes.

use nassim_cgm::{is_tokens_match, CliGraph};
use nassim_corpus::{keyed, Fnv1a};
use nassim_parser::ParsedPage;
use nassim_syntax::parse_template;
use nassim_syntax::template::CliStruc;
use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sentinel opener index meaning "the view is a root view" (the snippet
/// showed the command at indentation 0 with no parent line).
pub const ROOT_OPENER: usize = usize::MAX;

/// Why a view was flagged ambiguous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AmbiguityReason {
    /// Distinct openers received comparable vote counts.
    ConflictingEvidence,
    /// The view appears in `ParentViews` but no snippet could be
    /// associated with it.
    NoEvidence,
}

/// An ambiguous view, recorded for expert review.
#[derive(Debug, Clone)]
pub struct AmbiguousView {
    /// Vendor view name, e.g. `VPN instance MSDP view`.
    pub view: String,
    pub reason: AmbiguityReason,
    /// Candidate opener page indices with their vote counts.
    pub candidates: Vec<(usize, usize)>,
}

/// Derivation statistics (Table 4 rows).
#[derive(Debug, Clone, Default)]
pub struct DerivationStats {
    /// Snippets inspected.
    pub example_snippets: usize,
    /// Votes successfully cast.
    pub votes_cast: usize,
    /// Snippets whose innermost line did not match the page's template
    /// (manual defect or parse loss).
    pub self_match_failures: usize,
    /// Wall-clock time of CGM construction for all corpora.
    pub cgm_build_time: Duration,
    /// Wall-clock time of derivation proper.
    pub derivation_time: Duration,
}

/// The derivation result.
#[derive(Debug, Clone)]
pub struct Derivation {
    /// view name → winning opener: page index into the input slice, or
    /// [`ROOT_OPENER`] for root views.
    pub openers: BTreeMap<String, usize>,
    /// Full vote tally per view (for certainty quantification).
    pub votes: BTreeMap<String, BTreeMap<usize, usize>>,
    /// Views flagged for expert review.
    pub ambiguous: Vec<AmbiguousView>,
    /// The root view name (most root-voted), if any.
    pub root_view: Option<String>,
    pub stats: DerivationStats,
}

impl Derivation {
    /// Number of ambiguous views (Table 4 row).
    pub fn ambiguous_count(&self) -> usize {
        self.ambiguous.len()
    }

    /// Every ambiguous view as a `hierarchy`-stage warning diagnostic,
    /// with candidate opener pages (URL × votes) named for expert review.
    /// `pages` is the derivation's input slice, owned or shared.
    pub fn diagnostics<P: Borrow<ParsedPage>>(&self, pages: &[P]) -> Vec<nassim_diag::Diagnostic> {
        self.ambiguous
            .iter()
            .map(|a| a.to_diagnostic(pages))
            .collect()
    }
}

impl AmbiguousView {
    /// The expert-review warning for this view. The span points at the
    /// leading candidate opener's page when there is one.
    pub fn to_diagnostic<P: Borrow<ParsedPage>>(&self, pages: &[P]) -> nassim_diag::Diagnostic {
        let url_of = |pi: usize| {
            pages
                .get(pi)
                .map(|p| p.borrow().url.as_str())
                .unwrap_or("<unknown page>")
        };
        let message = match self.reason {
            AmbiguityReason::NoEvidence => format!(
                "view `{}` has no usable hierarchy evidence (no snippet or context path)",
                self.view
            ),
            AmbiguityReason::ConflictingEvidence => {
                let candidates: Vec<String> = self
                    .candidates
                    .iter()
                    .map(|&(pi, votes)| format!("{} ({votes} votes)", url_of(pi)))
                    .collect();
                format!(
                    "view `{}` has conflicting opener evidence: {}",
                    self.view,
                    candidates.join(", ")
                )
            }
        };
        let mut d = nassim_diag::Diagnostic::warning(nassim_diag::Stage::Hierarchy, message);
        if let Some(&(pi, _)) = self.candidates.first() {
            d = d.with_span(nassim_diag::SourceSpan::point(url_of(pi), 0));
        }
        d
    }
}

/// One page's compiled template graphs plus its head-keyword bucket
/// entries — an immutable artifact that is a pure function of the
/// page's `CLIs` list ([`graph_key`]), so the artifact store can share
/// it across incremental runs. Persisted by its *source* rather than
/// its shape: the store serializes only the CLI template list and
/// recompiles on load ([`compile_graphs`] is deterministic), so the
/// encoded form stays small and a loaded graph can never disagree with
/// its key.
pub struct PageGraphs {
    /// cli index → graph; `None` for templates that failed stage-1
    /// parsing (they can never match an instance).
    pub graphs: Vec<Option<CliGraph>>,
    /// The CLI forms this artifact was compiled from — its serialized
    /// representation and the preimage of [`graph_key`].
    clis: Vec<String>,
}

/// [`graph_key`] over a bare CLI-form list (what [`PageGraphs`]
/// persistence stores and verifies against).
pub fn graph_key_of(clis: &[String]) -> u64 {
    let mut h = Fnv1a::new();
    for cli in clis {
        h.write_field(cli);
    }
    h.finish()
}

/// Content key of one page's compiled-graph artifact: FNV-1a over its
/// CLI forms, length-framed. The URL deliberately does not participate:
/// two pages with identical `CLIs` compile to identical graphs.
pub fn graph_key(page: &ParsedPage) -> u64 {
    graph_key_of(&page.entry.clis)
}

/// Compile a CLI-form list into a [`PageGraphs`] artifact — the pure
/// function behind both [`compile_page_graphs`] and store loads.
pub fn compile_graphs(clis: &[String]) -> PageGraphs {
    compile_parsed(clis, clis.iter().map(|cli| parse_template(cli).ok()))
}

/// [`compile_graphs`] from templates parsed elsewhere: `strucs` yields,
/// in order, [`parse_template`] of each of `clis`, `None` where it
/// fails. The store's syntax stage passes the structures its audit
/// already built, so a template is parsed once per run.
pub(crate) fn compile_parsed(
    clis: &[String],
    strucs: impl IntoIterator<Item = Option<CliStruc>>,
) -> PageGraphs {
    PageGraphs {
        // `None` keeps (page, cli) indexing aligned.
        graphs: strucs
            .into_iter()
            .map(|s| s.map(CliGraph::from_struc))
            .collect(),
        clis: clis.to_vec(),
    }
}

/// Compile one page's parseable CLI forms into a [`PageGraphs`] artifact.
pub fn compile_page_graphs(page: &ParsedPage) -> PageGraphs {
    compile_graphs(&page.entry.clis)
}

/// In-memory cache of per-page [`PageGraphs`] artifacts, keyed by
/// [`graph_key`]. The hit/miss counters make artifact reuse observable
/// to the differential tests and the incremental bench.
#[derive(Clone, Default)]
pub struct GraphCache {
    entries: HashMap<u64, Arc<PageGraphs>>,
    /// Artifacts compiled ahead of the next [`CorpusGraphs::build_cached`]
    /// (by the store's syntax stage, from the parses its audit made).
    /// They are not entries yet: that build takes each one where it
    /// would compile, counts it as a miss and inserts it, and the rest
    /// are dropped. Never persisted.
    fresh: HashMap<u64, Arc<PageGraphs>>,
    pub hits: usize,
    pub misses: usize,
}

impl GraphCache {
    pub fn new() -> GraphCache {
        GraphCache::default()
    }

    /// Is an artifact for `key` held, as an entry or compiled ahead?
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key) || self.fresh.contains_key(&key)
    }

    /// Hand the next build an artifact compiled ahead; `graphs` must be
    /// [`compile_graphs`] of the CLI forms `key` hashes.
    pub fn put_fresh(&mut self, key: u64, graphs: PageGraphs) {
        self.fresh.insert(key, Arc::new(graphs));
    }

    /// Drop the artifacts compiled ahead that no build took.
    pub fn clear_fresh(&mut self) {
        self.fresh.clear();
    }

    /// Number of distinct artifacts held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialize for the artifact store: each entry is its CLI template
    /// list under its [`keyed`] key. The compiled graphs themselves are
    /// never encoded — loads recompile them ([`compile_graphs`]), which
    /// is cheap and cannot drift. Hit/miss counters are deliberately not
    /// persisted.
    pub fn to_value(&self) -> Value {
        let entries = keyed::encode(&self.entries, |g| g.clis.to_value());
        Value::Obj(vec![("entries".to_string(), entries)])
    }

    /// Inverse of [`GraphCache::to_value`]: every valid entry loads, and
    /// every malformed one is skipped and described.
    pub fn decode(v: &Value) -> (GraphCache, Vec<String>) {
        let (entries, errors) = keyed::decode(v.get("entries"), |k, val| {
            let clis = Vec::<String>::from_value(val)?;
            // The key must be the FNV of the stored CLI list: a swapped
            // or altered entry is detected here even when the section
            // checksum was forged along with it.
            if graph_key_of(&clis) != k {
                return Err(DeError::new("CLI list does not hash to its key"));
            }
            Ok(compile_graphs(&clis))
        });
        let cache = GraphCache {
            entries,
            ..GraphCache::default()
        };
        (cache, errors)
    }
}

/// Compiled template graphs for a whole corpus, bucketed for fast
/// lookup. Per-page graphs are [`Arc`]-shared with the [`GraphCache`].
pub struct CorpusGraphs {
    /// page index → that page's compiled graphs.
    pub graphs: Vec<Arc<PageGraphs>>,
    /// head keyword → (page, cli) pairs whose template starts with it.
    head_index: HashMap<String, Vec<(usize, usize)>>,
    /// Templates with no leading keyword (start with a group) — always
    /// candidates.
    headless: Vec<(usize, usize)>,
}

/// Pages per worker chunk when compiling template graphs: one page's
/// graphs build in tens of microseconds, so a chunk bundles enough of
/// them to amortise the fan-out.
const CGM_MIN_CHUNK: usize = 64;

/// Pages per worker chunk for evidence collection: snippet matching is
/// heavier than graph compilation but still cheap per page.
const EVIDENCE_MIN_CHUNK: usize = 32;

impl CorpusGraphs {
    /// Compile every parseable CLI form of every page. Invalid templates
    /// (stage-1 failures) are skipped — they cannot match anything.
    ///
    /// Graph compilation fans out per page; the head/headless buckets are
    /// filled back in page order, so the index layout matches a serial
    /// build exactly.
    pub fn build<P: Borrow<ParsedPage> + Sync>(pages: &[P]) -> CorpusGraphs {
        let per_page: Vec<Arc<PageGraphs>> =
            nassim_exec::par_map_chunked(pages, CGM_MIN_CHUNK, |_, page| {
                Arc::new(compile_page_graphs(page.borrow()))
            });
        CorpusGraphs::assemble(per_page)
    }

    /// [`CorpusGraphs::build`] reusing cached per-page artifacts: pages
    /// whose CLI set is already in `cache` skip compilation entirely;
    /// misses take the artifact compiled ahead ([`GraphCache::put_fresh`])
    /// or compile in one fan-out, and are inserted for next time.
    /// The assembled index is identical to an uncached build. `keys[i]`
    /// must be [`graph_key`] of `pages[i]`.
    pub fn build_cached<P: Borrow<ParsedPage> + Sync>(
        pages: &[P],
        keys: &[u64],
        cache: &mut GraphCache,
    ) -> CorpusGraphs {
        debug_assert_eq!(keys.len(), pages.len());
        let mut per_page: Vec<Option<Arc<PageGraphs>>> =
            keys.iter().map(|k| cache.entries.get(k).cloned()).collect();
        let missing: Vec<usize> = per_page
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_none())
            .map(|(i, _)| i)
            .collect();
        cache.hits += pages.len() - missing.len();
        cache.misses += missing.len();
        // A miss compiled ahead is taken as it is; the rest compile here.
        let fresh = std::mem::take(&mut cache.fresh);
        let mut to_compile = Vec::new();
        for &i in &missing {
            match fresh.get(&keys[i]) {
                Some(artifact) => per_page[i] = Some(artifact.clone()),
                None => to_compile.push(i),
            }
        }
        let compiled: Vec<Arc<PageGraphs>> =
            nassim_exec::par_map_chunked(&to_compile, CGM_MIN_CHUNK, |_, &i| {
                Arc::new(compile_page_graphs(pages[i].borrow()))
            });
        for (&i, artifact) in to_compile.iter().zip(compiled) {
            per_page[i] = Some(artifact);
        }
        for &i in &missing {
            if let Some(artifact) = &per_page[i] {
                cache.entries.insert(keys[i], artifact.clone());
            }
        }
        let per_page = per_page
            .into_iter()
            .enumerate()
            .map(|(i, a)| a.unwrap_or_else(|| Arc::new(compile_page_graphs(pages[i].borrow()))))
            .collect();
        CorpusGraphs::assemble(per_page)
    }

    /// Fold per-page artifacts (in page order) into the bucketed index;
    /// the layout matches a serial build exactly.
    fn assemble(per_page: Vec<Arc<PageGraphs>>) -> CorpusGraphs {
        let mut head_index: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
        let mut headless = Vec::new();
        for (pi, page) in per_page.iter().enumerate() {
            for (ci, graph) in page.graphs.iter().enumerate() {
                let Some(graph) = graph else { continue };
                let Some(head) = graph.head_keyword() else {
                    headless.push((pi, ci));
                    continue;
                };
                // One key allocation per distinct head, not per template.
                match head_index.get_mut(head) {
                    Some(bucket) => bucket.push((pi, ci)),
                    None => {
                        head_index.insert(head.to_string(), vec![(pi, ci)]);
                    }
                }
            }
        }
        CorpusGraphs {
            graphs: per_page,
            head_index,
            headless,
        }
    }

    /// The (page, cli) templates that could match an instance whose
    /// first token is `head`: its head-keyword bucket, then every
    /// headless template.
    fn candidates<'c>(&'c self, head: Option<&str>) -> impl Iterator<Item = (usize, usize)> + 'c {
        head.and_then(|h| self.head_index.get(h))
            .into_iter()
            .flatten()
            .chain(&self.headless)
            .copied()
    }

    /// Does template `(pi, ci)` match the instance split into `tokens`?
    fn template_matches(&self, (pi, ci): (usize, usize), tokens: &[&str]) -> bool {
        self.graphs[pi].graphs[ci]
            .as_ref()
            .is_some_and(|g| is_tokens_match(tokens, g))
    }

    /// All pages whose template matches `instance` exactly. The instance
    /// is split once and that token slice is matched against every
    /// candidate.
    pub fn matching_pages(&self, instance: &str) -> Vec<usize> {
        let tokens: Vec<&str> = instance.split_whitespace().collect();
        let mut out: Vec<usize> = self
            .candidates(tokens.first().copied())
            .filter(|&t| self.template_matches(t, &tokens))
            .map(|(pi, _)| pi)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A view is flagged ambiguous when the winning opener holds less than
/// this share of its votes. Misleading shared snippets split a view's
/// evidence roughly in half (well below the threshold); a single spurious
/// template match among many corroborating snippets stays above it.
const WINNER_SHARE_THRESHOLD: f64 = 0.75;

/// Per-page hierarchy evidence. Collected in parallel, merged into the
/// vote tallies in page order — since the serial loop only ever
/// *increments* tally entries, the ordered merge reproduces it exactly.
///
/// Opaque outside this module: it exists publicly only so an
/// [`EvidenceCache`] can hold `Arc`s of it.
pub struct PageEvidence {
    example_snippets: usize,
    self_match_failures: usize,
    /// One `(view, opener page index)` pair per vote cast.
    votes: Vec<(String, usize)>,
    /// View names this page's snippets showed at indentation 0.
    root_votes: Vec<String>,
}

/// Content key of one page's hierarchy-evidence artifact.
///
/// Evidence is a function of (a) the *global* compiled-template index —
/// folded in as `fingerprint`, the FNV over every page's ordered
/// [`graph_key`] — (b) the page's position `pi` (votes carry page
/// indices), and (c) the page-local fields the evidence loop reads:
/// working views, examples, context path and `Enters:` marker. The
/// function description deliberately does not participate, so a
/// prose-only manual revision invalidates no evidence at all; any CLI
/// change anywhere invalidates everything through the fingerprint.
fn evidence_key(fingerprint: u64, pi: usize, page: &ParsedPage) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(fingerprint);
    h.write_usize(pi);
    write_evidence_fields(&mut h, page);
    h.finish()
}

/// Digest of the page-local fields hierarchy evidence reads (part (c)
/// of `evidence_key`): working views, examples, context path and
/// `Enters:` marker. Together with the ordered [`graph_key`]s it
/// determines a whole [`Derivation`], so a derivation can be cached
/// under the page count, the ordered graph keys and the ordered digests.
pub fn evidence_fields_key(page: &ParsedPage) -> u64 {
    let mut h = Fnv1a::new();
    write_evidence_fields(&mut h, page);
    h.finish()
}

fn write_evidence_fields(h: &mut Fnv1a, page: &ParsedPage) {
    h.write_usize(page.entry.parent_views.len());
    for view in &page.entry.parent_views {
        h.write_field(view);
    }
    h.write_usize(page.entry.examples.len());
    for snippet in &page.entry.examples {
        h.write_usize(snippet.len());
        for line in snippet {
            h.write_field(line);
        }
    }
    match &page.context_path {
        Some(path) => {
            h.write_usize(1 + path.len());
            for seg in path {
                h.write_field(seg);
            }
        }
        None => {
            h.write_usize(0);
        }
    }
    match &page.enters_view {
        Some(v) => {
            h.write_usize(1);
            h.write_field(v);
        }
        None => {
            h.write_usize(0);
        }
    }
}

/// In-memory cache of per-page [`PageEvidence`] artifacts, keyed by
/// `evidence_key`. Because the key embeds the whole-corpus template
/// fingerprint, a hit is always sound: the cached evidence was collected
/// against a bit-identical template index at the same page position.
#[derive(Default)]
pub struct EvidenceCache {
    entries: HashMap<u64, Arc<PageEvidence>>,
    pub hits: usize,
    pub misses: usize,
}

impl PageEvidence {
    /// Serialized shape: plain counts, the `(view, opener page)` vote
    /// pairs and the root-vote view names — everything the evidence
    /// fold reads, nothing else.
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("ex".to_string(), Value::Num(self.example_snippets as f64)),
            (
                "fail".to_string(),
                Value::Num(self.self_match_failures as f64),
            ),
            (
                "votes".to_string(),
                Value::Arr(
                    self.votes
                        .iter()
                        .map(|(view, pi)| {
                            Value::Arr(vec![Value::Str(view.clone()), Value::Num(*pi as f64)])
                        })
                        .collect(),
                ),
            ),
            (
                "roots".to_string(),
                Value::Arr(
                    self.root_votes
                        .iter()
                        .map(|v| Value::Str(v.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<PageEvidence, DeError> {
        let count = |field: &str| -> Result<usize, DeError> {
            match v.get(field) {
                Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as usize),
                _ => Err(DeError::new(format!(
                    "evidence `{field}` is not a non-negative integer"
                ))),
            }
        };
        let example_snippets = count("ex")?;
        let self_match_failures = count("fail")?;
        let Some(Value::Arr(vote_items)) = v.get("votes") else {
            return Err(DeError::new("evidence `votes` is not a list".to_string()));
        };
        let mut votes = Vec::with_capacity(vote_items.len());
        for item in vote_items {
            match item {
                Value::Arr(pair) => match (pair.first(), pair.get(1), pair.len()) {
                    (Some(Value::Str(view)), Some(Value::Num(pi)), 2)
                        if *pi >= 0.0 && pi.fract() == 0.0 =>
                    {
                        votes.push((view.clone(), *pi as usize));
                    }
                    _ => {
                        return Err(DeError::new(
                            "evidence vote is not a [view, page] pair".to_string(),
                        ))
                    }
                },
                _ => {
                    return Err(DeError::new(
                        "evidence vote is not a [view, page] pair".to_string(),
                    ))
                }
            }
        }
        let Some(Value::Arr(root_items)) = v.get("roots") else {
            return Err(DeError::new("evidence `roots` is not a list".to_string()));
        };
        let mut root_votes = Vec::with_capacity(root_items.len());
        for item in root_items {
            let Value::Str(view) = item else {
                return Err(DeError::new(
                    "evidence root vote is not a string".to_string(),
                ));
            };
            root_votes.push(view.clone());
        }
        Ok(PageEvidence {
            example_snippets,
            self_match_failures,
            votes,
            root_votes,
        })
    }
}

impl EvidenceCache {
    pub fn new() -> EvidenceCache {
        EvidenceCache::default()
    }

    /// Number of distinct artifacts held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialize for the artifact store under [`keyed`] keys. Keys embed
    /// the whole-corpus template fingerprint (see `evidence_key`), so
    /// reloaded evidence can only ever hit against a bit-identical
    /// template index. Hit/miss counters are deliberately not persisted.
    pub fn to_value(&self) -> Value {
        let entries = keyed::encode(&self.entries, PageEvidence::to_value);
        Value::Obj(vec![("entries".to_string(), entries)])
    }

    /// Inverse of [`EvidenceCache::to_value`]: every valid entry loads,
    /// and every malformed one is skipped and described.
    pub fn decode(v: &Value) -> (EvidenceCache, Vec<String>) {
        let (entries, errors) =
            keyed::decode(v.get("entries"), |_, val| PageEvidence::from_value(val));
        let cache = EvidenceCache {
            entries,
            ..EvidenceCache::default()
        };
        (cache, errors)
    }
}

/// Derive the hierarchy of a parsed corpus.
pub fn derive_hierarchy<P: Borrow<ParsedPage> + Sync>(pages: &[P]) -> Derivation {
    let t0 = Instant::now();
    let corpus = CorpusGraphs::build(pages);
    let cgm_build_time = t0.elapsed();
    derive_from_graphs(pages, &corpus, cgm_build_time)
}

/// [`derive_hierarchy`] reusing per-page artifacts: compiled template
/// graphs from `graphs` and hierarchy evidence from `evidence`. Evidence
/// keys embed the whole-corpus template fingerprint (see
/// `evidence_key`), so a prose-only page edit re-collects nothing and
/// a CLI edit anywhere re-collects everything — either way the output is
/// identical to [`derive_hierarchy`] (modulo wall-clock stats).
/// `graph_keys[i]` must be [`graph_key`] of `pages[i]`; the artifact
/// store passes the keys it has already memoized.
pub fn derive_hierarchy_cached<P: Borrow<ParsedPage> + Sync>(
    pages: &[P],
    graph_keys: &[u64],
    graphs: &mut GraphCache,
    evidence: &mut EvidenceCache,
) -> Derivation {
    let t0 = Instant::now();
    let corpus = CorpusGraphs::build_cached(pages, graph_keys, graphs);
    let cgm_build_time = t0.elapsed();
    let t1 = Instant::now();

    let mut fp = Fnv1a::new();
    fp.write_usize(pages.len());
    for &k in graph_keys {
        fp.write_u64(k);
    }
    let fingerprint = fp.finish();
    let keys: Vec<u64> = pages
        .iter()
        .enumerate()
        .map(|(pi, page)| evidence_key(fingerprint, pi, page.borrow()))
        .collect();
    let mut per_page: Vec<Option<Arc<PageEvidence>>> = keys
        .iter()
        .map(|k| evidence.entries.get(k).cloned())
        .collect();
    let missing: Vec<usize> = per_page
        .iter()
        .enumerate()
        .filter(|(_, e)| e.is_none())
        .map(|(i, _)| i)
        .collect();
    evidence.hits += pages.len() - missing.len();
    evidence.misses += missing.len();
    let fresh: Vec<Arc<PageEvidence>> =
        nassim_exec::par_map_chunked(&missing, EVIDENCE_MIN_CHUNK, |_, &i| {
            Arc::new(collect_page_evidence(i, pages[i].borrow(), &corpus))
        });
    for (&i, ev) in missing.iter().zip(fresh) {
        evidence.entries.insert(keys[i], ev.clone());
        per_page[i] = Some(ev);
    }
    let per_page: Vec<Arc<PageEvidence>> = per_page
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            e.unwrap_or_else(|| Arc::new(collect_page_evidence(i, pages[i].borrow(), &corpus)))
        })
        .collect();
    fold_evidence(
        pages,
        per_page.iter().map(|e| e.as_ref()),
        cgm_build_time,
        t1,
    )
}

/// Collect one page's hierarchy evidence against the corpus template
/// index — a pure function of (page, position, index), which is what
/// makes it cacheable under [`evidence_key`].
fn collect_page_evidence(pi: usize, page: &ParsedPage, corpus: &CorpusGraphs) -> PageEvidence {
    let mut ev = PageEvidence {
        example_snippets: 0,
        self_match_failures: 0,
        votes: Vec::new(),
        root_votes: Vec::new(),
    };
    let Some(view) = page.entry.parent_views.first() else {
        return ev;
    };
    // Explicit hierarchy (norsk): authoritative, no derivation needed.
    if let Some(path) = &page.context_path {
        if path.len() <= 1 {
            if let Some(v) = path.first().or(page.entry.parent_views.first()) {
                ev.root_votes.push(v.clone());
            }
        }
        if let Some(enters) = &page.enters_view {
            // This page opens `enters`: authoritative vote.
            ev.votes.push((enters.clone(), pi));
        }
        return ev;
    }
    // Example-based derivation. Manuals list one snippet per working
    // view in `ParentViews` order (multi-view commands); when counts
    // line up, pair snippet j with view j, otherwise attribute all
    // snippets to the primary view.
    let paired = page.entry.parent_views.len() == page.entry.examples.len()
        && page.entry.parent_views.len() > 1;
    for (j, snippet) in page.entry.examples.iter().enumerate() {
        let view = if paired {
            &page.entry.parent_views[j]
        } else {
            view
        };
        ev.example_snippets += 1;
        let Some(last) = snippet.last() else { continue };
        let child_indent = indent_of(last);
        let child_instance = last.trim_start();
        // Step 1: the innermost line must instantiate this page's CLI.
        let tokens: Vec<&str> = child_instance.split_whitespace().collect();
        let self_matches = corpus
            .candidates(tokens.first().copied())
            .any(|t| t.0 == pi && corpus.template_matches(t, &tokens));
        if !self_matches {
            ev.self_match_failures += 1;
            continue;
        }
        if child_indent == 0 {
            // No parent line: the working view is a root view.
            ev.root_votes.push(view.clone());
            continue;
        }
        // Step 2: track back to the parent instance by indentation.
        let parent_line = snippet[..snippet.len() - 1]
            .iter()
            .rev()
            .find(|l| indent_of(l) < child_indent);
        let Some(parent_line) = parent_line else {
            continue;
        };
        // Step 3: find templates matching the parent instance.
        let parents = corpus.matching_pages(parent_line.trim_start());
        // Step 4: vote.
        for parent_pi in parents {
            ev.votes.push((view.clone(), parent_pi));
        }
    }
    ev
}

fn derive_from_graphs<P: Borrow<ParsedPage> + Sync>(
    pages: &[P],
    corpus: &CorpusGraphs,
    cgm_build_time: Duration,
) -> Derivation {
    let t1 = Instant::now();
    // Instance–template matching is the hot step; fan it out per page,
    // batched so cheap pages amortise the fan-out cost (unbatched, this
    // stage ran at 0.64× serial — the overhead outweighed the work).
    let evidence: Vec<PageEvidence> =
        nassim_exec::par_map_chunked(pages, EVIDENCE_MIN_CHUNK, |pi, page| {
            collect_page_evidence(pi, page.borrow(), corpus)
        });
    fold_evidence(pages, evidence.iter(), cgm_build_time, t1)
}

/// Merge per-page evidence (in page order) into the vote tallies and
/// aggregate. Shared by the cold and cached derivations, so equal
/// evidence always folds to an equal [`Derivation`].
fn fold_evidence<'a, P: Borrow<ParsedPage>>(
    pages: &[P],
    evidence: impl Iterator<Item = &'a PageEvidence>,
    cgm_build_time: Duration,
    t1: Instant,
) -> Derivation {
    let mut votes: BTreeMap<String, BTreeMap<usize, usize>> = BTreeMap::new();
    let mut stats = DerivationStats {
        cgm_build_time,
        ..DerivationStats::default()
    };
    let mut root_votes: BTreeMap<String, usize> = BTreeMap::new();
    for ev in evidence {
        stats.example_snippets += ev.example_snippets;
        stats.self_match_failures += ev.self_match_failures;
        stats.votes_cast += ev.votes.len();
        for v in &ev.root_votes {
            *root_votes.entry(v.clone()).or_default() += 1;
        }
        for (view, opener) in &ev.votes {
            *votes
                .entry(view.clone())
                .or_default()
                .entry(*opener)
                .or_default() += 1;
        }
    }

    // Aggregate: majority voting with conflict detection.
    let mut openers = BTreeMap::new();
    let mut ambiguous = Vec::new();
    for (view, tally) in &votes {
        let mut ranked: Vec<(usize, usize)> = tally.iter().map(|(&p, &v)| (p, v)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let (winner, winner_votes) = ranked[0];
        openers.insert(view.clone(), winner);
        let total_votes: usize = ranked.iter().map(|&(_, v)| v).sum();
        if ranked.len() > 1 && (winner_votes as f64) < (total_votes as f64) * WINNER_SHARE_THRESHOLD
        {
            ambiguous.push(AmbiguousView {
                view: view.clone(),
                reason: AmbiguityReason::ConflictingEvidence,
                candidates: ranked.clone(),
            });
        }
    }
    // Views referenced as working views but never derived and not roots,
    // each flagged once, in first-reference order.
    let mut no_evidence: HashSet<&str> = HashSet::new();
    for page in pages {
        for view in &page.borrow().entry.parent_views {
            if !openers.contains_key(view)
                && !root_votes.contains_key(view)
                && no_evidence.insert(view)
            {
                ambiguous.push(AmbiguousView {
                    view: view.clone(),
                    reason: AmbiguityReason::NoEvidence,
                    candidates: Vec::new(),
                });
            }
        }
    }
    // Root view: the most root-voted name; record ROOT_OPENER for each.
    let root_view = root_votes
        .iter()
        .max_by_key(|(_, &v)| v)
        .map(|(k, _)| k.clone());
    for view in root_votes.keys() {
        openers.entry(view.clone()).or_insert(ROOT_OPENER);
    }

    stats.derivation_time = t1.elapsed();
    Derivation {
        openers,
        votes,
        ambiguous,
        root_view,
        stats,
    }
}

fn indent_of(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassim_corpus::CorpusEntry;

    fn page(url: &str, cli: &str, view: &str, examples: Vec<Vec<&str>>) -> ParsedPage {
        ParsedPage {
            url: url.to_string(),
            entry: Arc::new(CorpusEntry {
                clis: vec![cli.to_string()],
                func_def: String::new(),
                parent_views: vec![view.to_string()],
                para_def: Vec::new(),
                examples: examples
                    .into_iter()
                    .map(|s| s.into_iter().map(str::to_string).collect())
                    .collect(),
                source: url.to_string(),
            }),
            context_path: None,
            enters_view: None,
        }
    }

    fn bgp_pages() -> Vec<ParsedPage> {
        vec![
            // 0: the opener.
            page(
                "p0",
                "bgp <as-number>",
                "system view",
                vec![vec!["bgp 100"]],
            ),
            // 1, 2: children with the paper's Figure-3 style snippets.
            page(
                "p1",
                "peer <ipv4-address> group <group-name>",
                "BGP view",
                vec![vec!["bgp 100", " peer 10.1.1.1 group test"]],
            ),
            page(
                "p2",
                "router-id <ipv4-address>",
                "BGP view",
                vec![vec!["bgp 200", " router-id 1.1.1.1"]],
            ),
        ]
    }

    #[test]
    fn derives_the_paper_example() {
        let pages = bgp_pages();
        let d = derive_hierarchy(&pages);
        // "it follows that the CLI command bgp <as-number> enters the
        // 'BGP view'".
        assert_eq!(d.openers.get("BGP view"), Some(&0));
        assert_eq!(d.root_view.as_deref(), Some("system view"));
        assert!(d.ambiguous.is_empty(), "{:?}", d.ambiguous);
        assert_eq!(d.votes["BGP view"][&0], 2); // two corroborating snippets
    }

    #[test]
    fn conflicting_evidence_flags_ambiguity() {
        let mut pages = bgp_pages();
        // A second opener-looking template that also matches "vpn 300"-ish
        // parents: make p3 a child whose snippet shows a different parent.
        pages.push(page(
            "p3",
            "msdp-peer <ipv4-address>",
            "BGP view",
            vec![vec!["ospf 1", " msdp-peer 2.2.2.2"]],
        ));
        pages.push(page(
            "p4",
            "ospf <ospf-process-id>",
            "system view",
            vec![vec!["ospf 1"]],
        ));
        let d = derive_hierarchy(&pages);
        // BGP view now has votes for both `bgp` (2) and `ospf` (1) — the
        // runner-up exceeds the conflict ratio.
        let amb = d
            .ambiguous
            .iter()
            .find(|a| a.view == "BGP view")
            .expect("BGP view flagged");
        assert_eq!(amb.reason, AmbiguityReason::ConflictingEvidence);
        assert_eq!(amb.candidates.len(), 2);
        // Majority still wins for tree construction.
        assert_eq!(d.openers["BGP view"], 0);
    }

    #[test]
    fn no_evidence_flags_ambiguity() {
        let pages = vec![page("p0", "mystery <x>", "Orphan view", vec![])];
        let d = derive_hierarchy(&pages);
        let amb = d
            .ambiguous
            .iter()
            .find(|a| a.view == "Orphan view")
            .unwrap();
        assert_eq!(amb.reason, AmbiguityReason::NoEvidence);
    }

    #[test]
    fn self_match_failures_counted() {
        // Snippet's innermost line does not instantiate the page's CLI.
        let pages = vec![page(
            "p0",
            "vlan <vlan-id>",
            "system view",
            vec![vec!["something else entirely"]],
        )];
        let d = derive_hierarchy(&pages);
        assert_eq!(d.stats.self_match_failures, 1);
    }

    #[test]
    fn explicit_context_bypasses_derivation() {
        let mut opener = page("p0", "bgp <autonomous-system>", "configure", vec![]);
        opener.context_path = Some(vec!["configure".into()]);
        opener.enters_view = Some("configure BGP".into());
        let mut child = page("p1", "router-id <ip-address>", "configure BGP", vec![]);
        child.context_path = Some(vec!["configure".into(), "configure BGP".into()]);
        let d = derive_hierarchy(&[opener, child]);
        assert_eq!(d.openers.get("configure BGP"), Some(&0));
        assert_eq!(d.root_view.as_deref(), Some("configure"));
        assert_eq!(d.stats.example_snippets, 0, "no examples inspected");
    }

    #[test]
    fn nested_views_derive_transitively() {
        let pages = vec![
            page(
                "p0",
                "bgp <as-number>",
                "system view",
                vec![vec!["bgp 100"]],
            ),
            page(
                "p1",
                "ipv4-family unicast",
                "BGP view",
                vec![vec!["bgp 100", " ipv4-family unicast"]],
            ),
            page(
                "p2",
                "preference <preference>",
                "BGP-IPv4 view",
                vec![vec!["bgp 100", " ipv4-family unicast", "  preference 120"]],
            ),
        ];
        let d = derive_hierarchy(&pages);
        assert_eq!(d.openers["BGP view"], 0);
        assert_eq!(d.openers["BGP-IPv4 view"], 1);
    }
}
