//! Proptest "no-panic" fuzz for every decoder that reads untrusted JSON
//! bytes: daemon request and reply frames, journal lines and artifact
//! store files.
//!
//! * `Request::parse`, `Reply::parse` and `JournalRecord::parse_line`
//!   return `Ok` or a typed error on printable soup, JSON-ish token soup
//!   and mutated valid lines, never a panic.
//! * `ArtifactStore::load` and `load_lossy` on truncated, byte-flipped
//!   and section-swapped store files either load or return a typed
//!   error; a strict load that succeeds holds exactly what was saved, so
//!   it re-saves to the original bytes.
//! * Equivalent but non-canonical JSON — the bytes the writer never
//!   produces — fails a section's or record's checksum.
//!
//! Inputs that could abort the process (nesting far past the parser's
//! recursion cap) run in a child process, so an abort fails the test
//! instead of killing the whole run.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::corpus::Udm;
use nassim::datasets::{catalog::Catalog, manualgen, style, ManualPage};
use nassim::html::IngestBudget;
use nassim::mapper::RetrievalMode;
use nassim::parser::parser_for;
use nassim::ArtifactStore;
use nassim_diag::NassimError;
use nassim_serve::{DemoEmbedder, JournalRecord, Reply, Request};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use serde::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Valid request, reply and journal lines the mutations start from.
const LINES: &[&str] = &[
    r#"{"op":"health"}"#,
    r#"{"op":"inspect","vendor":"helix"}"#,
    r#"{"op":"query-mapping","sequences":["bgp <as-number>","peer <ipv4-address>"],"k":5,"deadline_ms":100,"mode":"ann:4"}"#,
    r#"{"op":"submit-manual","vendor":"helix","job":"j-1","pages":[["manual://a","<p class=\"x\">a\\b\n\u0001é😀</p>"]]}"#,
    r#"{"ok":{"vendors":["helix","norsk"],"nodes":42,"ratio":0.5}}"#,
    r#"{"progress":{"stage":"parse","pages":3}}"#,
    r#"{"err":{"kind":"malformed","message":"bad frame"}}"#,
    r#"{"sum":"9605105d39567575","rec":{"type":"stage","job":"job-7","stage":"hierarchy","key":"00ff00ff00ff00ff"}}"#,
    r#"{"sum":"4435184aca207e0c","rec":{"type":"done","job":"job-7","result":{"vendor":"helix","nodes":42,"ratio":0.125,"neg":-3,"big":9007199254740991,"flag":true,"none":null,"views":["system view",[]],"empty":{}}}}"#,
];

/// Characters a mutation inserts or substitutes.
const CHARS: &[char] = &[
    '{', '}', '[', ']', ',', ':', '"', '\\', 'u', '0', '-', 'e', '.', ' ', '\n', '\u{1}', 'é',
    '😀', 'n', 't',
];

/// JSON-ish tokens that almost make frames.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\"op\"",
    "\"ok\"",
    "\"err\"",
    "\"kind\"",
    "\"sum\"",
    "\"rec\"",
    "\"type\"",
    "\"job\"",
    "\"pages\"",
    "\"health\"",
    "\"submit-manual\"",
    "\"done\"",
    "\\",
    "\\u",
    "\\ud83d",
    "\\u0041",
    "0",
    "-1",
    "1e999",
    "1.5",
    "true",
    "null",
    "nul",
    " ",
    "é",
    "😀",
];

fn decode_all(line: &str) {
    let _ = Request::parse(line);
    let _ = Reply::parse(line);
    let _ = JournalRecord::parse_line(line);
}

fn assert_decoders_survive(line: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        catch_unwind(|| decode_all(line)).is_ok(),
        "a decoder panicked on {line:?}"
    );
    Ok(())
}

fn mutate_line(line: &str, at: usize, op: usize, c: usize) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    let at = at % (chars.len() + 1);
    match op {
        0 if at < chars.len() => chars[at] = CHARS[c],
        1 if at < chars.len() => {
            chars.remove(at);
        }
        2 => chars.truncate(at),
        _ => chars.insert(at, CHARS[c]),
    }
    chars.into_iter().collect()
}

// ---- the store under test -------------------------------------------------

/// A small clean helix manual's first pages, generated once.
fn pages() -> &'static [ManualPage] {
    static PAGES: OnceLock<Vec<ManualPage>> = OnceLock::new();
    PAGES.get_or_init(|| {
        let catalog = Catalog::base();
        let st = style::vendor("helix").unwrap();
        let mut pages = manualgen::generate(
            &st,
            &catalog,
            &manualgen::GenOptions {
                seed: 902,
                syntax_error_rate: 0.0,
                ambiguity_rate: 0.0,
                ..Default::default()
            },
        )
        .pages;
        pages.truncate(4);
        pages
    })
}

/// The saved bytes of a store with an entry in every section.
fn pristine_store() -> &'static str {
    static STORE: OnceLock<String> = OnceLock::new();
    STORE.get_or_init(|| {
        let parser = parser_for("helix").unwrap();
        let mut store = ArtifactStore::new();
        let refs = pages().iter().map(|p| (p.url.as_str(), p.html.as_str()));
        nassim::assimilate_incremental(parser.as_ref(), refs, &IngestBudget::default(), &mut store)
            .unwrap();
        let mut udm = Udm::new("fuzz-udm");
        let bgp = udm.add(udm.root(), "bgp", "", "");
        udm.add(bgp, "peer-as", "The peer's AS number.", "uint32");
        udm.add(bgp, "router-id", "The router ID.", "ipv4-address");
        let embedder = Arc::new(DemoEmbedder::new(8));
        store.mapper_dl_sublinear(&udm, embedder, "demo-8", RetrievalMode::Quantized);
        let path = scratch_dir("pristine").join("store.json");
        store.save(&path).unwrap();
        std::fs::read_to_string(&path).unwrap()
    })
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nassim-json-fuzz-{}-{name}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SECTIONS: [&str; 6] = ["pages", "syntax", "graphs", "evidence", "embeddings", "ann"];

/// Byte range of the value of top-level member `name` in a saved store.
fn member_span(text: &str, name: &str) -> std::ops::Range<usize> {
    let (value, spans) = serde_json::from_str_with_spans(text).unwrap();
    let Value::Obj(entries) = value else {
        panic!("store is not an object")
    };
    let i = entries.iter().position(|(k, _)| k == name).unwrap();
    spans[i].clone()
}

/// Swap two equal-length-agnostic byte ranges (`a` before `b`).
fn swap_ranges(text: &str, a: std::ops::Range<usize>, b: std::ops::Range<usize>) -> String {
    let (a, b) = if a.start < b.start { (a, b) } else { (b, a) };
    [
        &text[..a.start],
        &text[b.clone()],
        &text[a.end..b.start],
        &text[a],
        &text[b.end..],
    ]
    .concat()
}

/// The typed outcomes a store load may have on damaged input.
fn is_typed(err: &NassimError) -> bool {
    matches!(
        err,
        NassimError::ArtifactCorrupt { .. }
            | NassimError::ArtifactOutdated { .. }
            | NassimError::Io { .. }
    )
}

fn resave(store: &ArtifactStore, dir: &Path) -> Vec<u8> {
    let path = dir.join("resaved.json");
    store.save(&path).unwrap();
    std::fs::read(&path).unwrap()
}

/// Load `bytes` both ways: no panic, `Ok` or a typed error, and a strict
/// load that succeeds re-saves to the pristine bytes. Strict is the lossy
/// load that refuses any loss: `load` is `Ok` exactly when `load_lossy`
/// is `Ok` with no diagnostic, the two stores then re-save to the same
/// bytes, and two failures are the same error variant.
fn check_store_bytes(bytes: &[u8], what: &str) -> Result<(), TestCaseError> {
    let dir = scratch_dir("case");
    let path = dir.join("store.json");
    std::fs::write(&path, bytes).unwrap();
    let strict = catch_unwind(|| ArtifactStore::load(&path));
    let lossy = catch_unwind(|| ArtifactStore::load_lossy(&path));
    prop_assert!(strict.is_ok(), "strict load panicked on {what}");
    prop_assert!(lossy.is_ok(), "lossy load panicked on {what}");
    let (strict, lossy) = (strict.unwrap(), lossy.unwrap());
    match &strict {
        Ok(store) => prop_assert!(
            resave(store, &dir) == pristine_store().as_bytes(),
            "{what}: a strict load succeeded on bytes that do not hold the saved store"
        ),
        Err(e) => prop_assert!(is_typed(e), "{what}: untyped strict error {e:?}"),
    }
    match &lossy {
        Ok((store, _)) => {
            let saved = catch_unwind(AssertUnwindSafe(|| resave(store, &dir)));
            prop_assert!(saved.is_ok(), "{what}: re-saving a lossy load panicked");
        }
        Err(e) => prop_assert!(is_typed(e), "{what}: untyped lossy error {e:?}"),
    }
    match (&strict, &lossy) {
        (Ok(store), Ok((salvaged, diags))) => {
            prop_assert!(
                diags.is_empty(),
                "{what}: strict load succeeded but the lossy load reported {diags:?}"
            );
            prop_assert!(
                resave(store, &dir) == resave(salvaged, &dir),
                "{what}: strict and lossy loads hold different stores"
            );
        }
        (Err(e), Ok((_, diags))) => prop_assert!(
            !diags.is_empty(),
            "{what}: strict load failed ({e:?}) but the lossy load lost nothing"
        ),
        (Ok(_), Err(e)) => {
            prop_assert!(false, "{what}: strict load succeeded, lossy failed: {e:?}")
        }
        (Err(a), Err(b)) => prop_assert!(
            std::mem::discriminant(a) == std::mem::discriminant(b),
            "{what}: strict failed with {a:?}, lossy with {b:?}"
        ),
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

proptest! {
    #[test]
    fn frame_decoders_survive_printable_soup(input in "\\PC{0,200}") {
        assert_decoders_survive(&input)?;
    }

    #[test]
    fn frame_decoders_survive_json_soup(ix in prop::collection::vec(0..TOKENS.len(), 0..32)) {
        let input: String = ix.into_iter().map(|i| TOKENS[i]).collect();
        assert_decoders_survive(&input)?;
    }

    #[test]
    fn frame_decoders_survive_mutated_lines(
        line in 0..LINES.len(),
        edits in prop::collection::vec((any::<usize>(), 0usize..4, 0..CHARS.len()), 1..4),
    ) {
        let mut input = LINES[line].to_string();
        for (at, op, c) in edits {
            input = mutate_line(&input, at, op, c);
        }
        assert_decoders_survive(&input)?;
    }

    #[test]
    fn store_loads_survive_truncation(at in any::<usize>()) {
        let text = pristine_store();
        let at = at % text.len();
        check_store_bytes(&text.as_bytes()[..at], &format!("truncated at {at}"))?;
    }

    #[test]
    fn store_loads_survive_byte_flips(flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..4)) {
        let mut bytes = pristine_store().as_bytes().to_vec();
        for &(at, mask) in &flips {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        check_store_bytes(&bytes, &format!("flipped {flips:?}"))?;
    }

    #[test]
    fn store_loads_survive_section_swaps(a in 0..SECTIONS.len(), b in 0..SECTIONS.len(), how in 0usize..3) {
        prop_assume!(a != b);
        let text = pristine_store();
        let (sa, sb) = (member_span(text, SECTIONS[a]), member_span(text, SECTIONS[b]));
        let swapped = match how {
            // Two sections' contents trade places; the footer still
            // holds each name's original checksum.
            0 => swap_ranges(text, sa, sb),
            // The footer's checksums trade places with them.
            1 => {
                let swapped = swap_ranges(text, sa, sb);
                let footer = member_span(&swapped, "checksums");
                let mut sums: Value = serde_json::from_str(&swapped[footer.clone()]).unwrap();
                let Value::Obj(entries) = &mut sums else { panic!("footer is not an object") };
                let (va, vb) = (entries[a].1.clone(), entries[b].1.clone());
                entries[a].1 = vb;
                entries[b].1 = va;
                let sums = serde_json::to_string(&sums).unwrap();
                [&swapped[..footer.start], &sums, &swapped[footer.end..]].concat()
            }
            // Whole members (name and content) trade places: every
            // section still verifies, only the order moved.
            _ => {
                let name_a = SECTIONS[a].len() + 3;
                let name_b = SECTIONS[b].len() + 3;
                swap_ranges(text, sa.start - name_a..sa.end, sb.start - name_b..sb.end)
            }
        };
        check_store_bytes(swapped.as_bytes(), &format!("swapped {a}<->{b} ({how})"))?;
    }
}

#[test]
fn reordered_sections_load_strictly() {
    let text = pristine_store();
    let (pages, ann) = (member_span(text, "pages"), member_span(text, "ann"));
    let swapped = swap_ranges(text, pages.start - 8..pages.end, ann.start - 6..ann.end);
    let dir = scratch_dir("reordered");
    let path = dir.join("store.json");
    std::fs::write(&path, &swapped).unwrap();
    let store = ArtifactStore::load(&path).unwrap();
    assert_eq!(resave(&store, &dir), text.as_bytes());
    std::fs::remove_dir_all(&dir).ok();
}

/// A section that parses to the same value from other bytes — an escape
/// in place of a plain character, or added whitespace — is not what
/// `save` wrote: strict load refuses it as a checksum mismatch, and the
/// lossy load drops that section whole and keeps the rest.
#[test]
fn non_canonical_sections_fail_their_checksum() {
    let text = pristine_store();
    let pristine_dir = scratch_dir("noncanonical-pristine");
    let pristine_path = pristine_dir.join("store.json");
    std::fs::write(&pristine_path, text).unwrap();
    let pristine = ArtifactStore::load(&pristine_path).unwrap();
    assert!(pristine.page_count() > 0 && pristine.syntax_count() > 0);

    let pages = member_span(text, "pages");
    let section = &text[pages.clone()];
    let escaped = section.replacen("\"manual://", "\"\\u006danual://", 1);
    let spaced = format!("{{ {}", &section[1..]);
    for variant in [escaped, spaced] {
        assert_ne!(variant, section);
        let equivalent: Value = serde_json::from_str(&variant).unwrap();
        assert_eq!(equivalent, serde_json::from_str::<Value>(section).unwrap());
        let damaged = [&text[..pages.start], &variant, &text[pages.end..]].concat();
        let dir = scratch_dir("noncanonical");
        let path = dir.join("store.json");
        std::fs::write(&path, &damaged).unwrap();
        match ArtifactStore::load(&path) {
            Err(NassimError::ArtifactCorrupt { reason, .. }) => {
                assert!(reason.contains("`pages` checksum mismatch"), "{reason}");
            }
            other => panic!(
                "strict load accepted a non-canonical section: {:?}",
                other.err()
            ),
        }
        let (store, diags) = ArtifactStore::load_lossy(&path).unwrap();
        assert_eq!(
            store.page_count(),
            0,
            "the unverified section must be dropped whole"
        );
        assert_eq!(store.syntax_count(), pristine.syntax_count());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0]
                .message
                .contains("`pages` failed its integrity checksum"),
            "{}",
            diags[0].message
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&pristine_dir).ok();
}

/// The same holds for a journal record: an escaped character in `rec`
/// is a checksum mismatch, so replay treats the line as a tear.
#[test]
fn non_canonical_journal_records_fail_their_checksum() {
    let line = LINES[7];
    assert!(JournalRecord::parse_line(line).is_ok());
    for variant in [
        line.replacen("\"hierarchy\"", "\"\\u0068ierarchy\"", 1),
        line.replacen(",\"stage\"", ", \"stage\"", 1),
    ] {
        assert_ne!(variant, line);
        let err = JournalRecord::parse_line(&variant).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{variant}: {err}");
    }
}

/// Nesting far past the recursion cap, through every decoder, in a child
/// process: a stack overflow would abort it, which the parent reports.
#[test]
fn deep_nesting_is_a_typed_error_in_every_decoder() {
    const CHILD_ENV: &str = "NASSIM_JSON_FUZZ_DEEP_CHILD";
    if std::env::var_os(CHILD_ENV).is_some() {
        let deep = [
            format!("{{\"op\":{}", "[".repeat(20_000)),
            format!("{{\"ok\":{}", "{\"k\":".repeat(20_000)),
            format!("{{\"sum\":\"0\",\"rec\":{}", "[".repeat(20_000)),
        ];
        for line in &deep {
            let err = Request::parse(line).unwrap_err();
            assert!(err.message.contains("recursion limit"), "{}", err.message);
            assert!(Reply::parse(line).unwrap_err().contains("recursion limit"));
            assert!(JournalRecord::parse_line(line)
                .unwrap_err()
                .contains("recursion limit"));
        }
        let text = pristine_store();
        let pages = member_span(text, "pages");
        let bomb = [
            &text[..pages.start],
            &"[".repeat(20_000),
            &text[pages.end..],
        ]
        .concat();
        let dir = scratch_dir("deep");
        let path = dir.join("store.json");
        std::fs::write(&path, bomb).unwrap();
        for err in [
            ArtifactStore::load(&path).err(),
            ArtifactStore::load_lossy(&path).err(),
        ] {
            match err {
                Some(NassimError::ArtifactCorrupt { reason, .. }) => {
                    assert!(reason.contains("recursion limit"), "{reason}")
                }
                other => panic!("expected a typed corruption, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        return;
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "deep_nesting_is_a_typed_error_in_every_decoder"])
        .args(["--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, "1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "child died ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
