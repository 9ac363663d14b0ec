//! `page_key` addresses every persisted parse artifact, so its output
//! is frozen and it must see every byte of a page's HTML.
//!
//! The frozen vectors were computed from the specification (FNV-1a over
//! the length-framed vendor and URL, the HTML's length and `digest64`,
//! then the four budget ceilings) by an independent implementation. A
//! change here orphans every saved store and needs a schema bump.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_html::IngestBudget;
use nassim_parser::page_key;
use proptest::prelude::*;

#[test]
fn page_key_matches_frozen_vectors() {
    let default = IngestBudget::default();
    assert_eq!(
        page_key("helix", "manual://helix/vlan", "<p>page</p>", &default),
        0xf51f_c7f1_cbf6_9943
    );
    assert_eq!(
        page_key("norsk", "manual://norsk/empty", "", &default),
        0x3985_1fa3_afb4_d579
    );
    let tight = IngestBudget {
        max_bytes: 1024,
        max_tokens: 100,
        max_nodes: 10,
        max_depth: 4,
    };
    assert_eq!(
        page_key("helix", "manual://helix/vlan", "<p>page</p>", &tight),
        0x9dc0_4ea4_3124_8cc6
    );
}

fn key(vendor: &str, url: &str, html: &str) -> u64 {
    page_key(vendor, url, html, &IngestBudget::default())
}

proptest! {
    /// Flipping any bits of any one byte changes the key. The HTML and
    /// the mask are ASCII, so the flipped page is still UTF-8.
    #[test]
    fn any_byte_flip_changes_the_key(
        html in "[ -~]{1,300}",
        at in any::<usize>(),
        mask in 1u8..=0x7f,
    ) {
        let at = at % html.len();
        let mut bytes = html.clone().into_bytes();
        bytes[at] ^= mask;
        let flipped = String::from_utf8(bytes).unwrap();
        prop_assert!(key("helix", "u", &flipped) != key("helix", "u", &html), "flip at {at}");
    }

    /// Inserting one byte anywhere, including at either end, changes the key.
    #[test]
    fn any_insert_changes_the_key(
        html in "[ -~]{0,300}",
        at in any::<usize>(),
        byte in 0x20u8..=0x7e,
    ) {
        let at = at % (html.len() + 1);
        let mut inserted = html.clone();
        inserted.insert(at, char::from(byte));
        prop_assert!(key("helix", "u", &inserted) != key("helix", "u", &html), "insert at {at}");
    }

    /// Deleting any one byte changes the key.
    #[test]
    fn any_delete_changes_the_key(html in "[ -~]{1,300}", at in any::<usize>()) {
        let at = at % html.len();
        let mut deleted = html.clone();
        deleted.remove(at);
        prop_assert!(key("helix", "u", &deleted) != key("helix", "u", &html), "delete at {at}");
    }

    /// Any change of URL or vendor changes the key, HTML held fixed.
    #[test]
    fn url_and_vendor_changes_change_the_key(
        html in "[ -~]{0,200}",
        url in "[a-z:/]{0,24}",
        other_url in "[a-z:/]{0,24}",
        vendor in "[a-z]{1,8}",
        other_vendor in "[a-z]{1,8}",
    ) {
        let base = key(&vendor, &url, &html);
        if other_url != url {
            prop_assert!(key(&vendor, &other_url, &html) != base, "url {url:?} -> {other_url:?}");
        }
        if other_vendor != vendor {
            prop_assert!(
                key(&other_vendor, &url, &html) != base,
                "vendor {vendor:?} -> {other_vendor:?}"
            );
        }
    }

    /// Any change of any budget ceiling changes the key.
    #[test]
    fn budget_changes_change_the_key(
        html in "[ -~]{0,200}",
        field in 0usize..4,
        delta in 1usize..1_000_000,
    ) {
        let base = IngestBudget::default();
        let mut changed = base;
        match field {
            0 => changed.max_bytes += delta,
            1 => changed.max_tokens += delta,
            2 => changed.max_nodes += delta,
            _ => changed.max_depth += delta,
        }
        prop_assert!(
            page_key("helix", "u", &html, &changed) != page_key("helix", "u", &html, &base),
            "budget field {field} +{delta}"
        );
    }
}
