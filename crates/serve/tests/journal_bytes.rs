//! Frozen bytes of one journal line per record kind. The journal is
//! replayed after a restart by whatever daemon version comes up next, so
//! `to_line` must keep producing exactly these bytes and `parse_line`
//! must keep accepting them. The `submitted` page HTML needs every kind
//! of string escape the codec writes: `"`, `\`, a newline, a tab, a raw
//! control character, non-ASCII text and an astral-plane character.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_serve::JournalRecord;
use serde::Value;

fn submitted() -> JournalRecord {
    JournalRecord::Submitted {
        job: "job-7".into(),
        vendor: "helix".into(),
        deadline_ms: Some(30_000),
        pages: vec![
            (
                "manual://helix/system/a".into(),
                "<p class=\"cmd\">a\\b\nc\td\u{1}e caf\u{e9} \u{1F600}</p>\n".into(),
            ),
            ("manual://helix/system/b".into(), String::new()),
        ],
    }
}

fn stage() -> JournalRecord {
    JournalRecord::Stage {
        job: "job-7".into(),
        stage: "hierarchy".into(),
        key: "00ff00ff00ff00ff".into(),
    }
}

fn done() -> JournalRecord {
    JournalRecord::Done {
        job: "job-7".into(),
        result: Value::Obj(vec![
            ("vendor".into(), Value::Str("helix".into())),
            ("nodes".into(), Value::Num(42.0)),
            ("ratio".into(), Value::Num(0.125)),
            ("neg".into(), Value::Num(-3.0)),
            ("big".into(), Value::Num(9_007_199_254_740_991.0)),
            ("flag".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            (
                "views".into(),
                Value::Arr(vec![Value::Str("system view".into()), Value::Arr(vec![])]),
            ),
            ("empty".into(), Value::Obj(vec![])),
        ]),
    }
}

const SUBMITTED_LINE: &str = r#"{"sum":"e58da3cc7aaf892f","rec":{"type":"submitted","job":"job-7","vendor":"helix","deadline_ms":30000,"pages":[["manual://helix/system/a","<p class=\"cmd\">a\\b\nc\td\u0001e café 😀</p>\n"],["manual://helix/system/b",""]]}}"#;

const STAGE_LINE: &str = r#"{"sum":"9605105d39567575","rec":{"type":"stage","job":"job-7","stage":"hierarchy","key":"00ff00ff00ff00ff"}}"#;

const DONE_LINE: &str = r#"{"sum":"4435184aca207e0c","rec":{"type":"done","job":"job-7","result":{"vendor":"helix","nodes":42,"ratio":0.125,"neg":-3,"big":9007199254740991,"flag":true,"none":null,"views":["system view",[]],"empty":{}}}}"#;

fn cases() -> [(JournalRecord, &'static str); 3] {
    [
        (submitted(), SUBMITTED_LINE),
        (stage(), STAGE_LINE),
        (done(), DONE_LINE),
    ]
}

#[test]
fn to_line_bytes_are_frozen() {
    for (record, line) in cases() {
        assert_eq!(record.to_line(), line);
    }
}

#[test]
fn parse_line_accepts_the_frozen_lines() {
    for (record, line) in cases() {
        assert_eq!(JournalRecord::parse_line(line).unwrap(), record);
    }
}
