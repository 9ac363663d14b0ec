//! The JSON form of a content-addressed artifact map.
//!
//! Every artifact-store section maps a 64-bit content key to an
//! artifact. The vendored JSON value model has string keys only, so a
//! key is written as fixed-width lower-case hex (`{k:016x}`) and the
//! entries are sorted by key, which makes the bytes a pure function of
//! the map's contents. [`encode`] writes that form; [`decode`] reads it
//! back one entry at a time, keeping every entry that decodes and
//! describing every one that does not. Whether a loss is tolerable is
//! the caller's decision, not the codec's.

use serde::{DeError, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// `map` as a JSON object with sorted `{k:016x}` keys, each value
/// written by `entry`.
pub fn encode<T>(map: &HashMap<u64, Arc<T>>, entry: impl Fn(&T) -> Value) -> Value {
    let mut entries: Vec<(String, Value)> = map
        .iter()
        .map(|(k, v)| (format!("{k:016x}"), entry(v)))
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Value::Obj(entries)
}

/// Inverse of [`encode`]: every entry whose key is hex and whose value
/// `entry` accepts (given the parsed key, so it can check an artifact
/// against its content key) is kept; every other entry is skipped and
/// described in the returned list. `None` or a value that is not an
/// object decodes to an empty map and one description.
pub fn decode<T>(
    v: Option<&Value>,
    entry: impl Fn(u64, &Value) -> Result<T, DeError>,
) -> (HashMap<u64, Arc<T>>, Vec<String>) {
    let Some(Value::Obj(entries)) = v else {
        return (
            HashMap::new(),
            vec!["entries (not a JSON object)".to_string()],
        );
    };
    let mut map = HashMap::with_capacity(entries.len());
    let mut errors = Vec::new();
    for (key, val) in entries {
        let decoded = u64::from_str_radix(key, 16)
            .map_err(|e| DeError::new(format!("key is not hex: {e}")))
            .and_then(|k| Ok((k, entry(k, val)?)));
        match decoded {
            Ok((k, artifact)) => {
                map.insert(k, Arc::new(artifact));
            }
            Err(e) => errors.push(format!("entry `{key}`: {}", e.0)),
        }
    }
    (map, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(_: u64, v: &Value) -> Result<f64, DeError> {
        match v {
            Value::Num(n) => Ok(*n),
            _ => Err(DeError::new("not a number")),
        }
    }

    #[test]
    fn round_trips_with_sorted_fixed_width_keys() {
        let map: HashMap<u64, Arc<f64>> = [(u64::MAX, 2.0), (0xab, 1.0), (0, 0.5)]
            .into_iter()
            .map(|(k, v)| (k, Arc::new(v)))
            .collect();
        let v = encode(&map, |n| Value::Num(*n));
        assert_eq!(
            serde_json::to_string(&v).unwrap(),
            r#"{"0000000000000000":0.5,"00000000000000ab":1,"ffffffffffffffff":2}"#
        );
        let (back, errors) = decode(Some(&v), num);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(back, map);
    }

    #[test]
    fn bad_entries_are_skipped_and_described() {
        let v: Value = serde_json::from_str(r#"{"zz":1,"01":"x","02":2}"#).unwrap();
        let (map, errors) = decode(Some(&v), num);
        assert_eq!(map.len(), 1);
        assert_eq!(*map[&2], 2.0);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(
            errors[0].starts_with("entry `zz`: key is not hex"),
            "{}",
            errors[0]
        );
        assert_eq!(errors[1], "entry `01`: not a number");
        for missing in [None, Some(&Value::Num(1.0))] {
            let (map, errors) = decode(missing, num);
            assert!(map.is_empty());
            assert_eq!(errors.len(), 1);
        }
    }
}
