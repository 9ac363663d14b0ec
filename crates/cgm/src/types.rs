//! The parameter type system.
//!
//! Parameter nodes in a CGM "only require type matching, e.g. string, int
//! or ipv4-addr" (§5.2). The type of a placeholder is inferred from its
//! name, mirroring how a NetOps engineer reads `<ipv4-address>` or
//! `<as-number>`: manuals are consistent enough in naming that this
//! heuristic is reliable, and a wrong-but-looser type only ever widens
//! matching (it cannot reject a valid instance).

use rand::Rng;

/// Semantic value type of a placeholder parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamType {
    /// Unsigned integer (ids, numbers, counts, AS numbers, …).
    Int,
    /// Dotted-quad IPv4 address.
    Ipv4,
    /// IPv4 prefix `a.b.c.d/len`.
    Ipv4Prefix,
    /// Colon-separated IPv6 address (simplified check).
    Ipv6,
    /// MAC address `aa:bb:cc:dd:ee:ff` or `aabb-ccdd-eeff`.
    Mac,
    /// Interface designator like `10GE1/0/1` or `eth-trunk2`.
    Interface,
    /// Catch-all word (names, strings).
    Str,
}

impl ParamType {
    /// Infer the type of a placeholder from its name, e.g.
    /// `ipv4-address` → [`ParamType::Ipv4`], `as-number` → [`ParamType::Int`].
    pub fn infer(token: &str) -> ParamType {
        // Names are short and almost always lower case already: fold only
        // when needed, and match needles by byte window, which for these
        // lengths beats setting up a substring searcher per needle.
        let folded;
        let t = if token.bytes().any(|b| b.is_ascii_uppercase()) {
            folded = token.to_ascii_lowercase();
            folded.as_str()
        } else {
            token
        };
        let has = |needle: &str| {
            t.as_bytes()
                .windows(needle.len())
                .any(|w| w == needle.as_bytes())
        };
        if has("ipv6") {
            ParamType::Ipv6
        } else if has("prefix/length") || has("ipv4-prefix") || (has("prefix") && has("length")) {
            ParamType::Ipv4Prefix
        } else if has("ip-addr")
            || has("ipv4")
            || t == "ip"
            || has("ip-address")
            || has("peer-address")
            || has("neighbor-address")
            || has("source-address")
            || has("destination-address")
            || t.ends_with("-address") && !has("mac")
        {
            ParamType::Ipv4
        } else if has("mac") {
            ParamType::Mac
        } else if has("interface") && (has("number") || has("type")) || has("ifname") {
            ParamType::Interface
        } else if has("number")
            || has("-id")
            || t == "id"
            || has("count")
            || has("priority")
            || has("value")
            || has("cost")
            || has("metric")
            || has("limit")
            || has("mtu")
            || has("port")
            || has("weight")
            || has("interval")
            || has("time")
            || has("length")
            || has("seconds")
            || has("preference")
            || has("distance")
            || has("instance")
            || has("label")
            || has("index")
        {
            ParamType::Int
        } else {
            ParamType::Str
        }
    }

    /// The short name used in corpus/reports (`int`, `ipv4-addr`, …).
    pub fn name(&self) -> &'static str {
        match self {
            ParamType::Int => "int",
            ParamType::Ipv4 => "ipv4-addr",
            ParamType::Ipv4Prefix => "ipv4-prefix",
            ParamType::Ipv6 => "ipv6-addr",
            ParamType::Mac => "mac-addr",
            ParamType::Interface => "interface",
            ParamType::Str => "string",
        }
    }

    /// True if `value` is a plausible instance of this type.
    pub fn matches(&self, value: &str) -> bool {
        if value.is_empty() {
            return false;
        }
        match self {
            ParamType::Int => value.chars().all(|c| c.is_ascii_digit()),
            ParamType::Ipv4 => is_ipv4(value),
            ParamType::Ipv4Prefix => match value.split_once('/') {
                Some((addr, len)) => {
                    is_ipv4(addr) && len.parse::<u8>().map(|l| l <= 32).unwrap_or(false)
                }
                None => false,
            },
            ParamType::Ipv6 => {
                value.contains(':')
                    && value
                        .chars()
                        .all(|c| c.is_ascii_hexdigit() || c == ':' || c == '/')
            }
            ParamType::Mac => is_mac(value),
            ParamType::Interface => {
                // `10GE1/0/1`, `eth-trunk2`, `GigabitEthernet0/0/1` —
                // letters and digits mixed, plus designator punctuation.
                value.chars().any(|c| c.is_ascii_alphabetic())
                    && value.chars().any(|c| c.is_ascii_digit())
                    && value
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '/' | '-' | '.' | ':'))
            }
            // A string parameter accepts any single token that is not
            // template meta-syntax.
            ParamType::Str => !value.contains(['{', '}', '[', ']', '<', '>', '|']),
        }
    }

    /// Sample a plausible value of this type (for generated instances,
    /// §5.3). Deterministic given the RNG state.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> String {
        match self {
            ParamType::Int => rng.gen_range(1u32..4094).to_string(),
            ParamType::Ipv4 => format!(
                "10.{}.{}.{}",
                rng.gen_range(0u8..=255),
                rng.gen_range(0u8..=255),
                rng.gen_range(1u8..=254)
            ),
            ParamType::Ipv4Prefix => format!(
                "10.{}.{}.0/{}",
                rng.gen_range(0u8..=255),
                rng.gen_range(0u8..=255),
                rng.gen_range(8u8..=30)
            ),
            ParamType::Ipv6 => format!(
                "2001:db8:{:x}::{:x}",
                rng.gen_range(0u16..0xffff),
                rng.gen_range(1u16..0xffff)
            ),
            ParamType::Mac => format!(
                "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
                rng.gen_range(0u8..=255),
                rng.gen_range(0u8..=255),
                rng.gen_range(0u8..=255),
                rng.gen_range(0u8..=255),
                rng.gen_range(0u8..=255),
                rng.gen_range(0u8..=255)
            ),
            ParamType::Interface => format!("10GE1/0/{}", rng.gen_range(1u8..48)),
            ParamType::Str => {
                const WORDS: &[&str] =
                    &["test", "core", "edge", "mgmt", "prod", "lab", "dmz", "wan"];
                format!(
                    "{}{}",
                    WORDS[rng.gen_range(0..WORDS.len())],
                    rng.gen_range(1u8..100)
                )
            }
        }
    }
}

fn is_ipv4(s: &str) -> bool {
    let mut count = 0;
    for part in s.split('.') {
        count += 1;
        if count > 4 || part.is_empty() || part.len() > 3 {
            return false;
        }
        if !part.chars().all(|c| c.is_ascii_digit()) {
            return false;
        }
        if part.parse::<u16>().map(|v| v > 255).unwrap_or(true) {
            return false;
        }
    }
    count == 4
}

fn is_mac(s: &str) -> bool {
    let colon_form = s.split(':').count() == 6
        && s.split(':')
            .all(|p| p.len() == 2 && p.chars().all(|c| c.is_ascii_hexdigit()));
    let dash_form = s.split('-').count() == 3
        && s.split('-')
            .all(|p| p.len() == 4 && p.chars().all(|c| c.is_ascii_hexdigit()));
    colon_form || dash_form
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn inference_from_placeholder_names() {
        assert_eq!(ParamType::infer("ipv4-address"), ParamType::Ipv4);
        assert_eq!(ParamType::infer("ip-addr"), ParamType::Ipv4);
        assert_eq!(ParamType::infer("ipv6-address"), ParamType::Ipv6);
        assert_eq!(ParamType::infer("ip-prefix/length"), ParamType::Ipv4Prefix);
        assert_eq!(ParamType::infer("as-number"), ParamType::Int);
        assert_eq!(ParamType::infer("vlan-id"), ParamType::Int);
        assert_eq!(ParamType::infer("mac-address"), ParamType::Mac);
        assert_eq!(ParamType::infer("group-name"), ParamType::Str);
        assert_eq!(ParamType::infer("acl-name"), ParamType::Str);
        assert_eq!(ParamType::infer("instance-id"), ParamType::Int);
    }

    #[test]
    fn int_matching() {
        let t = ParamType::Int;
        assert!(t.matches("100"));
        assert!(t.matches("0"));
        assert!(!t.matches("10.1.1.1"));
        assert!(!t.matches("ten"));
        assert!(!t.matches(""));
    }

    #[test]
    fn ipv4_matching() {
        let t = ParamType::Ipv4;
        assert!(t.matches("10.1.1.1"));
        assert!(t.matches("255.255.255.255"));
        assert!(!t.matches("256.1.1.1"));
        assert!(!t.matches("10.1.1"));
        assert!(!t.matches("10.1.1.1.1"));
        assert!(!t.matches("10.1.1.x"));
    }

    #[test]
    fn prefix_matching() {
        let t = ParamType::Ipv4Prefix;
        assert!(t.matches("10.0.0.0/8"));
        assert!(t.matches("192.168.1.0/24"));
        assert!(!t.matches("10.0.0.0/33"));
        assert!(!t.matches("10.0.0.0"));
    }

    #[test]
    fn mac_matching() {
        let t = ParamType::Mac;
        assert!(t.matches("aa:bb:cc:dd:ee:ff"));
        assert!(t.matches("aabb-ccdd-eeff"));
        assert!(!t.matches("aa:bb:cc"));
        assert!(!t.matches("zz:bb:cc:dd:ee:ff"));
    }

    #[test]
    fn string_rejects_meta_syntax() {
        let t = ParamType::Str;
        assert!(t.matches("core-rtr1"));
        assert!(!t.matches("<oops>"));
        assert!(!t.matches("{x}"));
    }

    #[test]
    fn sampled_values_match_their_type() {
        let mut rng = StdRng::seed_from_u64(7);
        for ty in [
            ParamType::Int,
            ParamType::Ipv4,
            ParamType::Ipv4Prefix,
            ParamType::Ipv6,
            ParamType::Mac,
            ParamType::Interface,
            ParamType::Str,
        ] {
            for _ in 0..50 {
                let v = ty.sample(&mut rng);
                assert!(
                    ty.matches(&v),
                    "{} sample {v} does not self-match",
                    ty.name()
                );
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..10).map(|_| ParamType::Ipv4.sample(&mut rng)).collect()
        };
        let b: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..10).map(|_| ParamType::Ipv4.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
