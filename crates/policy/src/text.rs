//! A small text format for policies, for configuration files and CLI use.
//!
//! One policy per line, Table-I style:
//!
//! ```text
//! # comment
//! src=10.0.0.0/8 dst=* sport=* dport=80 proto=tcp => FW, IDS, WP
//! src=* dst=10.3.0.0/16 dport=2000-2100 => permit
//! ```
//!
//! Fields may appear in any order; omitted fields are wildcards. The
//! action list is either `permit` or a comma-separated chain of
//! `FW | IDS | WP | TM | NF<n>`.

use std::fmt;

use sdm_netsim::Protocol;

use crate::action::{ActionList, NetworkFunction};
use crate::descriptor::{PortMatch, ProtoMatch, TrafficDescriptor};
use crate::policy::{Policy, PolicySet};

/// Error from parsing policy text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParsePolicyError {}

fn err(line: usize, message: impl Into<String>) -> ParsePolicyError {
    ParsePolicyError {
        line,
        message: message.into(),
    }
}

/// Parses one policy line (without comments). See the module docs for the
/// grammar.
///
/// # Errors
///
/// Returns a [`ParsePolicyError`] describing the first problem found; the
/// reported line number is `line`.
pub fn parse_policy_line(text: &str, line: usize) -> Result<Policy, ParsePolicyError> {
    let (match_part, action_part) = text
        .split_once("=>")
        .ok_or_else(|| err(line, "missing '=>' between match and actions"))?;

    let mut d = TrafficDescriptor::new();
    for field in match_part.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| err(line, format!("field '{field}' is not key=value")))?;
        match key {
            "src" => {
                d.src = value
                    .parse()
                    .map_err(|e| err(line, format!("src: {e}")))?;
            }
            "dst" => {
                d.dst = value
                    .parse()
                    .map_err(|e| err(line, format!("dst: {e}")))?;
            }
            "sport" => d.src_port = parse_port(value, line)?,
            "dport" => d.dst_port = parse_port(value, line)?,
            "proto" => d.proto = parse_proto(value, line)?,
            other => return Err(err(line, format!("unknown field '{other}'"))),
        }
    }

    let action_part = action_part.trim();
    let actions = if action_part.eq_ignore_ascii_case("permit") {
        ActionList::permit()
    } else {
        let mut functions = Vec::new();
        for name in action_part.split(',') {
            functions.push(parse_function(name.trim(), line)?);
        }
        if functions.is_empty() {
            return Err(err(line, "empty action list (use 'permit')"));
        }
        ActionList::chain(functions)
    };
    Ok(Policy::new(d, actions))
}

fn parse_port(value: &str, line: usize) -> Result<PortMatch, ParsePolicyError> {
    if value == "*" {
        return Ok(PortMatch::Any);
    }
    if let Some((lo, hi)) = value.split_once('-') {
        let lo: u16 = lo
            .parse()
            .map_err(|_| err(line, format!("bad port '{lo}'")))?;
        let hi: u16 = hi
            .parse()
            .map_err(|_| err(line, format!("bad port '{hi}'")))?;
        if lo > hi {
            return Err(err(line, format!("inverted port range {lo}-{hi}")));
        }
        return Ok(PortMatch::Range(lo, hi));
    }
    let p: u16 = value
        .parse()
        .map_err(|_| err(line, format!("bad port '{value}'")))?;
    Ok(PortMatch::Exact(p))
}

fn parse_proto(value: &str, line: usize) -> Result<ProtoMatch, ParsePolicyError> {
    Ok(match value.to_ascii_lowercase().as_str() {
        "*" => ProtoMatch::Any,
        "tcp" => ProtoMatch::Is(Protocol::Tcp),
        "udp" => ProtoMatch::Is(Protocol::Udp),
        other => {
            let n: u8 = other
                .parse()
                .map_err(|_| err(line, format!("unknown protocol '{value}'")))?;
            ProtoMatch::Is(Protocol::from(n))
        }
    })
}

fn parse_function(name: &str, line: usize) -> Result<NetworkFunction, ParsePolicyError> {
    Ok(match name.to_ascii_uppercase().as_str() {
        "FW" => NetworkFunction::Firewall,
        "IDS" => NetworkFunction::Ids,
        "WP" => NetworkFunction::WebProxy,
        "TM" => NetworkFunction::TrafficMonitor,
        other => {
            let n = other
                .strip_prefix("NF")
                .and_then(|s| s.parse::<u8>().ok())
                .ok_or_else(|| err(line, format!("unknown function '{name}'")))?;
            NetworkFunction::Custom(n)
        }
    })
}

/// Parses a whole policy document: one policy per line, `#` comments and
/// blank lines ignored, priority = line order.
///
/// # Errors
///
/// Returns the first [`ParsePolicyError`], with its line number.
///
/// # Example
///
/// ```
/// let text = "src=10.0.0.0/8 dst=10.0.0.0/8 dport=80 => permit\n\
///             dst=10.0.0.0/8 dport=80 => FW, IDS\n";
/// let set = sdm_policy::parse_policies(text)?;
/// assert_eq!(set.len(), 2);
/// # Ok::<(), sdm_policy::ParsePolicyError>(())
/// ```
pub fn parse_policies(text: &str) -> Result<PolicySet, ParsePolicyError> {
    let mut set = PolicySet::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        set.push(parse_policy_line(line, i + 1)?);
    }
    Ok(set)
}

/// Renders a policy in the parseable text format (inverse of
/// [`parse_policy_line`]).
pub fn policy_to_line(policy: &Policy) -> String {
    let d = &policy.descriptor;
    let mut parts = Vec::new();
    if !d.src.is_any() {
        parts.push(format!("src={}", d.src));
    }
    if !d.dst.is_any() {
        parts.push(format!("dst={}", d.dst));
    }
    if !d.src_port.is_any() {
        parts.push(format!("sport={}", d.src_port));
    }
    if !d.dst_port.is_any() {
        parts.push(format!("dport={}", d.dst_port));
    }
    if let ProtoMatch::Is(p) = d.proto {
        parts.push(format!("proto={p}"));
    }
    if parts.is_empty() {
        parts.push("src=*".to_string());
    }
    let actions = if policy.actions.is_permit() {
        "permit".to_string()
    } else {
        policy
            .actions
            .functions()
            .iter()
            .map(|f| f.abbrev())
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!("{} => {}", parts.join(" "), actions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_netsim::FiveTuple;

    const TABLE_ONE: &str = "
            # Table I for subnet a = 10.0.0.0/8
            src=10.0.0.0/8 dst=10.0.0.0/8 dport=80 => permit
            src=10.0.0.0/8 dst=10.0.0.0/8 sport=80 => permit
            dst=10.0.0.0/8 dport=80 => FW, IDS
            src=10.0.0.0/8 sport=80 => IDS, FW
            src=10.0.0.0/8 dport=80 => FW, IDS, WP
            dst=10.0.0.0/8 sport=80 => WP, IDS, FW
            ";

    #[test]
    fn parses_table_one_style_lines() {
        let set = parse_policies(TABLE_ONE).unwrap();
        assert_eq!(set.len(), 6);
        let ft = FiveTuple {
            src: "93.1.1.1".parse().unwrap(),
            dst: "10.2.0.1".parse().unwrap(),
            src_port: 999,
            dst_port: 80,
            proto: Protocol::Tcp,
        };
        let (id, p) = set.first_match(&ft).unwrap();
        assert_eq!(id.index(), 2);
        assert_eq!(p.actions.to_string(), "FW -> IDS");
    }

    #[test]
    fn field_order_is_free_and_defaults_are_wildcards() {
        let p = parse_policy_line("dport=80 src=10.0.0.0/8 => TM", 1).unwrap();
        assert!(p.descriptor.dst.is_any());
        assert_eq!(p.descriptor.dst_port, PortMatch::Exact(80));
        assert_eq!(p.actions.functions(), &[NetworkFunction::TrafficMonitor]);
    }

    #[test]
    fn port_ranges_and_protocols() {
        let p = parse_policy_line("dport=8000-8080 proto=udp => NF7", 1).unwrap();
        assert_eq!(p.descriptor.dst_port, PortMatch::Range(8000, 8080));
        assert_eq!(p.descriptor.proto, ProtoMatch::Is(Protocol::Udp));
        assert_eq!(p.actions.functions(), &[NetworkFunction::Custom(7)]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_policies("dst=* => FW\n\nbogus line\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("line 3"));
        assert!(parse_policy_line("dport=99999 => FW", 4).is_err());
        assert!(parse_policy_line("dport=90-80 => FW", 5).is_err());
        assert!(parse_policy_line("dport=80 => NOPE", 6).is_err());
        assert!(parse_policy_line("dport=80 FW", 7).is_err());
        assert!(parse_policy_line("flavor=mild => FW", 8).is_err());
        assert!(parse_policy_line("dport=80 => ", 9).is_err());
    }

    #[test]
    fn round_trips_through_text() {
        let lines = [
            "src=10.0.0.0/8 dport=80 => FW, IDS, WP",
            "dst=10.3.0.0/16 sport=1000-2000 proto=udp => TM",
            "src=* => permit",
        ];
        for l in lines {
            let p = parse_policy_line(l, 1).unwrap();
            let rendered = policy_to_line(&p);
            let p2 = parse_policy_line(&rendered, 1).unwrap();
            assert_eq!(p, p2, "round trip of '{l}' via '{rendered}'");
        }
    }

    #[test]
    fn mutated_policy_documents_never_panic_and_errors_point_inside_them() {
        // Bytes the grammar cares about, and ones that break UTF-8.
        const BYTES: &[u8] = b" \t\r\n#=>,-/.*0123456789srcdtpoFWIDSTMNPermitudp\xc3\xa9\xff";
        sdm_util::prop::fuzz_text(
            "parse_policies over a byte-mutated Table I document",
            2_000,
            &[TABLE_ONE],
            BYTES,
            |text| {
                if let Err(e) = parse_policies(text) {
                    let lines = text.lines().count();
                    sdm_util::prop_assert!((1..=lines).contains(&e.line), "{e}: the text has {lines} lines");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let set = parse_policies("# just a comment\n\n   \ndst=* dport=22 => IDS # trailing\n").unwrap();
        assert_eq!(set.len(), 1);
    }
}
