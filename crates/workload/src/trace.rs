//! Plain-text flow traces: save a generated workload to disk and replay it
//! later, so experiments are reproducible across machines and versions
//! independent of RNG details.
//!
//! Format, one flow per line (whitespace-separated, `#` comments):
//!
//! ```text
//! # src dst sport dport proto packets policy
//! 10.0.0.17 10.3.4.9 41022 80 tcp 351 12
//! ```

use std::fmt;

use sdm_netsim::{FiveTuple, Protocol};
use sdm_policy::PolicyId;

use crate::flows::Flow;

/// Error from parsing a flow-trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

fn err(line: usize, message: impl Into<String>) -> ParseTraceError {
    ParseTraceError {
        line,
        message: message.into(),
    }
}

/// Renders flows as a trace document (inverse of [`flows_from_text`]).
pub fn flows_to_text(flows: &[Flow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("# src dst sport dport proto packets policy\n");
    for f in flows {
        let t = &f.five_tuple;
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {}",
            t.src,
            t.dst,
            t.src_port,
            t.dst_port,
            t.proto,
            f.packets,
            f.policy.index(),
        );
    }
    out
}

/// Parses a trace document produced by [`flows_to_text`].
///
/// # Errors
///
/// Returns the first malformed line with its number.
///
/// # Example
///
/// ```
/// let text = "10.0.0.1 10.3.0.2 40000 80 tcp 12 0\n";
/// let flows = sdm_workload::flows_from_text(text)?;
/// assert_eq!(flows.len(), 1);
/// assert_eq!(flows[0].packets, 12);
/// # Ok::<(), sdm_workload::ParseTraceError>(())
/// ```
pub fn flows_from_text(text: &str) -> Result<Vec<Flow>, ParseTraceError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 7 {
            return Err(err(line_no, format!("expected 7 fields, got {}", fields.len())));
        }
        let src = fields[0]
            .parse()
            .map_err(|e| err(line_no, format!("src: {e}")))?;
        let dst = fields[1]
            .parse()
            .map_err(|e| err(line_no, format!("dst: {e}")))?;
        let src_port: u16 = fields[2]
            .parse()
            .map_err(|_| err(line_no, format!("bad sport '{}'", fields[2])))?;
        let dst_port: u16 = fields[3]
            .parse()
            .map_err(|_| err(line_no, format!("bad dport '{}'", fields[3])))?;
        let proto = match fields[4].to_ascii_lowercase().as_str() {
            "tcp" => Protocol::Tcp,
            "udp" => Protocol::Udp,
            "ipip" => Protocol::IpInIp,
            other => {
                let n: u8 = other
                    .strip_prefix("proto")
                    .unwrap_or(other)
                    .parse()
                    .map_err(|_| err(line_no, format!("bad proto '{}'", fields[4])))?;
                Protocol::from(n)
            }
        };
        let packets: u64 = fields[5]
            .parse()
            .map_err(|_| err(line_no, format!("bad packet count '{}'", fields[5])))?;
        if packets == 0 {
            return Err(err(line_no, "packet count must be positive"));
        }
        let policy: u32 = fields[6]
            .parse()
            .map_err(|_| err(line_no, format!("bad policy id '{}'", fields[6])))?;
        out.push(Flow {
            five_tuple: FiveTuple {
                src,
                dst,
                src_port,
                dst_port,
                proto,
            },
            packets,
            policy: PolicyId(policy),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::{generate_flows, WorkloadConfig};
    use crate::policies::{evaluation_policies, PolicyClassCounts};
    use sdm_netsim::AddressPlan;
    use sdm_topology::campus::campus;

    #[test]
    fn round_trips_generated_workloads() {
        let plan = campus(1);
        let addrs = AddressPlan::new(&plan);
        let gp = evaluation_policies(&addrs, PolicyClassCounts::default(), 3);
        let flows = generate_flows(
            &gp,
            &addrs,
            &WorkloadConfig {
                flows: 500,
                ..Default::default()
            },
        );
        let text = flows_to_text(&flows);
        let back = flows_from_text(&text).unwrap();
        assert_eq!(flows, back);
    }

    #[test]
    fn mutated_traces_never_panic_and_errors_point_inside_them() {
        let addrs = AddressPlan::new(&campus(1));
        let gp = evaluation_policies(&addrs, PolicyClassCounts::default(), 3);
        let config = WorkloadConfig {
            flows: 40,
            ..Default::default()
        };
        let trace = flows_to_text(&generate_flows(&gp, &addrs, &config));
        // Bytes the grammar cares about, and ones that break UTF-8.
        const BYTES: &[u8] = b" \t\r\n#.0123456789tcpudpipro\xc3\xa9\xff";
        sdm_util::prop::fuzz_text(
            "flows_from_text over a byte-mutated campus trace",
            2_000,
            &[&trace],
            BYTES,
            |text| {
                if let Err(e) = flows_from_text(text) {
                    let lines = text.lines().count();
                    sdm_util::prop_assert!((1..=lines).contains(&e.line), "{e}: the text has {lines} lines");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn parses_comments_and_blanks() {
        let text = "# header\n\n10.0.0.1 10.3.0.2 1 2 udp 5 3 # trailing\n";
        let flows = flows_from_text(text).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].five_tuple.proto, Protocol::Udp);
        assert_eq!(flows[0].policy, PolicyId(3));
    }

    #[test]
    fn errors_with_line_numbers() {
        assert_eq!(flows_from_text("10.0.0.1 10.0.0.2 1 2 tcp 5\n").unwrap_err().line, 1);
        assert_eq!(
            flows_from_text("# ok\n10.0.0.1 10.0.0.2 1 2 tcp 0 0\n").unwrap_err().line,
            2
        );
        assert!(flows_from_text("x y 1 2 tcp 5 0\n").is_err());
        assert!(flows_from_text("10.0.0.1 10.0.0.2 1 2 quic 5 0\n").is_err());
    }

    #[test]
    fn exotic_protocols_round_trip() {
        let text = "10.0.0.1 10.0.0.2 0 0 proto47 9 1\n";
        let flows = flows_from_text(text).unwrap();
        assert_eq!(flows[0].five_tuple.proto, Protocol::Other(47));
        let again = flows_from_text(&flows_to_text(&flows)).unwrap();
        assert_eq!(flows, again);
    }
}
