//! Witness lowering: every reach-tier violation carries a concrete flow
//! and a script of simulator actions that reproduces it.
//!
//! The static checker ([`crate::reach`]) proves or refutes assertions over
//! symbolic flow classes; when it refutes one, the verdict is only
//! trustworthy if the *dynamic* data plane agrees. A [`ReplayScenario`] is
//! the bridge: a concrete five-tuple drawn from the violating flow class
//! plus an injection script (`inject`, `fail_middlebox`, …) whose
//! per-step expectations ([`StepExpect`]) are phrased entirely in
//! observable simulator counters — packets delivered, packets dropped at a
//! failed box, per-middlebox load deltas. `ci.sh` replays the committed
//! corpus and fails if the simulator ever disagrees with the static
//! verdict.
//!
//! Scenarios serialize to JSON (via `sdm-util`'s hermetic [`Json`]) so the
//! counterexample corpus can be committed under `results/` and replayed by
//! `sdm reach --replay` without re-running the checker.

use std::fmt;

use sdm_netsim::{FiveTuple, Ipv4Addr, Protocol};
use sdm_util::json::Json;

/// A concrete flow drawn from a violating flow class, in plain-data form
/// (no `FiveTuple` in the wire format so the JSON stays self-describing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessFlow {
    /// Source address (must lie inside the ingress stub's subnet).
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IANA protocol number.
    pub proto: u8,
}

impl WitnessFlow {
    /// The simulator flow identifier for this witness.
    pub fn five_tuple(&self) -> FiveTuple {
        FiveTuple {
            src: self.src,
            dst: self.dst,
            src_port: self.src_port,
            dst_port: self.dst_port,
            proto: protocol_from_number(self.proto),
        }
    }
}

/// Maps an IANA number back to the simulator's [`Protocol`], preferring
/// the named variants so equality against policy matches behaves.
pub fn protocol_from_number(n: u8) -> Protocol {
    match n {
        6 => Protocol::Tcp,
        17 => Protocol::Udp,
        4 => Protocol::IpInIp,
        other => Protocol::Other(other),
    }
}

/// What an [`ReplayStep::Inject`] step must observe, phrased as counter
/// deltas across the step so the check is shard- and batch-invariant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepExpect {
    /// Delivered-packet count (internal or external) must increase.
    pub delivered: bool,
    /// `dropped_failed` (packets steered at a failed box) must increase.
    pub dropped_failed: bool,
    /// Each of these middleboxes must process at least one packet.
    pub must_process: Vec<u32>,
    /// None of these middleboxes may process a packet — the teeth of a
    /// waypoint-bypass witness.
    pub must_not_process: Vec<u32>,
}

/// One action in a replay script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayStep {
    /// Inject `packets` packets of the scenario flow at the ingress stub's
    /// proxy, run the simulator to quiescence, then check `expect` against
    /// the counter deltas.
    Inject {
        /// Number of packets to inject.
        packets: u64,
        /// Counter-delta expectations for this step.
        expect: StepExpect,
    },
    /// Mark a middlebox failed (the hazard injection for stale-pin
    /// windows).
    FailMbox(u32),
    /// Restore a failed middlebox.
    RestoreMbox(u32),
}

/// A replayable counterexample: the executable form of a reach-tier
/// witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayScenario {
    /// Stable scenario name (assertion + class), unique within a corpus.
    pub name: String,
    /// The `R0xx` code this scenario reproduces.
    pub code: String,
    /// Ingress stub network whose proxy injects the flow.
    pub stub: u32,
    /// The concrete witness flow.
    pub flow: WitnessFlow,
    /// The action script, executed in order against one persistent
    /// enforcement instance.
    pub steps: Vec<ReplayStep>,
}

impl ReplayScenario {
    /// Serializes the scenario to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("code", Json::from(self.code.as_str())),
            ("stub", Json::from(self.stub as u64)),
            (
                "flow",
                Json::obj([
                    ("src", Json::from(self.flow.src.to_string())),
                    ("dst", Json::from(self.flow.dst.to_string())),
                    ("src_port", Json::from(self.flow.src_port as u64)),
                    ("dst_port", Json::from(self.flow.dst_port as u64)),
                    ("proto", Json::from(self.flow.proto as u64)),
                ]),
            ),
            (
                "steps",
                Json::Arr(self.steps.iter().map(step_to_json).collect()),
            ),
        ])
    }

    /// Parses a scenario from the JSON produced by
    /// [`ReplayScenario::to_json`].
    pub fn from_json(j: &Json) -> Result<ReplayScenario, String> {
        let name = str_field(j, "name")?.to_string();
        let code = str_field(j, "code")?.to_string();
        let stub = u64_field(j, "stub")? as u32;
        let fj = j.get("flow").ok_or("scenario missing 'flow'")?;
        let flow = WitnessFlow {
            src: parse_addr(str_field(fj, "src")?)?,
            dst: parse_addr(str_field(fj, "dst")?)?,
            src_port: u64_field(fj, "src_port")? as u16,
            dst_port: u64_field(fj, "dst_port")? as u16,
            proto: u64_field(fj, "proto")? as u8,
        };
        let steps = j
            .get("steps")
            .and_then(Json::as_arr)
            .ok_or("scenario missing 'steps'")?
            .iter()
            .map(step_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ReplayScenario {
            name,
            code,
            stub,
            flow,
            steps,
        })
    }
}

impl fmt::Display for ReplayScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] stub s{} flow {}:{} -> {}:{} proto {} ({} steps)",
            self.name,
            self.code,
            self.stub,
            self.flow.src,
            self.flow.src_port,
            self.flow.dst,
            self.flow.dst_port,
            self.flow.proto,
            self.steps.len()
        )
    }
}

fn step_to_json(s: &ReplayStep) -> Json {
    match s {
        ReplayStep::Inject { packets, expect } => Json::obj([
            ("op", Json::from("inject")),
            ("packets", Json::from(*packets)),
            ("delivered", Json::Bool(expect.delivered)),
            ("dropped_failed", Json::Bool(expect.dropped_failed)),
            (
                "must_process",
                Json::Arr(
                    expect
                        .must_process
                        .iter()
                        .map(|&m| Json::from(m as u64))
                        .collect(),
                ),
            ),
            (
                "must_not_process",
                Json::Arr(
                    expect
                        .must_not_process
                        .iter()
                        .map(|&m| Json::from(m as u64))
                        .collect(),
                ),
            ),
        ]),
        ReplayStep::FailMbox(m) => Json::obj([
            ("op", Json::from("fail")),
            ("mbox", Json::from(*m as u64)),
        ]),
        ReplayStep::RestoreMbox(m) => Json::obj([
            ("op", Json::from("restore")),
            ("mbox", Json::from(*m as u64)),
        ]),
    }
}

fn step_from_json(j: &Json) -> Result<ReplayStep, String> {
    match str_field(j, "op")? {
        "inject" => Ok(ReplayStep::Inject {
            packets: u64_field(j, "packets")?,
            expect: StepExpect {
                delivered: bool_field(j, "delivered")?,
                dropped_failed: bool_field(j, "dropped_failed")?,
                must_process: u32_list(j, "must_process")?,
                must_not_process: u32_list(j, "must_not_process")?,
            },
        }),
        "fail" => Ok(ReplayStep::FailMbox(u64_field(j, "mbox")? as u32)),
        "restore" => Ok(ReplayStep::RestoreMbox(u64_field(j, "mbox")? as u32)),
        other => Err(format!("unknown replay op '{other}'")),
    }
}

fn parse_addr(s: &str) -> Result<Ipv4Addr, String> {
    s.parse()
        .map_err(|_| format!("'{s}' is not a dotted-quad IPv4 address"))
}

fn str_field<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn u64_field(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

fn bool_field(j: &Json, key: &str) -> Result<bool, String> {
    j.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing boolean field '{key}'"))
}

fn u32_list(j: &Json, key: &str) -> Result<Vec<u32>, String> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing list field '{key}'"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .map(|n| n as u32)
                .ok_or_else(|| format!("non-numeric entry in '{key}'"))
        })
        .collect()
}

/// Serializes a whole counterexample corpus.
pub fn corpus_to_json(scenarios: &[ReplayScenario]) -> Json {
    Json::obj([
        ("format", Json::from("sdm-reach-corpus-v1")),
        (
            "scenarios",
            Json::Arr(scenarios.iter().map(ReplayScenario::to_json).collect()),
        ),
    ])
}

/// Parses a corpus serialized by [`corpus_to_json`].
pub fn corpus_from_json(text: &str) -> Result<Vec<ReplayScenario>, String> {
    let j = Json::parse(text).map_err(|e| format!("corpus is not valid JSON: {e:?}"))?;
    match j.get("format").and_then(Json::as_str) {
        Some("sdm-reach-corpus-v1") => {}
        other => return Err(format!("unknown corpus format {other:?}")),
    }
    j.get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("corpus missing 'scenarios'")?
        .iter()
        .map(ReplayScenario::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> ReplayScenario {
        ReplayScenario {
            name: "isolate-s0-s3/class0".to_string(),
            code: "R001".to_string(),
            stub: 0,
            flow: WitnessFlow {
                src: "10.0.0.1".parse().unwrap(),
                dst: "10.0.48.1".parse().unwrap(),
                src_port: 40000,
                dst_port: 80,
                proto: 6,
            },
            steps: vec![
                ReplayStep::Inject {
                    packets: 8,
                    expect: StepExpect {
                        delivered: true,
                        dropped_failed: false,
                        must_process: vec![2],
                        must_not_process: vec![0, 1],
                    },
                },
                ReplayStep::FailMbox(2),
                ReplayStep::Inject {
                    packets: 4,
                    expect: StepExpect {
                        delivered: false,
                        dropped_failed: true,
                        must_process: vec![],
                        must_not_process: vec![],
                    },
                },
                ReplayStep::RestoreMbox(2),
            ],
        }
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let s = scenario();
        let text = s.to_json().to_string_pretty();
        let parsed = ReplayScenario::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(s, parsed);
    }

    #[test]
    fn corpus_round_trips_through_json() {
        let corpus = vec![scenario(), scenario()];
        let text = corpus_to_json(&corpus).to_string_pretty();
        assert_eq!(corpus_from_json(&text).unwrap(), corpus);
    }

    #[test]
    fn corpus_rejects_unknown_format() {
        assert!(corpus_from_json("{\"format\": \"bogus\"}").is_err());
        assert!(corpus_from_json("not json").is_err());
    }

    #[test]
    fn five_tuple_uses_named_protocol_variants() {
        let f = scenario().flow.five_tuple();
        assert_eq!(f.proto, Protocol::Tcp);
        assert_eq!(protocol_from_number(17), Protocol::Udp);
        assert_eq!(protocol_from_number(99), Protocol::Other(99));
    }

    #[test]
    fn display_is_compact() {
        let text = scenario().to_string();
        assert!(text.contains("R001"), "{text}");
        assert!(text.contains("10.0.0.1:40000"), "{text}");
    }
}
