//! Pass 1 — the static enforcement-plan verifier.
//!
//! Given a neutral view of a deployment (topology size, addressing,
//! middleboxes, policy chains, candidate sets, LP steering weights and the
//! runtime options), [`verify_plan`] proves the invariants dependable
//! enforcement rests on *before* any packet is injected. A misconfigured
//! plan — a function with no reachable middlebox, an all-zero steering
//! column, a label-space collision — is rejected with a structured
//! diagnostic instead of silently blackholing or misrouting traffic at
//! simulation time.
//!
//! The input is plain data ([`PlanView`]) rather than `sdm-core` types so
//! the verifier sits *below* the controller in the crate graph: `sdm-core`
//! adapts its `Controller`, `Assignments` and `SteeringWeights` into a
//! `PlanView` and fail-fasts on a fatal report at construction time.

use std::collections::BTreeSet;
use std::fmt;

use sdm_netsim::{Ipv4Addr, Prefix};
use sdm_policy::NetworkFunction;
use sdm_util::json::Json;

use crate::index::{FirstByKey, StubIndex};
use crate::reach::{walk_route, RouteView, Walk};

/// Minimum MTU an IP-over-IP steering hop can work with: an outer header,
/// an inner header, and at least one payload byte.
pub const MIN_STEERABLE_MTU: u32 = 2 * sdm_netsim::IP_HEADER_LEN + 1;

/// Relative tolerance for floating-point comparisons (weight-column
/// normalization and LP load-versus-capacity checks).
pub const EPSILON: f64 = 1e-6;

/// Every misconfiguration class the verifier can reject, with a stable
/// machine-readable code (`V0xx`). The codes are part of the JSON report
/// format; add new classes at the end and never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ErrorCode {
    /// A policy's action list names the same function twice; the data
    /// plane resolves a middlebox's chain position by its function, which
    /// is ambiguous under repetition.
    ChainRepeatsFunction,
    /// A function required by some policy has no available (non-failed)
    /// implementing middlebox anywhere — the paper's `M^e` is empty.
    FunctionUnimplemented,
    /// A proxy, gateway or middlebox steer point has an empty candidate
    /// set for a function it must steer towards: the hot-potato nearest
    /// map `m_x^e` is not total and traffic would blackhole.
    UnreachableFunction,
    /// Fewer available middleboxes offer a function than the configured
    /// candidate-set size `k` (`k > |M^e|`). Enforcement still works with
    /// the smaller set, so this is a warning, not a fatal error.
    CandidateShortfall,
    /// The per-policy steering graph has a cycle: following candidate
    /// sets from box to box can revisit a middlebox without ever reaching
    /// one that implements the required function — an IP-over-IP tunnel
    /// loop.
    SteeringLoop,
    /// A steering weight column contains a negative entry.
    NegativeWeight,
    /// A steering weight column is all-zero: the LP routed no traffic to
    /// any candidate, so flows matching the key have no valid next hop.
    /// (PR-2 regression tie: the data-plane fallback must never be asked
    /// to pick from an all-zero column.)
    ZeroWeightColumn,
    /// A steering weight column does not normalize to a probability
    /// distribution (non-finite entries, or the normalized sum is off 1
    /// by more than [`EPSILON`]).
    WeightSumMismatch,
    /// A steering weight column names a middlebox outside the candidate
    /// set `M_x^e` for its key — the LP solution and the installed
    /// candidate sets disagree.
    WeightOutsideCandidates,
    /// The LP solution overloads a middlebox: its projected volume
    /// exceeds `λ · C(x)` beyond tolerance, or λ itself is non-finite or
    /// non-positive while traffic is routed.
    CapacityExceeded,
    /// A soft-state TTL (flow cache or label table) is zero: every packet
    /// would miss and re-resolve, and label switching could never
    /// establish.
    ZeroTtl,
    /// The label-table TTL exceeds the flow-cache TTL: a stale
    /// `⟨src|l, a⟩` binding at a middlebox can outlive the proxy's flow
    /// entry, so a reallocated label collides with the dead flow's path
    /// (§III.E label-space collision).
    LabelTtlExceedsFlowTtl,
    /// Two stub subnets overlap, or a middlebox device address collides
    /// with another device or falls inside a stub subnet. The `src|l`
    /// label space is collision-free only while addresses are unique.
    AddressCollision,
    /// The MTU is too small to carry one IP-over-IP-encapsulated payload
    /// byte ([`MIN_STEERABLE_MTU`]); every steered packet would be
    /// unforwardable.
    MtuTooSmall,
    /// A middlebox attaches to a router that does not exist in the
    /// topology.
    DanglingAttachment,
}

/// Severity of a diagnostic, derived from its [`ErrorCode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Enforcement is broken; fail-fast hooks reject the plan.
    Error,
    /// Enforcement degrades but works; reported, never fatal.
    Warning,
}

impl ErrorCode {
    /// The stable wire code (`V0xx`).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::ChainRepeatsFunction => "V001",
            ErrorCode::FunctionUnimplemented => "V002",
            ErrorCode::UnreachableFunction => "V003",
            ErrorCode::CandidateShortfall => "V004",
            ErrorCode::SteeringLoop => "V005",
            ErrorCode::NegativeWeight => "V006",
            ErrorCode::ZeroWeightColumn => "V007",
            ErrorCode::WeightSumMismatch => "V008",
            ErrorCode::WeightOutsideCandidates => "V009",
            ErrorCode::CapacityExceeded => "V010",
            ErrorCode::ZeroTtl => "V011",
            ErrorCode::LabelTtlExceedsFlowTtl => "V012",
            ErrorCode::AddressCollision => "V013",
            ErrorCode::MtuTooSmall => "V014",
            ErrorCode::DanglingAttachment => "V015",
        }
    }

    /// Human-readable name matching the enum variant.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::ChainRepeatsFunction => "chain-repeats-function",
            ErrorCode::FunctionUnimplemented => "function-unimplemented",
            ErrorCode::UnreachableFunction => "unreachable-function",
            ErrorCode::CandidateShortfall => "candidate-shortfall",
            ErrorCode::SteeringLoop => "steering-loop",
            ErrorCode::NegativeWeight => "negative-weight",
            ErrorCode::ZeroWeightColumn => "zero-weight-column",
            ErrorCode::WeightSumMismatch => "weight-sum-mismatch",
            ErrorCode::WeightOutsideCandidates => "weight-outside-candidates",
            ErrorCode::CapacityExceeded => "capacity-exceeded",
            ErrorCode::ZeroTtl => "zero-ttl",
            ErrorCode::LabelTtlExceedsFlowTtl => "label-ttl-exceeds-flow-ttl",
            ErrorCode::AddressCollision => "address-collision",
            ErrorCode::MtuTooSmall => "mtu-too-small",
            ErrorCode::DanglingAttachment => "dangling-attachment",
        }
    }

    /// The severity class of this code.
    pub fn severity(self) -> Severity {
        match self {
            ErrorCode::CandidateShortfall => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.as_str(), self.name())
    }
}

/// One structured diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The misconfiguration class.
    pub code: ErrorCode,
    /// What the diagnostic is about (a policy, steer point, middlebox,
    /// function or address), rendered compactly.
    pub subject: String,
    /// Human-readable explanation with the offending values.
    pub detail: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.code, self.subject, self.detail)
    }
}

/// The verifier's result: all diagnostics, sorted deterministically by
/// (code, subject, detail) so reports are byte-stable across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    diagnostics: Vec<VerifyError>,
}

impl VerifyReport {
    /// All diagnostics (errors and warnings), sorted.
    pub fn diagnostics(&self) -> &[VerifyError] {
        &self.diagnostics
    }

    /// Only the fatal diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &VerifyError> + '_ {
        self.diagnostics
            .iter()
            .filter(|d| d.code.severity() == Severity::Error)
    }

    /// Only the advisory diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &VerifyError> + '_ {
        self.diagnostics
            .iter()
            .filter(|d| d.code.severity() == Severity::Warning)
    }

    /// True if any fatal diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// True if no diagnostics at all were produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True if a diagnostic with this code is present.
    pub fn has_code(&self, code: ErrorCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The JSON report: counts plus every diagnostic, in sorted order.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("verifier", Json::from("sdm-verify")),
            ("errors", Json::from(self.errors().count())),
            ("warnings", Json::from(self.warnings().count())),
            (
                "diagnostics",
                Json::Arr(
                    self.diagnostics
                        .iter()
                        .map(|d| {
                            Json::obj([
                                ("code", Json::from(d.code.as_str())),
                                ("name", Json::from(d.code.name())),
                                (
                                    "severity",
                                    Json::from(match d.code.severity() {
                                        Severity::Error => "error",
                                        Severity::Warning => "warning",
                                    }),
                                ),
                                ("subject", Json::from(d.subject.as_str())),
                                ("detail", Json::from(d.detail.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "plan verifies: no diagnostics");
        }
        writeln!(
            f,
            "plan rejected: {} error(s), {} warning(s)",
            self.errors().count(),
            self.warnings().count()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// A place that makes steering decisions, in the neutral view: mirrors
/// `sdm-core`'s `SteerPoint` without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Point {
    /// The policy proxy of stub network `s`.
    Proxy(u32),
    /// The ingress proxy at gateway index `g`.
    Gateway(u32),
    /// Middlebox `m`.
    Middlebox(u32),
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Point::Proxy(s) => write!(f, "proxy(s{s})"),
            Point::Gateway(g) => write!(f, "gw({g})"),
            Point::Middlebox(m) => write!(f, "mbox(m{m})"),
        }
    }
}

/// One middlebox in the neutral view.
#[derive(Debug, Clone)]
pub struct MboxView {
    /// Functions the box implements.
    pub functions: Vec<NetworkFunction>,
    /// Index of the router it attaches to.
    pub router: usize,
    /// Processing capacity `C(x)`.
    pub capacity: f64,
    /// False when the box is marked failed (excluded from `M^e`).
    pub available: bool,
    /// The box's device address.
    pub addr: Ipv4Addr,
}

impl MboxView {
    fn implements(&self, f: NetworkFunction) -> bool {
        self.functions.contains(&f)
    }
}

/// One policy's enforcement chain.
#[derive(Debug, Clone)]
pub struct ChainView {
    /// The policy id.
    pub policy: u32,
    /// The ordered function chain (empty = plain permit).
    pub chain: Vec<NetworkFunction>,
}

/// One installed candidate set `M_x^e`.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// The deciding steer point `x`.
    pub point: Point,
    /// The function `e` being steered towards.
    pub function: NetworkFunction,
    /// Candidate middlebox indices, closest first.
    pub members: Vec<u32>,
}

/// One LP steering-weight column `t(x, ·)` for a key.
#[derive(Debug, Clone)]
pub struct WeightColumn {
    /// The deciding steer point.
    pub point: Point,
    /// The governing policy.
    pub policy: u32,
    /// Index of the next function in the policy's chain.
    pub next_index: u16,
    /// `(middlebox, volume)` pairs.
    pub weights: Vec<(u32, f64)>,
}

/// The LP solution in the neutral view.
#[derive(Debug, Clone, Default)]
pub struct WeightsView {
    /// The optimal maximum load factor λ.
    pub lambda: f64,
    /// Every installed column (aggregate and per-commodity alike).
    pub columns: Vec<WeightColumn>,
}

/// Runtime options relevant to static verification.
#[derive(Debug, Clone, Copy)]
pub struct OptionsView {
    /// Flow-cache TTL in ticks.
    pub flow_ttl: u64,
    /// Label-table TTL in ticks.
    pub label_ttl: u64,
    /// Uniform link MTU in bytes.
    pub mtu: u32,
}

/// The complete neutral input to [`verify_plan`].
#[derive(Debug, Clone, Default)]
pub struct PlanView {
    /// Number of nodes in the topology (router indices are `< node_count`).
    pub node_count: usize,
    /// One subnet per stub network / policy proxy.
    pub stub_subnets: Vec<Prefix>,
    /// Number of gateway ingress proxies.
    pub gateway_count: usize,
    /// The middlebox deployment.
    pub middleboxes: Vec<MboxView>,
    /// Every policy's function chain.
    pub policies: Vec<ChainView>,
    /// The effective candidate-set size `k` per function.
    pub k: Vec<(NetworkFunction, usize)>,
    /// Every installed candidate set.
    pub candidates: Vec<CandidateSet>,
    /// The LP solution, when load-balanced steering is configured.
    pub weights: Option<WeightsView>,
    /// Runtime options, when an enforcement run is being verified.
    pub options: Option<OptionsView>,
}

impl Default for OptionsView {
    fn default() -> Self {
        OptionsView {
            flow_ttl: 1,
            label_ttl: 1,
            mtu: 1500,
        }
    }
}

impl PlanView {
    /// Functions referenced by at least one policy chain, deduplicated in
    /// first-use order.
    fn used_functions(&self) -> Vec<NetworkFunction> {
        let mut out: Vec<NetworkFunction> = Vec::new();
        for p in &self.policies {
            for &f in &p.chain {
                if !out.contains(&f) {
                    out.push(f);
                }
            }
        }
        out
    }

    /// Available middleboxes implementing `f`.
    fn available_offering(&self, f: NetworkFunction) -> Vec<u32> {
        self.middleboxes
            .iter()
            .enumerate()
            .filter(|(_, m)| m.available && m.implements(f))
            .map(|(i, _)| i as u32)
            .collect()
    }
}

/// Runs every check over the view and returns the sorted report.
///
/// Steering-loop detection (V005) only sees the *declared* tunnel edges
/// here; when a routing next-hop view is available, prefer
/// [`verify_plan_routed`], which additionally walks the routed
/// realization of every steering edge and so catches routing-induced
/// loops this plan-only view cannot.
pub fn verify_plan(view: &PlanView) -> VerifyReport {
    verify_with(view, None)
}

/// Like [`verify_plan`], but `routes` — the same next-hop view the reach
/// checker ([`crate::reach::check_assertions`]) consumes — lets the V005
/// pass also walk the routed path realizing each steering edge, so
/// plan-level and reach-level loop detection can never disagree.
pub fn verify_plan_routed(view: &PlanView, routes: &dyn RouteView) -> VerifyReport {
    verify_with(view, Some(routes))
}

/// How one verification finds the candidate set installed for
/// `(point, function)`: the first such entry of [`PlanView::candidates`].
type CandidatesFor<'v, 'f> = &'f dyn Fn(Point, NetworkFunction) -> Option<&'v CandidateSet>;

fn verify_with(view: &PlanView, routes: Option<&dyn RouteView>) -> VerifyReport {
    let candidates = FirstByKey::new(view.candidates.iter().map(|c| ((c.point, c.function), c)));
    verify_by(view, routes, &|point, f| candidates.get((point, f)), check_addressing)
}

/// Every check, with the candidate lookup and the addressing pass as
/// given — the indexed ones in [`verify_with`], the linear references in
/// the tests.
fn verify_by<'v>(
    view: &'v PlanView,
    routes: Option<&dyn RouteView>,
    candidates_for: CandidatesFor<'v, '_>,
    check_addressing: fn(&PlanView, &mut Vec<VerifyError>),
) -> VerifyReport {
    let mut diags: Vec<VerifyError> = Vec::new();
    check_chains(view, &mut diags);
    check_function_coverage(view, &mut diags);
    check_candidate_totality(view, candidates_for, &mut diags);
    check_steering_graph(view, candidates_for, routes, &mut diags);
    check_weights(view, candidates_for, &mut diags);
    check_addressing(view, &mut diags);
    check_attachments(view, &mut diags);
    check_options(view, &mut diags);
    diags.sort_by(|a, b| {
        (a.code, &a.subject, &a.detail).cmp(&(b.code, &b.subject, &b.detail))
    });
    diags.dedup();
    VerifyReport { diagnostics: diags }
}

fn check_chains(view: &PlanView, diags: &mut Vec<VerifyError>) {
    for p in &view.policies {
        for (i, f) in p.chain.iter().enumerate() {
            if p.chain[i + 1..].contains(f) {
                diags.push(VerifyError {
                    code: ErrorCode::ChainRepeatsFunction,
                    subject: format!("policy(p{})", p.policy),
                    detail: format!(
                        "action list repeats function {f}; the data plane cannot \
disambiguate repeated functions — split the policy"
                    ),
                });
            }
        }
    }
}

fn check_function_coverage(view: &PlanView, diags: &mut Vec<VerifyError>) {
    for f in view.used_functions() {
        let offer = view.available_offering(f);
        if offer.is_empty() {
            let users: Vec<String> = view
                .policies
                .iter()
                .filter(|p| p.chain.contains(&f))
                .map(|p| format!("p{}", p.policy))
                .collect();
            diags.push(VerifyError {
                code: ErrorCode::FunctionUnimplemented,
                subject: format!("function({f})"),
                detail: format!(
                    "no available middlebox implements {f}, required by {}",
                    users.join(", ")
                ),
            });
            continue;
        }
        if let Some(&(_, k)) = view.k.iter().find(|&&(kf, _)| kf == f) {
            if k > offer.len() {
                diags.push(VerifyError {
                    code: ErrorCode::CandidateShortfall,
                    subject: format!("function({f})"),
                    detail: format!(
                        "k = {k} exceeds the {} available middleboxes offering {f}",
                        offer.len()
                    ),
                });
            }
        }
    }
}

/// The hot-potato nearest map must be total: every proxy and gateway needs
/// a candidate for every first-chain function, and every middlebox that
/// hands a packet onward to the next chain function needs one too.
fn check_candidate_totality<'v>(
    view: &'v PlanView,
    candidates_for: CandidatesFor<'v, '_>,
    diags: &mut Vec<VerifyError>,
) {
    let used = view.used_functions();
    // A function with no implementation at all is already reported by
    // check_function_coverage; an empty per-point set would only repeat it.
    let covered: Vec<NetworkFunction> = used
        .iter()
        .copied()
        .filter(|&f| !view.available_offering(f).is_empty())
        .collect();

    let mut points: Vec<Point> = Vec::new();
    points.extend((0..view.stub_subnets.len() as u32).map(Point::Proxy));
    points.extend((0..view.gateway_count as u32).map(Point::Gateway));
    for point in points {
        for &f in &covered {
            let empty = candidates_for(point, f).is_none_or(|c| c.members.is_empty());
            if empty {
                diags.push(VerifyError {
                    code: ErrorCode::UnreachableFunction,
                    subject: format!("{point}"),
                    detail: format!(
                        "no candidate middlebox for function {f}: the hot-potato \
map m_x^e is not total and matching flows would blackhole"
                    ),
                });
            }
        }
    }

    // Chain continuation: a box serving stage i must reach stage i+1.
    for p in &view.policies {
        for pair in p.chain.windows(2) {
            let (cur, next) = (pair[0], pair[1]);
            if view.available_offering(next).is_empty() {
                continue; // already FunctionUnimplemented
            }
            for m in view.available_offering(cur) {
                let mb = &view.middleboxes[m as usize];
                if mb.implements(next) {
                    continue; // applied locally, no steering decision
                }
                let empty =
                    candidates_for(Point::Middlebox(m), next).is_none_or(|c| c.members.is_empty());
                if empty {
                    diags.push(VerifyError {
                        code: ErrorCode::UnreachableFunction,
                        subject: format!("mbox(m{m})"),
                        detail: format!(
                            "serves {cur} for policy p{} but has no candidate for \
the next function {next}",
                            p.policy
                        ),
                    });
                }
            }
        }
    }
}

/// Detects IP-over-IP steering loops: following candidate sets for a
/// function from box to box must terminate at a box that implements it.
/// A cycle among non-implementing boxes would tunnel a packet forever.
///
/// When `routes` is given, additionally checks the *routed realization*
/// of every steering edge: the tunnel from box `m` to candidate `s` is
/// carried hop by hop by the underlying routers, and a forwarding
/// micro-loop between their attachment routers loops the tunnel even
/// when the candidate graph itself is acyclic.
fn check_steering_graph<'v>(
    view: &'v PlanView,
    candidates_for: CandidatesFor<'v, '_>,
    routes: Option<&dyn RouteView>,
    diags: &mut Vec<VerifyError>,
) {
    for f in view.used_functions() {
        // Successors of box m when steering towards f (only meaningful
        // while m does not implement f itself).
        let succ = |m: u32| -> &[u32] {
            candidates_for(Point::Middlebox(m), f).map_or(&[], |c| c.members.as_slice())
        };
        let n = view.middleboxes.len();
        // 0 = unvisited, 1 = on stack, 2 = done
        let mut state = vec![0u8; n];
        let mut reported = vec![false; n];
        for start in 0..n as u32 {
            if state[start as usize] != 0 {
                continue;
            }
            // Iterative DFS with an explicit stack of (node, next-child).
            let mut stack: Vec<(u32, usize)> = vec![(start, 0)];
            state[start as usize] = 1;
            while let Some(&mut (node, ref mut child)) = stack.last_mut() {
                if view.middleboxes[node as usize].implements(f) {
                    // Terminal: the packet is processed here.
                    state[node as usize] = 2;
                    stack.pop();
                    continue;
                }
                let successors = succ(node);
                if *child < successors.len() {
                    let next = successors[*child];
                    *child += 1;
                    match state[next as usize] {
                        0 => {
                            state[next as usize] = 1;
                            stack.push((next, 0));
                        }
                        1 if !reported[next as usize] => {
                            reported[next as usize] = true;
                            diags.push(VerifyError {
                                code: ErrorCode::SteeringLoop,
                                subject: format!("function({f})"),
                                detail: format!(
                                    "candidate sets for {f} cycle through \
m{next} without reaching an implementing middlebox — an IP-over-IP tunnel loop"
                                ),
                            });
                        }
                        _ => {}
                    }
                } else {
                    state[node as usize] = 2;
                    stack.pop();
                }
            }
        }
    }

    let Some(routes) = routes else { return };
    let budget = view.node_count.max(2);
    let mut walked: BTreeSet<(u32, u32)> = BTreeSet::new();
    for f in view.used_functions() {
        for m in 0..view.middleboxes.len() as u32 {
            if view.middleboxes[m as usize].implements(f) {
                continue;
            }
            let Some(c) = candidates_for(Point::Middlebox(m), f) else {
                continue;
            };
            for &s in &c.members {
                let Some(sb) = view.middleboxes.get(s as usize) else {
                    continue; // dangling member: reported elsewhere
                };
                let from = view.middleboxes[m as usize].router as u32;
                let to = sb.router as u32;
                if from == to || !walked.insert((from, to)) {
                    continue;
                }
                if let Walk::Looped(path) = walk_route(routes, from, to, budget) {
                    diags.push(VerifyError {
                        code: ErrorCode::SteeringLoop,
                        subject: format!("tunnel(m{m}->m{s})"),
                        detail: format!(
                            "routing loops the steering tunnel from n{from} to \
n{to} ({}); the declared edge never arrives",
                            path.iter()
                                .map(|n| format!("n{n}"))
                                .collect::<Vec<_>>()
                                .join("->")
                        ),
                    });
                }
            }
        }
    }
}

fn check_weights<'v>(
    view: &'v PlanView,
    candidates_for: CandidatesFor<'v, '_>,
    diags: &mut Vec<VerifyError>,
) {
    let Some(w) = &view.weights else { return };

    let routed: f64 = w
        .columns
        .iter()
        .flat_map(|c| c.weights.iter())
        .map(|&(_, v)| if v.is_finite() { v.max(0.0) } else { 0.0 })
        .sum();
    if routed > 0.0 && !(w.lambda.is_finite() && w.lambda > 0.0) {
        diags.push(VerifyError {
            code: ErrorCode::CapacityExceeded,
            subject: "lambda".to_string(),
            detail: format!(
                "load factor λ = {} is not a positive finite number while \
traffic is routed",
                w.lambda
            ),
        });
    }

    let mut load = vec![0.0f64; view.middleboxes.len()];
    for col in &w.columns {
        let subject = format!(
            "{} policy(p{}) stage({})",
            col.point, col.policy, col.next_index
        );
        let mut total = 0.0f64;
        for &(m, v) in &col.weights {
            if v < -EPSILON {
                diags.push(VerifyError {
                    code: ErrorCode::NegativeWeight,
                    subject: subject.clone(),
                    detail: format!("weight for m{m} is negative ({v})"),
                });
            }
            if v.is_finite() {
                total += v.max(0.0);
            } else {
                total = f64::NAN;
                break;
            }
        }
        if total == 0.0 {
            // An all-zero *middlebox* transition column is legitimate LP
            // output: a box the optimum routes no traffic through still has
            // its (all-zero) transition variables installed, and the data
            // plane's hot-potato fallback covers stray flows. At a proxy or
            // gateway the column is the first hop of measured traffic —
            // flow conservation forces it nonzero, so all-zero means the
            // solution is broken and matching flows have no next hop.
            if matches!(col.point, Point::Proxy(_) | Point::Gateway(_)) {
                diags.push(VerifyError {
                    code: ErrorCode::ZeroWeightColumn,
                    subject: subject.clone(),
                    detail: "every candidate weight is zero at a first-hop \
decision point; flows matching this key have no valid next hop".to_string(),
                });
            }
        } else {
            // Normalized column must be a probability distribution.
            let norm: f64 = col
                .weights
                .iter()
                .map(|&(_, v)| v.max(0.0) / total)
                .sum();
            // NaN-safe: a non-finite deviation must also be rejected.
            let deviation = (norm - 1.0).abs();
            if deviation.is_nan() || deviation > EPSILON {
                diags.push(VerifyError {
                    code: ErrorCode::WeightSumMismatch,
                    subject: subject.clone(),
                    detail: format!(
                        "column does not normalize to 1 (sum = {norm}); weights \
contain non-finite entries or are inconsistent"
                    ),
                });
            }
        }

        // Every weighted box must be a candidate for the key's function.
        let function = view
            .policies
            .iter()
            .find(|p| p.policy == col.policy)
            .and_then(|p| p.chain.get(col.next_index as usize).copied());
        match function {
            None => diags.push(VerifyError {
                code: ErrorCode::WeightOutsideCandidates,
                subject: subject.clone(),
                detail: format!(
                    "policy p{} has no chain stage {}; the column targets a \
non-existent steering decision",
                    col.policy, col.next_index
                ),
            }),
            Some(f) => {
                let members: &[u32] =
                    candidates_for(col.point, f).map_or(&[], |c| c.members.as_slice());
                for &(m, v) in &col.weights {
                    if v.is_finite() && v > 0.0 && !members.contains(&m) {
                        diags.push(VerifyError {
                            code: ErrorCode::WeightOutsideCandidates,
                            subject: subject.clone(),
                            detail: format!(
                                "weight routes volume to m{m}, which is not in \
the candidate set M_x^e for {f}"
                            ),
                        });
                    }
                }
            }
        }

        for &(m, v) in &col.weights {
            if let Some(slot) = load.get_mut(m as usize) {
                if v.is_finite() {
                    *slot += v.max(0.0);
                }
            }
        }
    }

    if w.lambda.is_finite() && w.lambda > 0.0 {
        for (i, mbox) in view.middleboxes.iter().enumerate() {
            let bound = w.lambda * mbox.capacity;
            if load[i] > bound * (1.0 + EPSILON) + EPSILON {
                diags.push(VerifyError {
                    code: ErrorCode::CapacityExceeded,
                    subject: format!("mbox(m{i})"),
                    detail: format!(
                        "projected volume {} exceeds λ·C(x) = {} · {} = {bound}",
                        load[i], w.lambda, mbox.capacity
                    ),
                });
            }
        }
    }
}

/// Overlapping stub subnets and colliding or aliasing middlebox
/// addresses. The overlaps come from one [`StubIndex`], in the order the
/// pairwise loops over every stub would find them.
fn check_addressing(view: &PlanView, diags: &mut Vec<VerifyError>) {
    let stubs = StubIndex::new(&view.stub_subnets);
    let mut hits = Vec::new();
    for (i, &a) in view.stub_subnets.iter().enumerate() {
        stubs.overlapping(a, &mut hits);
        for j in hits.iter().map(|&j| j as usize).filter(|&j| j > i) {
            let b = view.stub_subnets[j];
            diags.push(VerifyError {
                code: ErrorCode::AddressCollision,
                subject: format!("subnet({a})"),
                detail: format!(
                    "stub subnets s{i} ({a}) and s{j} ({b}) overlap; source \
addresses — and with them the src|l label space — are ambiguous"
                ),
            });
        }
    }
    for (i, m) in view.middleboxes.iter().enumerate() {
        for (j, other) in view.middleboxes.iter().enumerate().skip(i + 1) {
            if m.addr == other.addr {
                diags.push(VerifyError {
                    code: ErrorCode::AddressCollision,
                    subject: format!("addr({})", m.addr),
                    detail: format!(
                        "middleboxes m{i} and m{j} share device address {}; \
steering towards one can deliver to the other",
                        m.addr
                    ),
                });
            }
        }
        stubs.overlapping(Prefix::host(m.addr), &mut hits);
        for &s in &hits {
            let subnet = view.stub_subnets[s as usize];
            diags.push(VerifyError {
                code: ErrorCode::AddressCollision,
                subject: format!("addr({})", m.addr),
                detail: format!(
                    "middlebox m{i}'s device address {} lies inside stub \
subnet s{s} ({subnet}); it aliases a host and corrupts the src|l label space",
                    m.addr
                ),
            });
        }
    }
}

fn check_attachments(view: &PlanView, diags: &mut Vec<VerifyError>) {
    for (i, m) in view.middleboxes.iter().enumerate() {
        if m.router >= view.node_count {
            diags.push(VerifyError {
                code: ErrorCode::DanglingAttachment,
                subject: format!("mbox(m{i})"),
                detail: format!(
                    "attaches to router n{} but the topology has only {} nodes",
                    m.router, view.node_count
                ),
            });
        }
    }
}

fn check_options(view: &PlanView, diags: &mut Vec<VerifyError>) {
    let Some(o) = view.options else { return };
    if o.flow_ttl == 0 {
        diags.push(VerifyError {
            code: ErrorCode::ZeroTtl,
            subject: "flow_ttl".to_string(),
            detail: "flow-cache TTL must be positive; zero expires every entry \
immediately".to_string(),
        });
    }
    if o.label_ttl == 0 {
        diags.push(VerifyError {
            code: ErrorCode::ZeroTtl,
            subject: "label_ttl".to_string(),
            detail: "label-table TTL must be positive; zero makes §III.E label \
switching unable to establish".to_string(),
        });
    }
    if o.flow_ttl > 0 && o.label_ttl > o.flow_ttl {
        diags.push(VerifyError {
            code: ErrorCode::LabelTtlExceedsFlowTtl,
            subject: "label_ttl".to_string(),
            detail: format!(
                "label-table TTL ({}) exceeds flow-cache TTL ({}): a stale \
⟨src|l, a⟩ binding can outlive the proxy's flow entry, so a reallocated label \
collides with the dead flow's path",
                o.label_ttl, o.flow_ttl
            ),
        });
    }
    if o.mtu < MIN_STEERABLE_MTU {
        diags.push(VerifyError {
            code: ErrorCode::MtuTooSmall,
            subject: "mtu".to_string(),
            detail: format!(
                "MTU {} cannot carry an IP-over-IP-encapsulated payload byte \
(minimum {MIN_STEERABLE_MTU})",
                o.mtu
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_policy::NetworkFunction::*;

    /// A minimal healthy view: 2 FWs + 1 IDS, one FW→IDS policy, two
    /// stubs, one gateway, full candidate sets.
    pub(crate) fn healthy() -> PlanView {
        let subnet = |i: u32| {
            Prefix::new(Ipv4Addr::from_octets([10, 0, (16 * i) as u8, 0]), 20)
        };
        let addr = |i: u32| Ipv4Addr::from_octets([172, 16, 0, 1 + i as u8]);
        let mbox = |fns: Vec<NetworkFunction>, router: usize, i: u32| MboxView {
            functions: fns,
            router,
            capacity: 1.0,
            available: true,
            addr: addr(i),
        };
        let mut candidates = Vec::new();
        for p in 0..2u32 {
            candidates.push(CandidateSet {
                point: Point::Proxy(p),
                function: Firewall,
                members: vec![0, 1],
            });
            candidates.push(CandidateSet {
                point: Point::Proxy(p),
                function: Ids,
                members: vec![2],
            });
        }
        candidates.push(CandidateSet {
            point: Point::Gateway(0),
            function: Firewall,
            members: vec![1, 0],
        });
        candidates.push(CandidateSet {
            point: Point::Gateway(0),
            function: Ids,
            members: vec![2],
        });
        for m in 0..2u32 {
            candidates.push(CandidateSet {
                point: Point::Middlebox(m),
                function: Ids,
                members: vec![2],
            });
        }
        candidates.push(CandidateSet {
            point: Point::Middlebox(2),
            function: Firewall,
            members: vec![0, 1],
        });
        PlanView {
            node_count: 10,
            stub_subnets: vec![subnet(0), subnet(1)],
            gateway_count: 1,
            middleboxes: vec![
                mbox(vec![Firewall], 0, 0),
                mbox(vec![Firewall], 1, 1),
                mbox(vec![Ids], 2, 2),
            ],
            policies: vec![ChainView {
                policy: 0,
                chain: vec![Firewall, Ids],
            }],
            k: vec![(Firewall, 2), (Ids, 1)],
            candidates,
            weights: None,
            options: Some(OptionsView {
                flow_ttl: 1_000,
                label_ttl: 1_000,
                mtu: 1500,
            }),
        }
    }

    #[test]
    fn healthy_plan_is_clean() {
        let report = verify_plan(&healthy());
        assert!(report.is_clean(), "{report}");
        assert!(!report.has_errors());
        assert_eq!(
            report.to_json().get("errors").and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn report_is_sorted_and_displayable() {
        let mut view = healthy();
        view.options = Some(OptionsView {
            flow_ttl: 0,
            label_ttl: 0,
            mtu: 10,
        });
        view.policies.push(ChainView {
            policy: 1,
            chain: vec![Firewall, Ids, Firewall],
        });
        let report = verify_plan(&view);
        assert!(report.has_errors());
        let codes: Vec<_> = report.diagnostics().iter().map(|d| d.code).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted, "diagnostics must be code-sorted");
        let text = format!("{report}");
        assert!(text.contains("V001"));
        assert!(text.contains("V011"));
        assert!(text.contains("V014"));
    }

    #[test]
    fn error_codes_are_unique_and_stable() {
        let all = [
            ErrorCode::ChainRepeatsFunction,
            ErrorCode::FunctionUnimplemented,
            ErrorCode::UnreachableFunction,
            ErrorCode::CandidateShortfall,
            ErrorCode::SteeringLoop,
            ErrorCode::NegativeWeight,
            ErrorCode::ZeroWeightColumn,
            ErrorCode::WeightSumMismatch,
            ErrorCode::WeightOutsideCandidates,
            ErrorCode::CapacityExceeded,
            ErrorCode::ZeroTtl,
            ErrorCode::LabelTtlExceedsFlowTtl,
            ErrorCode::AddressCollision,
            ErrorCode::MtuTooSmall,
            ErrorCode::DanglingAttachment,
        ];
        let mut wire: Vec<&str> = all.iter().map(|c| c.as_str()).collect();
        wire.sort();
        wire.dedup();
        assert_eq!(wire.len(), all.len(), "codes must be unique");
        assert_eq!(ErrorCode::ChainRepeatsFunction.as_str(), "V001");
        assert_eq!(ErrorCode::DanglingAttachment.as_str(), "V015");
    }

    /// A next-hop table where every route works except the ones named in
    /// `oscillate`, which ping-pong between the two endpoints' first hops.
    struct LoopyRoutes {
        nodes: u32,
        /// Walks towards these destinations oscillate between the first
        /// two nodes instead of progressing.
        bad_dsts: Vec<u32>,
    }

    impl RouteView for LoopyRoutes {
        fn next_hop(&self, from: u32, dst: u32) -> Option<u32> {
            if from == dst || dst >= self.nodes {
                return None;
            }
            if self.bad_dsts.contains(&dst) {
                // n1 <-> n2 ping-pong, never reaching dst.
                return Some(if from == 1 { 2 } else { 1 });
            }
            Some(dst) // direct single-hop delivery otherwise
        }
        fn dist(&self, from: u32, dst: u32) -> Option<u32> {
            if from == dst {
                Some(0)
            } else {
                Some(1)
            }
        }
    }

    /// Regression (PR 10 satellite): a routing-induced loop on the path
    /// realizing a declared steering edge is invisible to the plan-only
    /// V005 pass but must be caught once the checker consumes the same
    /// next-hop view as the reach tier.
    #[test]
    fn routed_loop_invisible_to_plan_view_is_caught_by_verify_plan_routed() {
        let view = healthy();
        // healthy(): m2 (IDS @ n2) declares FW candidates m0 (n0), m1 (n1),
        // so the tunnel m2 -> m0 rides the routed path n2 -> n0. Poison
        // every route towards n0: walks ping-pong n1 <-> n2 forever.
        let routes = LoopyRoutes {
            nodes: 3,
            bad_dsts: vec![0],
        };
        assert!(
            verify_plan(&view).is_clean(),
            "the plan-only view cannot see the routed loop"
        );
        let routed = verify_plan_routed(&view, &routes);
        assert!(routed.has_code(ErrorCode::SteeringLoop), "{routed}");
        let diag = routed
            .diagnostics()
            .iter()
            .find(|d| d.code == ErrorCode::SteeringLoop)
            .unwrap();
        assert!(diag.subject.starts_with("tunnel("), "{}", diag.subject);

        // With healthy routing the routed pass agrees with the plan view.
        let ok = LoopyRoutes {
            nodes: 3,
            bad_dsts: vec![],
        };
        assert!(verify_plan_routed(&view, &ok).is_clean());
    }

    /// Regression: the routed V005 walk over real routing tables indexed
    /// past the table for a middlebox on a non-existent router and
    /// panicked before V015 could be reported.
    #[test]
    fn dangling_attachment_is_reported_by_the_routed_pass() {
        use sdm_topology::{NodeKind, Topology};
        let mut view = healthy();
        let mut t = Topology::new();
        let ids: Vec<_> = (0..view.node_count)
            .map(|i| t.add_node(NodeKind::CoreRouter, format!("n{i}")))
            .collect();
        for w in ids.windows(2) {
            t.add_link(w[0], w[1], 1).unwrap();
        }
        let routes = t.routing_tables();
        assert!(verify_plan_routed(&view, &routes).is_clean());
        view.middleboxes[2].router = 21; // node_count is 10
        let report = verify_plan_routed(&view, &routes);
        assert!(report.has_code(ErrorCode::DanglingAttachment), "{report}");
    }

    // -- the indexed passes against their linear references ------------

    /// The pairwise stub loop the [`StubIndex`] replaced, kept verbatim
    /// as the reference the property below compares against.
    fn check_addressing_ref(view: &PlanView, diags: &mut Vec<VerifyError>) {
        for i in 0..view.stub_subnets.len() {
            for j in i + 1..view.stub_subnets.len() {
                let (a, b) = (view.stub_subnets[i], view.stub_subnets[j]);
                if a.overlaps(b) {
                    diags.push(VerifyError {
                        code: ErrorCode::AddressCollision,
                        subject: format!("subnet({a})"),
                        detail: format!(
                            "stub subnets s{i} ({a}) and s{j} ({b}) overlap; source \
addresses — and with them the src|l label space — are ambiguous"
                        ),
                    });
                }
            }
        }
        for (i, m) in view.middleboxes.iter().enumerate() {
            for (j, other) in view.middleboxes.iter().enumerate().skip(i + 1) {
                if m.addr == other.addr {
                    diags.push(VerifyError {
                        code: ErrorCode::AddressCollision,
                        subject: format!("addr({})", m.addr),
                        detail: format!(
                            "middleboxes m{i} and m{j} share device address {}; \
steering towards one can deliver to the other",
                            m.addr
                        ),
                    });
                }
            }
            for (s, subnet) in view.stub_subnets.iter().enumerate() {
                if subnet.contains(m.addr) {
                    diags.push(VerifyError {
                        code: ErrorCode::AddressCollision,
                        subject: format!("addr({})", m.addr),
                        detail: format!(
                            "middlebox m{i}'s device address {} lies inside stub \
subnet s{s} ({subnet}); it aliases a host and corrupts the src|l label space",
                            m.addr
                        ),
                    });
                }
            }
        }
    }

    /// [`verify_with`] over the linear candidate scan and the pairwise
    /// addressing loop.
    fn verify_ref(view: &PlanView, routes: Option<&dyn RouteView>) -> VerifyReport {
        let candidates_for = |point: Point, f: NetworkFunction| {
            view.candidates
                .iter()
                .find(|c| c.point == point && c.function == f)
        };
        verify_by(view, routes, &candidates_for, check_addressing_ref)
    }

    /// Raw material of one random plan, kept as plain tuples so the
    /// harness can shrink it: stub subnets `(base pick, offset, length
    /// pick)`, middleboxes `(function pick, address pick, available)`,
    /// candidate sets `(point kind, point index, function, members)` and
    /// weight columns `(point kind, point index, stage, (member, volume))`.
    type Raw = (
        Vec<(u8, u32, u8)>,
        Vec<(u8, u8, bool)>,
        Vec<(u8, u8, u8, Vec<u8>)>,
        Vec<(u8, u8, u8, Vec<(u8, f64)>)>,
    );

    fn gen_raw(rng: &mut sdm_util::rng::StdRng) -> Raw {
        let stubs = (0..rng.gen_range(0..9usize))
            .map(|_| (rng.gen_range(0..5u8), rng.gen_range(0..4u32), rng.gen_range(0..7u8)))
            .collect();
        let boxes = (0..rng.gen_range(0..6usize))
            .map(|_| (rng.gen_range(0..3u8), rng.gen_range(0..6u8), rng.gen_range(0..5u8) > 0))
            .collect();
        let members = |rng: &mut sdm_util::rng::StdRng| {
            (0..rng.gen_range(0..4usize)).map(|_| rng.gen_range(0..6u8)).collect::<Vec<u8>>()
        };
        // Few distinct keys, so one key often carries several sets.
        let candidates = (0..rng.gen_range(0..24usize))
            .map(|_| {
                let key = (rng.gen_range(0..3u8), rng.gen_range(0..3u8), rng.gen_range(0..2u8));
                (key.0, key.1, key.2, members(rng))
            })
            .collect();
        let columns = (0..rng.gen_range(0..6usize))
            .map(|_| {
                let weights = members(rng)
                    .into_iter()
                    .map(|m| (m, rng.gen_range(0..3u8) as f64))
                    .collect();
                (rng.gen_range(0..3u8), rng.gen_range(0..3u8), rng.gen_range(0..2u8), weights)
            })
            .collect();
        (stubs, boxes, candidates, columns)
    }

    fn view_of(raw: &Raw) -> PlanView {
        let (stubs, boxes, candidates, columns) = raw;
        // Bases that nest in one another, so subnets overlap, duplicate
        // and contain middlebox addresses; lengths from /0 to /32.
        const BASES: [[u8; 4]; 5] =
            [[10, 0, 0, 0], [10, 0, 16, 0], [10, 0, 16, 4], [10, 1, 0, 0], [172, 16, 0, 1]];
        const LENS: [u8; 7] = [0, 8, 16, 20, 24, 30, 32];
        let stub_subnets = stubs
            .iter()
            .map(|&(b, off, l)| {
                let base = Ipv4Addr::from_octets(BASES[b as usize % 5]).0;
                Prefix::new(Ipv4Addr(base + off * 4096), LENS[l as usize % 7])
            })
            .collect();
        let fns = [vec![Firewall], vec![Ids], vec![Firewall, Ids]];
        let middleboxes: Vec<MboxView> = boxes
            .iter()
            .enumerate()
            .map(|(i, &(f, a, available))| MboxView {
                functions: fns[f as usize % 3].clone(),
                router: i,
                capacity: 1.0,
                available,
                addr: Ipv4Addr(Ipv4Addr::from_octets(BASES[a as usize % 5]).0 + a as u32 / 5),
            })
            .collect();
        let n = middleboxes.len();
        let point = |kind: u8, i: u8| match kind % 3 {
            0 => Point::Proxy(i as u32),
            1 => Point::Gateway(i as u32),
            _ => Point::Middlebox(i as u32),
        };
        let member = |m: u8| (m as usize % n.max(1)) as u32;
        let candidates = candidates
            .iter()
            .map(|(kind, i, f, members)| CandidateSet {
                point: point(*kind, *i),
                function: [Firewall, Ids][*f as usize % 2],
                members: match n {
                    0 => Vec::new(),
                    _ => members.iter().map(|&m| member(m)).collect(),
                },
            })
            .collect();
        let columns = columns
            .iter()
            .map(|(kind, i, stage, weights)| WeightColumn {
                point: point(*kind, *i),
                policy: 0,
                next_index: *stage as u16 % 2,
                weights: weights.iter().map(|&(m, v)| (member(m), v)).collect(),
            })
            .collect();
        PlanView {
            node_count: 8,
            stub_subnets,
            gateway_count: 2,
            middleboxes,
            policies: vec![
                ChainView { policy: 0, chain: vec![Firewall, Ids] },
                ChainView { policy: 1, chain: vec![Ids] },
            ],
            k: vec![(Firewall, 2), (Ids, 2)],
            candidates,
            weights: Some(WeightsView { lambda: 1.0, columns }),
            options: None,
        }
    }

    #[test]
    fn indexed_verification_reports_what_the_linear_reference_reports() {
        use sdm_util::prop::{check, Config};
        check(
            "verify_plan: indexed candidates and addressing == linear reference",
            &Config::with_cases(400),
            gen_raw,
            |raw| {
                let view = view_of(raw);
                sdm_util::prop_assert_eq!(verify_plan(&view), verify_ref(&view, None));
                // The routed pass reads the candidate sets as well.
                let routes = LoopyRoutes { nodes: 8, bad_dsts: vec![0] };
                sdm_util::prop_assert_eq!(
                    verify_plan_routed(&view, &routes),
                    verify_ref(&view, Some(&routes))
                );
                Ok(())
            },
        );
    }
}
