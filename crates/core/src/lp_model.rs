//! Building the load-balancing linear programs of §III.C and extracting
//! steering weights from their solutions.
//!
//! Two formulations are implemented:
//!
//! * [`build_reduced`] — the paper's Eq. (2): aggregate per-(function,
//!   policy) variables `t_{e,p}(x, y)`. Two *exact* size reductions are
//!   applied (documented in DESIGN.md): sources with identical candidate
//!   sets are merged (their first-hop constraints sum, and the optimum
//!   splits back proportionally to `T_{s,p}`), and the per-destination
//!   variables `t_p(x, d)` are aggregated to `t_p(x)` (recoverable as
//!   `t_p(x) · T_{d,p} / T_p`).
//! * [`build_full`] — the paper's Eq. (1): one commodity per (source,
//!   destination, policy) triple with variables `t_{s,d,p}(x, y)`. Used in
//!   the formulation ablation; both reach the same optimal λ, Eq. (2) with
//!   far fewer variables.
//!
//! Instead of the paper's indicator notation (`I_p(e,e')`, `J_p(e)`,
//! `J'_p(e)`), the builder walks each policy's action list by *stage
//! index*, which handles repeated functions in a chain unambiguously.

use sdm_util::FxHashMap;
use std::fmt;

use sdm_lp::{LinearProgram, Relation, Retained, SolveError, VarId};
use sdm_netsim::StubId;
use sdm_policy::{NetworkFunction, PolicyId, PolicySet};

use crate::deployment::{Deployment, MiddleboxId};
use crate::measure::TrafficMatrix;
use crate::measure::DestKey;
use crate::steer::{Assignments, CommodityKey, SteerPoint, SteeringWeights, WeightKey};

/// Error raised while building or solving a load-balancing LP.
#[derive(Debug, Clone, PartialEq)]
pub enum LbError {
    /// A policy's action list names a function no deployed middlebox
    /// offers; enforcement is impossible.
    MissingFunction(NetworkFunction, PolicyId),
    /// The LP solver failed (e.g. infeasible under a λ cap).
    Lp(SolveError),
}

impl fmt::Display for LbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LbError::MissingFunction(e, p) => {
                write!(f, "no middlebox offers function {e} required by policy {p}")
            }
            LbError::Lp(e) => write!(f, "load-balancing LP failed: {e}"),
        }
    }
}

impl std::error::Error for LbError {}

impl From<SolveError> for LbError {
    fn from(e: SolveError) -> Self {
        LbError::Lp(e)
    }
}

/// Options controlling LP construction.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(Default)]
pub struct LbOptions {
    /// If true, adds the paper's `λ ≤ 1` constraint, making the program
    /// infeasible when demand cannot fit within capacities (a
    /// dependability check). If false (default), λ is unconstrained and
    /// simply minimized.
    pub cap_lambda: bool,
}


/// Diagnostics of one LP build + solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LbReport {
    /// Optimal maximum load factor λ.
    pub lambda: f64,
    /// Decision variables in the program.
    pub variables: usize,
    /// Constraints in the program.
    pub constraints: usize,
    /// Simplex pivots spent.
    pub iterations: u64,
    /// `true` when both solves of the reduced formulation re-entered the
    /// basis retained in a [`LbWarmCache`] (the online epoch loop);
    /// `false` on cold solves and for the full formulation.
    pub warm: bool,
}

/// Warm-start cache for the online re-steer loop: the solved basis of
/// each of the two solves of the reduced Eq. (2) formulation (the min-λ
/// pass and the lexicographic refinement pass). As long as the epoch's
/// traffic matrix keeps the same support (cells, sources, candidate sets)
/// over the same deployment, the traffic enters Eq. (2) through
/// right-hand sides only, and each pass re-enters its retained basis in
/// a handful of pivots; any other difference is detected by an exact
/// comparison of the programs and silently falls back to a cold solve.
/// Each pass keeps its dense basis inverse, `m²` doubles for `m`
/// constraints: 565² + 587² doubles, ≈ 5.3 MB, on the campus evaluation
/// world.
#[derive(Debug, Clone, Default)]
pub struct LbWarmCache {
    lambda: Option<Retained>,
    refine: Option<Retained>,
}

impl LbWarmCache {
    /// An empty cache; the first solve through it is cold and populates it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Internal: one enforcement stage of a policy — the boxes offering the
/// stage function, and per box the candidate successors.
struct Stage {
    function: NetworkFunction,
    boxes: Vec<MiddleboxId>,
}

fn stages_for(
    policy: PolicyId,
    functions: &[NetworkFunction],
    deployment: &Deployment,
) -> Result<Vec<Stage>, LbError> {
    functions
        .iter()
        .map(|&e| {
            let boxes = deployment.offering(e);
            if boxes.is_empty() {
                Err(LbError::MissingFunction(e, policy))
            } else {
                Ok(Stage { function: e, boxes })
            }
        })
        .collect()
}

/// Successor candidates of box `x` for next-stage function `e`: if `x`
/// itself offers `e` it applies it locally (self-arc), otherwise the
/// controller-assigned `M_x^e`.
fn successors(
    x: MiddleboxId,
    e: NetworkFunction,
    deployment: &Deployment,
    assignments: &Assignments,
) -> Vec<MiddleboxId> {
    if deployment.spec(x).implements(e) {
        vec![x]
    } else {
        assignments
            .candidates(SteerPoint::Middlebox(x), e)
            .to_vec()
    }
}

/// Builds and solves the reduced formulation (Eq. 2), returning the
/// steering weights `t_{e,p}(x, y)` and a diagnostics report.
///
/// # Errors
///
/// [`LbError::MissingFunction`] if a policy requires an un-deployed
/// function; [`LbError::Lp`] on solver failure.
pub fn build_reduced(
    deployment: &Deployment,
    assignments: &Assignments,
    policies: &PolicySet,
    traffic: &TrafficMatrix,
    options: LbOptions,
) -> Result<(SteeringWeights, LbReport), LbError> {
    build_reduced_with_cache(deployment, assignments, policies, traffic, options, None)
}

/// [`build_reduced`] with an optional warm-start cache: the online epoch
/// loop keeps one [`LbWarmCache`] alive across re-solves, so each epoch's
/// perturbed traffic matrix re-optimizes from the previous epoch's solved
/// bases and their inverses instead of running both simplex phases from
/// the slack/artificial basis. Without a cache every pass is such a cold
/// solve. The cache is left holding this solve's final state (empty on a
/// solver error).
///
/// # Errors
///
/// As [`build_reduced`]. A stale or mismatched cache never causes an
/// error — it is discarded and the solve falls back to cold.
pub fn build_reduced_with_cache(
    deployment: &Deployment,
    assignments: &Assignments,
    policies: &PolicySet,
    traffic: &TrafficMatrix,
    options: LbOptions,
    cache: Option<&mut LbWarmCache>,
) -> Result<(SteeringWeights, LbReport), LbError> {
    solve_reduced(deployment, assignments, policies, traffic, options, cache)
        .map(|(weights, report, _)| (weights, report))
}

/// [`build_reduced_with_cache`], also returning the objective the
/// refinement pass reached (the sum of per-function maximum load
/// factors), which the differential tests compare against cold solves.
fn solve_reduced(
    deployment: &Deployment,
    assignments: &Assignments,
    policies: &PolicySet,
    traffic: &TrafficMatrix,
    options: LbOptions,
    mut cache: Option<&mut LbWarmCache>,
) -> Result<(SteeringWeights, LbReport, f64), LbError> {
    // Phase 1: minimize the global maximum load factor λ.
    let mut model = assemble_reduced(deployment, assignments, policies, traffic, options)?;
    let vars = model.lp.num_vars();
    let cons = model.lp.num_constraints();
    let pass1 = model
        .lp
        .solve_warm(cache.as_mut().map_or(&mut None, |c| &mut c.lambda))?;
    let lambda_star = pass1.solution.value(model.lambda);

    // Phase 2 (lexicographic refinement): pin λ at its optimum and minimize
    // the sum of per-function-type maximum load factors. A pure min-λ LP
    // has degenerate optima that leave non-bottleneck types arbitrarily
    // unbalanced; the paper's Table III shows *every* type balanced under
    // LB, which this second pass reproduces without disturbing λ.
    let bound = lambda_star * (1.0 + 1e-9) + 1e-6;
    model.refine(deployment, bound);
    let pass2 = model
        .lp
        .solve_warm(cache.map_or(&mut None, |c| &mut c.refine))?;

    let mut weights = SteeringWeights::new(lambda_star);
    extract_weights(&model.all_vars, |v| pass2.solution.value(v), &mut weights);
    Ok((
        weights,
        LbReport {
            lambda: lambda_star,
            variables: vars,
            constraints: cons,
            iterations: pass1.solution.iterations + pass2.solution.iterations,
            warm: pass1.warm_used && pass2.warm_used,
        },
        pass2.solution.objective,
    ))
}

/// One source group of the reduced model: the stubs sharing a candidate
/// set, each with its share of the group volume, plus the per-candidate
/// first-hop variable.
type FirstHopGroup = (Vec<(StubId, f64)>, Vec<MiddleboxId>, Vec<VarId>);

/// Bookkeeping for weight extraction after solving.
struct PolicyVars {
    policy: PolicyId,
    first_hop: Vec<FirstHopGroup>,
    /// transition vars [stage i][x][y] as flat entries
    transitions: Vec<(usize, MiddleboxId, MiddleboxId, VarId)>,
}

struct ReducedModel {
    lp: LinearProgram,
    lambda: VarId,
    all_vars: Vec<PolicyVars>,
    /// Per middlebox, the inflow expression its capacity row bounds.
    capacity_terms: Vec<Vec<(VarId, f64)>>,
}

impl ReducedModel {
    /// Turns the min-λ program into the refinement program: λ leaves the
    /// objective, `λ ≤ bound` is added, then per function type carrying
    /// load a variable `μ_e` of objective 1 with one row
    /// `inflow ≤ μ_e · capacity` per loaded box of that type. The objective
    /// becomes the sum of the per-function maximum load factors.
    fn refine(&mut self, deployment: &Deployment, bound: f64) {
        let (lp, capacity_terms) = (&mut self.lp, &self.capacity_terms);
        lp.set_objective(self.lambda, 0.0);
        lp.add_constraint(vec![(self.lambda, 1.0)], Relation::Le, bound);
        for e in deployment.functions() {
            let boxes = deployment.offering(e);
            // skip types with no load expression at all
            if boxes.iter().all(|x| capacity_terms[x.index()].is_empty()) {
                continue;
            }
            let mu = lp.add_var(1.0);
            for &x in &boxes {
                let terms = &capacity_terms[x.index()];
                if terms.is_empty() {
                    continue;
                }
                let mut row = terms.clone();
                row.push((mu, -deployment.spec(x).capacity));
                lp.add_constraint(row, Relation::Le, 0.0);
            }
        }
    }
}

fn extract_weights(
    all_vars: &[PolicyVars],
    value: impl Fn(VarId) -> f64,
    weights: &mut SteeringWeights,
) {
    for pv in all_vars {
        for (members, cands, vars) in &pv.first_hop {
            let w: Vec<(MiddleboxId, f64)> = cands
                .iter()
                .zip(vars)
                .map(|(&y, &v)| (y, value(v)))
                .collect();
            // The group optimum splits back proportionally to each
            // member's T_{s,p} (the exactness argument of the source
            // reduction); installing the unscaled group vector on every
            // member would multiply the group's volume by its member count.
            for &(s, share) in members {
                weights.set(
                    WeightKey {
                        point: SteerPoint::Proxy(s),
                        policy: pv.policy,
                        next_index: 0,
                    },
                    w.iter().map(|&(y, v)| (y, v * share)).collect(),
                );
            }
        }
        // group transitions by (stage, from)
        let mut by_from: FxHashMap<(usize, MiddleboxId), Vec<(MiddleboxId, f64)>> =
            FxHashMap::default();
        for &(i, x, y, v) in &pv.transitions {
            if x == y {
                continue; // local application, no steering decision
            }
            by_from.entry((i, x)).or_default().push((y, value(v)));
        }
        for ((i, x), w) in by_from {
            weights.set(
                WeightKey {
                    point: SteerPoint::Middlebox(x),
                    policy: pv.policy,
                    next_index: (i + 1) as u16,
                },
                w,
            );
        }
    }
}

/// The program both formulations assemble into: the LP, λ, and per
/// middlebox the inflow expression its capacity row bounds.
struct ChainProgram<'a> {
    lp: LinearProgram,
    lambda: VarId,
    /// `capacity_terms[x]` accumulates the inflow expression of middlebox x.
    capacity_terms: Vec<Vec<(VarId, f64)>>,
    deployment: &'a Deployment,
    assignments: &'a Assignments,
}

/// The variables one [`ChainProgram::add_chain_block`] call added.
struct ChainVars {
    /// Per first-hop group, one variable per candidate.
    first_hop: Vec<Vec<VarId>>,
    /// Transition variables as flat `(stage i, x, y, var)` entries.
    transitions: Vec<(usize, MiddleboxId, MiddleboxId, VarId)>,
}

impl<'a> ChainProgram<'a> {
    /// An empty program minimizing λ.
    fn new(deployment: &'a Deployment, assignments: &'a Assignments) -> Self {
        let mut lp = LinearProgram::new();
        let lambda = lp.add_var(1.0);
        ChainProgram {
            lp,
            lambda,
            capacity_terms: vec![Vec::new(); deployment.len()],
            deployment,
            assignments,
        }
    }

    /// Adds one chain's block — the part Eq. (1) and Eq. (2) share. Eq. (2)
    /// calls it once per policy with its source groups, Eq. (1) once per
    /// `(s,d,p)` commodity with a single group. Each group is
    /// `(first-hop candidates, volume)`; `total` is the volume that must
    /// leave the last stage.
    ///
    /// Insertion order (it fixes the simplex pivot sequence): per group the
    /// first-hop variables and their sum row; the transition variables;
    /// the final variables; one conservation row per stage and box, whose
    /// inflow also feeds the box's capacity expression; the anchor row.
    fn add_chain_block(
        &mut self,
        p: PolicyId,
        stages: &[Stage],
        groups: &[(&[MiddleboxId], f64)],
        total: f64,
    ) -> Result<ChainVars, LbError> {
        let lp = &mut self.lp;
        let k = stages.len();

        let mut first_hop = Vec::with_capacity(groups.len());
        for &(cands, volume) in groups {
            let vars: Vec<VarId> = cands.iter().map(|_| lp.add_var(0.0)).collect();
            // group total constraint: sum_y t1 = T_group
            lp.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect(), Relation::Eq, volume);
            first_hop.push(vars);
        }

        // transition vars t[i][x][y], i = 0-based transition from stage i to i+1
        let mut transitions: Vec<(usize, MiddleboxId, MiddleboxId, VarId)> = Vec::new();
        for (i, pair) in stages.windows(2).enumerate() {
            for &x in &pair[0].boxes {
                let succ = successors(x, pair[1].function, self.deployment, self.assignments);
                if succ.is_empty() {
                    return Err(LbError::MissingFunction(pair[1].function, p));
                }
                for y in succ {
                    let v = lp.add_var(0.0);
                    transitions.push((i, x, y, v));
                }
            }
        }
        // final vars tf[x] for stage K boxes
        let mut finals: FxHashMap<MiddleboxId, VarId> = FxHashMap::default();
        for &x in &stages[k - 1].boxes {
            finals.insert(x, lp.add_var(0.0));
        }

        // --- flow conservation per stage and box ---
        for (i, stage) in stages.iter().enumerate() {
            for &y in &stage.boxes {
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                // inflow
                if i == 0 {
                    for (&(cands, _), vars) in groups.iter().zip(&first_hop) {
                        if let Some(pos) = cands.iter().position(|&c| c == y) {
                            terms.push((vars[pos], 1.0));
                        }
                    }
                } else {
                    for &(ti, _, ty, v) in &transitions {
                        if ti == i - 1 && ty == y {
                            terms.push((v, 1.0));
                        }
                    }
                }
                // capacity: inflow of y counts towards its load
                self.capacity_terms[y.index()].extend(terms.iter().copied());
                // outflow
                if i + 1 < k {
                    for &(ti, tx, _, v) in &transitions {
                        if ti == i && tx == y {
                            terms.push((v, -1.0));
                        }
                    }
                } else {
                    terms.push((finals[&y], -1.0));
                }
                lp.add_constraint(terms, Relation::Eq, 0.0);
            }
        }
        // total leaving the last stage equals `total` (anchors the chain
        // volume); iterate stage boxes for deterministic term order
        lp.add_constraint(
            stages[k - 1].boxes.iter().map(|x| (finals[x], 1.0)).collect(),
            Relation::Eq,
            total,
        );

        Ok(ChainVars {
            first_hop,
            transitions,
        })
    }

    /// Adds one capacity row per loaded middlebox (`inflow ≤ λ · capacity`)
    /// and, if asked, the paper's `λ ≤ 1`.
    fn add_capacity_rows(&mut self, options: LbOptions) {
        for (x, spec) in self.deployment.iter() {
            let terms = &self.capacity_terms[x.index()];
            if terms.is_empty() {
                continue;
            }
            let mut row = terms.clone();
            row.push((self.lambda, -spec.capacity));
            self.lp.add_constraint(row, Relation::Le, 0.0);
        }
        if options.cap_lambda {
            self.lp.add_constraint(vec![(self.lambda, 1.0)], Relation::Le, 1.0);
        }
    }
}

/// Assembles the reduced LP with the objective `min λ`;
/// [`ReducedModel::refine`] turns it into the refinement program.
fn assemble_reduced(
    deployment: &Deployment,
    assignments: &Assignments,
    policies: &PolicySet,
    traffic: &TrafficMatrix,
    options: LbOptions,
) -> Result<ReducedModel, LbError> {
    let mut model = ChainProgram::new(deployment, assignments);
    let mut all_vars: Vec<PolicyVars> = Vec::new();

    for (p, (t_p, sources)) in traffic.marginals() {
        let Some(policy) = policies.get(p) else {
            continue;
        };
        if policy.actions.is_permit() {
            continue;
        }
        if t_p <= 0.0 {
            continue;
        }
        let chain = policy.actions.functions().to_vec();
        let stages = stages_for(p, &chain, deployment)?;

        // --- source grouping (exact reduction) ---
        // BTreeMap: deterministic variable order => deterministic optimum.
        // Value: the member stubs with their T_{s,p}, and the group total.
        type Group = (Vec<(StubId, f64)>, f64);
        let mut groups: std::collections::BTreeMap<Vec<MiddleboxId>, Group> = Default::default();
        for (s, t_sp) in sources {
            if t_sp <= 0.0 {
                continue;
            }
            let cands = assignments
                .candidates(SteerPoint::Proxy(s), stages[0].function)
                .to_vec();
            if cands.is_empty() {
                return Err(LbError::MissingFunction(stages[0].function, p));
            }
            let entry = groups.entry(cands).or_insert_with(|| (Vec::new(), 0.0));
            entry.0.push((s, t_sp));
            entry.1 += t_sp;
        }

        let chain_groups: Vec<(&[MiddleboxId], f64)> = groups
            .iter()
            .map(|(cands, (_, volume))| (cands.as_slice(), *volume))
            .collect();
        let block = model.add_chain_block(p, &stages, &chain_groups, t_p)?;
        let first_hop = groups
            .iter()
            .zip(block.first_hop)
            .map(|((cands, (members, volume)), vars)| {
                let shares = members.iter().map(|&(s, t_sp)| (s, t_sp / *volume)).collect();
                (shares, cands.clone(), vars)
            })
            .collect();
        all_vars.push(PolicyVars {
            policy: p,
            first_hop,
            transitions: block.transitions,
        });
    }

    model.add_capacity_rows(options);
    Ok(ReducedModel {
        lp: model.lp,
        lambda: model.lambda,
        all_vars,
        capacity_terms: model.capacity_terms,
    })
}

/// Builds and solves the full formulation (Eq. 1): one commodity per
/// (source, destination, policy) triple. Returns per-point weights
/// aggregated over commodities (for apples-to-apples runtime use) plus the
/// diagnostics report. Intended for the formulation ablation; prefer
/// [`build_reduced`] in production.
///
/// # Errors
///
/// Same as [`build_reduced`].
pub fn build_full(
    deployment: &Deployment,
    assignments: &Assignments,
    policies: &PolicySet,
    traffic: &TrafficMatrix,
    options: LbOptions,
) -> Result<(SteeringWeights, LbReport), LbError> {
    let mut model = ChainProgram::new(deployment, assignments);

    struct CommodityVars {
        policy: PolicyId,
        source: StubId,
        dest: DestKey,
        first: Vec<(MiddleboxId, VarId)>,
        transitions: Vec<(usize, MiddleboxId, MiddleboxId, VarId)>,
    }
    let mut all: Vec<CommodityVars> = Vec::new();

    for (s, d, p, volume) in traffic.iter() {
        if volume <= 0.0 {
            continue;
        }
        let Some(policy) = policies.get(p) else {
            continue;
        };
        if policy.actions.is_permit() {
            continue;
        }
        let chain = policy.actions.functions().to_vec();
        let stages = stages_for(p, &chain, deployment)?;
        let cands = assignments.candidates(SteerPoint::Proxy(s), stages[0].function);
        if cands.is_empty() {
            return Err(LbError::MissingFunction(stages[0].function, p));
        }
        // destination is implicit: the commodity ends at d
        let mut block = model.add_chain_block(p, &stages, &[(cands, volume)], volume)?;
        let first: Vec<(MiddleboxId, VarId)> =
            cands.iter().copied().zip(block.first_hop.remove(0)).collect();
        all.push(CommodityVars {
            policy: p,
            source: s,
            dest: d,
            first,
            transitions: block.transitions,
        });
    }

    model.add_capacity_rows(options);
    let (lp, lambda) = (model.lp, model.lambda);

    let vars = lp.num_vars();
    let cons = lp.num_constraints();
    let sol = lp.solve()?;

    // Aggregate commodity weights per (point, policy, next_index) for the
    // coarse fallback, and install exact per-commodity weights under
    // `CommodityKey`s (Eq. 1's t_{s,d,p}(x, y)).
    let mut weights = SteeringWeights::new(sol.value(lambda));
    let mut acc: FxHashMap<WeightKey, FxHashMap<MiddleboxId, f64>> = FxHashMap::default();
    let mut fine: FxHashMap<CommodityKey, FxHashMap<MiddleboxId, f64>> =
        FxHashMap::default();
    for cv in &all {
        let mut add = |key: WeightKey, y: MiddleboxId, v: VarId| {
            let commodity = CommodityKey {
                key,
                src: cv.source,
                dst: cv.dest,
            };
            *acc.entry(key).or_default().entry(y).or_insert(0.0) += sol.value(v);
            *fine.entry(commodity).or_default().entry(y).or_insert(0.0) += sol.value(v);
        };
        for &(y, v) in &cv.first {
            let key = WeightKey {
                point: SteerPoint::Proxy(cv.source),
                policy: cv.policy,
                next_index: 0,
            };
            add(key, y, v);
        }
        for &(i, x, y, v) in &cv.transitions {
            if x == y {
                continue;
            }
            let key = WeightKey {
                point: SteerPoint::Middlebox(x),
                policy: cv.policy,
                next_index: (i + 1) as u16,
            };
            add(key, y, v);
        }
    }
    for (key, per_box) in acc {
        let mut w: Vec<(MiddleboxId, f64)> = per_box.into_iter().collect();
        w.sort_by_key(|&(m, _)| m);
        weights.set(key, w);
    }
    for (key, per_box) in fine {
        let mut w: Vec<(MiddleboxId, f64)> = per_box.into_iter().collect();
        w.sort_by_key(|&(m, _)| m);
        weights.set_fine(key, w);
    }

    Ok((
        weights,
        LbReport {
            lambda: sol.value(lambda),
            variables: vars,
            constraints: cons,
            iterations: sol.iterations,
            warm: false,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::MiddleboxSpec;
    use crate::measure::DestKey;
    use crate::steer::KConfig;
    use sdm_policy::{ActionList, NetworkFunction::*, Policy, TrafficDescriptor};
    use sdm_topology::campus::campus;

    /// Two FW boxes, one IDS; one policy FW -> IDS; traffic from 2 stubs.
    fn tiny_world() -> (
        sdm_topology::NetworkPlan,
        Deployment,
        Assignments,
        PolicySet,
        TrafficMatrix,
    ) {
        let plan = campus(1);
        let mut dep = Deployment::new();
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[8], 1.0));
        dep.add(MiddleboxSpec::new(Ids, plan.cores()[4], 1.0));
        let routes = plan.topology().routing_tables();
        let asg = Assignments::compute(&dep, &routes, plan.edges(), &KConfig::uniform(2));
        let mut pol = PolicySet::new();
        pol.push(Policy::new(
            TrafficDescriptor::new().dst_port(80),
            ActionList::chain([Firewall, Ids]),
        ));
        let mut tm = TrafficMatrix::new();
        tm.record(StubId(0), DestKey::Stub(StubId(5)), PolicyId(0), 600.0);
        tm.record(StubId(1), DestKey::Stub(StubId(6)), PolicyId(0), 400.0);
        (plan, dep, asg, pol, tm)
    }

    #[test]
    fn reduced_balances_firewalls_perfectly() {
        let (_plan, dep, asg, pol, tm) = tiny_world();
        let (w, report) =
            build_reduced(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap();
        // 1000 units over two equal FWs: optimum max load = 500 each; the
        // single IDS must carry all 1000 -> lambda = 1000.
        assert!((report.lambda - 1000.0).abs() < 1e-6, "{}", report.lambda);
        assert_eq!(w.lambda(), report.lambda);
        // proxies got weights
        let key = WeightKey {
            point: SteerPoint::Proxy(StubId(0)),
            policy: PolicyId(0),
            next_index: 0,
        };
        let ws = w.get(&key).expect("proxy weights installed");
        // weights are per source-group volumes: non-negative, positive total
        let total: f64 = ws.iter().map(|&(_, v)| v).sum();
        assert!(total > 0.0);
        assert!(ws.iter().all(|&(_, v)| v >= -1e-9));
        // phase-2 refinement balances the two equal firewalls evenly in
        // aggregate (per-proxy splits may differ)
        let mut agg = std::collections::BTreeMap::new();
        for stub in [StubId(0), StubId(1)] {
            let key = WeightKey {
                point: SteerPoint::Proxy(stub),
                policy: PolicyId(0),
                next_index: 0,
            };
            for &(m, v) in w.get(&key).unwrap() {
                *agg.entry(m).or_insert(0.0) += v;
            }
        }
        for (&m, &v) in &agg {
            assert!((v - 500.0).abs() < 1e-6, "box {m} carries {v}");
        }
    }

    #[test]
    fn warm_cache_reuses_basis_on_perturbed_traffic() {
        let (_plan, dep, asg, pol, tm) = tiny_world();
        let mut cache = LbWarmCache::new();
        let (_, cold) = build_reduced_with_cache(
            &dep, &asg, &pol, &tm, LbOptions::default(), Some(&mut cache),
        )
        .unwrap();
        assert!(!cold.warm, "first solve through an empty cache is cold");

        // Perturb volumes on the *existing* support: same cells, same
        // sources, same candidate sets -> same LP shape.
        let mut tm2 = TrafficMatrix::new();
        tm2.record(StubId(0), DestKey::Stub(StubId(5)), PolicyId(0), 640.0);
        tm2.record(StubId(1), DestKey::Stub(StubId(6)), PolicyId(0), 410.0);
        let (w_warm, warm) = build_reduced_with_cache(
            &dep, &asg, &pol, &tm2, LbOptions::default(), Some(&mut cache),
        )
        .unwrap();
        let (w_cold, re_cold) =
            build_reduced(&dep, &asg, &pol, &tm2, LbOptions::default()).unwrap();
        assert!(warm.warm, "same-shape perturbation must warm-start");
        assert!((warm.lambda - re_cold.lambda).abs() < 1e-6);
        assert!(
            warm.iterations < re_cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            re_cold.iterations
        );
        // The steering weights must agree with the cold solve.
        for (key, wc) in w_cold.iter() {
            let ww = w_warm.get(key).expect("same keys");
            for (&(mc, vc), &(mw, vw)) in wc.iter().zip(ww) {
                assert_eq!(mc, mw);
                assert!((vc - vw).abs() < 1e-6, "{key:?}: {vc} vs {vw}");
            }
        }
    }

    #[test]
    fn warm_cache_falls_back_cold_when_support_changes() {
        let (_plan, dep, asg, pol, tm) = tiny_world();
        let mut cache = LbWarmCache::new();
        build_reduced_with_cache(&dep, &asg, &pol, &tm, LbOptions::default(), Some(&mut cache))
            .unwrap();
        // A new source appears: the LP gains variables/constraints, the
        // basis fingerprint mismatches, and the solve must fall back.
        let mut tm2 = tm.clone();
        tm2.record(StubId(2), DestKey::Stub(StubId(7)), PolicyId(0), 300.0);
        let (_, report) = build_reduced_with_cache(
            &dep, &asg, &pol, &tm2, LbOptions::default(), Some(&mut cache),
        )
        .unwrap();
        assert!(!report.warm, "support change must invalidate the basis");
        let (_, cold) = build_reduced(&dep, &asg, &pol, &tm2, LbOptions::default()).unwrap();
        assert!((report.lambda - cold.lambda).abs() < 1e-9);
    }

    /// The campus evaluation world at the LP's level: the campus topology
    /// and the §IV.A deployment (4 WP, 7 FW, 7 IDS, 4 TM), `3 × per_class`
    /// policies with the evaluation's three chains, and a base traffic
    /// matrix of eight cells a policy. (The evaluation's own generator
    /// lives in `sdm-workload`, which depends on this crate.) `per_class`
    /// 10 is the evaluation's size; the tests whose debug-build time is
    /// all cold reference solves use 4.
    fn campus_world(per_class: usize) -> (crate::Controller, TrafficMatrix) {
        let plan = campus(3);
        let stubs = plan.stub_count() as u32;
        let dep = Deployment::evaluation_default(&plan, 4);
        let chains = [
            ActionList::chain([Firewall, Ids]),
            ActionList::chain([Firewall, Ids, WebProxy]),
            ActionList::chain([Ids, TrafficMonitor]),
        ];
        let mut pol = PolicySet::new();
        let mut base = TrafficMatrix::new();
        for p in 0..(3 * per_class) as u32 {
            pol.push(Policy::new(
                TrafficDescriptor::new().dst_port(2000 + p as u16),
                chains[p as usize % 3].clone(),
            ));
            for j in 0..8u32 {
                let dest = if j == 7 {
                    DestKey::External
                } else {
                    DestKey::Stub(StubId((7 * p + 11 * j + 1) % stubs))
                };
                let volume = 500.0 + f64::from((37 * p + 101 * j) % 900);
                base.record(StubId((5 * p + 3 * j) % stubs), dest, PolicyId(p), volume);
            }
        }
        let controller = crate::Controller::new(plan, dep, pol, KConfig::paper_default());
        (controller, base)
    }

    /// `base` with the volume of cell `i` scaled by `factor(i)`, and
    /// without the cells of policy `dropped`: the reduced program's shape
    /// is its policies and their source groups, so a whole flow class has
    /// to leave for the support to change.
    fn scaled(
        base: &TrafficMatrix,
        dropped: Option<PolicyId>,
        factor: impl Fn(usize) -> f64,
    ) -> TrafficMatrix {
        let mut out = TrafficMatrix::new();
        for (i, (s, d, p, v)) in base.iter().enumerate() {
            if Some(p) != dropped {
                out.record(s, d, p, v * factor(i));
            }
        }
        out
    }

    /// The benchmark's period-11 drift: cell `i` in epoch `e` carries
    /// `1 + 0.1·((i + 7e) mod 11)` times its base volume.
    fn period_11(base: &TrafficMatrix, epoch: usize) -> TrafficMatrix {
        scaled(base, None, |i| 1.0 + 0.1 * ((i + 7 * epoch) % 11) as f64)
    }

    fn solve_world(
        c: &crate::Controller,
        tm: &TrafficMatrix,
        cache: Option<&mut LbWarmCache>,
    ) -> (SteeringWeights, LbReport, f64) {
        solve_reduced(
            c.deployment(),
            c.assignments(),
            c.policies(),
            tm,
            LbOptions::default(),
            cache,
        )
        .expect("the evaluation deployment offers every function")
    }

    /// What every solve through a cache must satisfy, warm or not: λ and
    /// the refinement objective of a from-scratch solve of the same
    /// matrix, to 1e-9 relative, and weights the plan verifier accepts.
    fn matches_cold(
        c: &crate::Controller,
        tm: &TrafficMatrix,
        got: &(SteeringWeights, LbReport, f64),
    ) -> Result<(), String> {
        let (_, cold, cold_refine) = solve_world(c, tm, None);
        let (weights, report, refine) = got;
        sdm_util::prop_assert!(
            (report.lambda - cold.lambda).abs() <= 1e-9 * cold.lambda,
            "lambda {} vs cold {}",
            report.lambda,
            cold.lambda
        );
        sdm_util::prop_assert!(
            (refine - cold_refine).abs() <= 1e-9 * cold_refine,
            "refine objective {refine} vs cold {cold_refine}"
        );
        let verdict = crate::verify_enforcement(
            c,
            Some(weights),
            &crate::EnforcementOptions::default(),
        );
        sdm_util::prop_assert!(!verdict.has_errors(), "{verdict:?}");
        Ok(())
    }

    #[test]
    fn random_drift_schedules_match_from_scratch_solves() {
        use sdm_util::prop::{check, Config};
        use sdm_util::rng::{mix_seed, StdRng};
        let (c, base) = campus_world(4);
        // An epoch is a seed: every cell's volume is scaled by a factor in
        // [0.5, 2) drawn from it, and a seed divisible by 5 also silences
        // one policy — a support change, so that epoch and (the flow class
        // coming back) the next must solve cold.
        let dropped = |seed: u16| seed.is_multiple_of(5).then(|| PolicyId(u32::from(seed) % 12));
        let matrix = |seed: u16| {
            scaled(&base, dropped(seed), |i| {
                0.5 + 1.5 * StdRng::seed_from_u64(mix_seed(u64::from(seed), i as u64)).next_f64()
            })
        };
        check(
            "warm epochs equal from-scratch solves",
            &Config::with_cases(6),
            |rng| {
                (0..rng.gen_range(2..7usize))
                    .map(|_| rng.gen_range(1..u16::MAX))
                    .collect::<Vec<u16>>()
            },
            |schedule| {
                let mut cache = LbWarmCache::new();
                let mut prev = None;
                for &seed in schedule {
                    let tm = matrix(seed);
                    let got = solve_world(&c, &tm, Some(&mut cache));
                    // Both passes re-enter their bases exactly when the
                    // support is the one the cache was left with.
                    let same_support = prev == Some(dropped(seed));
                    sdm_util::prop_assert_eq!(got.1.warm, same_support, "epoch seed {}", seed);
                    matches_cold(&c, &tm, &got)?;
                    prev = Some(dropped(seed));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn every_fallback_ends_equal_to_cold() {
        let (mut c, base) = campus_world(10);
        let mut cache = LbWarmCache::new();
        let mut epoch = 0;
        let mut step = |c: &crate::Controller, tm: &TrafficMatrix, cache: &mut LbWarmCache| {
            let got = solve_world(c, tm, Some(cache));
            matches_cold(c, tm, &got).unwrap();
            epoch += 1;
            got.1.warm
        };
        assert!(!step(&c, &period_11(&base, 0), &mut cache), "empty cache");
        assert!(step(&c, &period_11(&base, 1), &mut cache));

        // A flow class disappears, then appears again: support changes.
        let without = scaled(&period_11(&base, 2), Some(PolicyId(5)), |_| 1.0);
        assert!(!step(&c, &without, &mut cache), "a policy's traffic stopped");
        assert!(step(&c, &scaled(&without, None, |_| 1.25), &mut cache));
        assert!(!step(&c, &period_11(&base, 3), &mut cache), "it came back");

        // A middlebox capacity change keeps every count, relation and
        // sparsity pattern: only the exact comparison of coefficients sees
        // it. Reusing the basis would answer for the old capacities.
        let resized = {
            let mut dep = Deployment::new();
            for (x, spec) in c.deployment().iter() {
                let mut spec = spec.clone();
                if x.index() == 6 {
                    spec.capacity = 2.5;
                }
                dep.add(spec);
            }
            crate::Controller::new(campus(3), dep, c.policies().clone(), KConfig::paper_default())
        };
        assert!(step(&c, &period_11(&base, 4), &mut cache));
        assert!(!step(&resized, &period_11(&base, 4), &mut cache), "capacity changed");
        assert!(step(&resized, &period_11(&base, 5), &mut cache));
        assert!(!step(&c, &period_11(&base, 5), &mut cache), "capacity changed back");

        // A middlebox fails and the controller repairs the candidate sets:
        // variables and rows disappear; restoring brings them back.
        let victim = crate::MiddleboxId(9);
        c.fail_middlebox(victim);
        assert!(!step(&c, &period_11(&base, 6), &mut cache), "candidates repaired");
        assert!(step(&c, &period_11(&base, 7), &mut cache));
        c.restore_middlebox(victim);
        assert!(!step(&c, &period_11(&base, 8), &mut cache), "candidates restored");
        assert!(step(&c, &period_11(&base, 9), &mut cache));
        assert_eq!(epoch, 13);
    }

    #[test]
    fn long_warm_run_on_the_period_11_drift_still_matches_cold() {
        // The retained bases are pivoted ≈ 2,000 epochs in a row and
        // never refactorized (unless the residual check sends a solve cold,
        // which is the check working); the answer at the end must be as
        // good as the one at the start.
        let (c, base) = campus_world(4);
        let period: Vec<TrafficMatrix> = (0..11).map(|e| period_11(&base, e)).collect();
        let mut cache = LbWarmCache::new();
        let mut warm = 0;
        for e in 0..2_000 {
            let got = solve_world(&c, &period[e % 11], Some(&mut cache));
            warm += usize::from(got.1.warm);
            if e % 500 == 499 {
                matches_cold(&c, &period[e % 11], &got).unwrap();
            }
        }
        assert!(warm >= 1_990, "only {warm} of 2000 epochs re-entered the basis");
    }

    #[test]
    fn reduced_and_full_reach_same_lambda() {
        let (_plan, dep, asg, pol, tm) = tiny_world();
        let (_, r2) = build_reduced(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap();
        let (_, r1) = build_full(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap();
        assert!(
            (r1.lambda - r2.lambda).abs() < 1e-5,
            "eq1={} eq2={}",
            r1.lambda,
            r2.lambda
        );
        // the full formulation uses at least as many variables
        assert!(r1.variables >= r2.variables);
    }

    #[test]
    fn capacity_weighting_shifts_load() {
        // FW0 has 3x capacity of FW1: optimum puts 3/4 of traffic on FW0.
        let plan = campus(1);
        let mut dep = Deployment::new();
        let f0 = dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 3.0));
        let _f1 = dep.add(MiddleboxSpec::new(Firewall, plan.cores()[8], 1.0));
        let routes = plan.topology().routing_tables();
        let asg = Assignments::compute(&dep, &routes, plan.edges(), &KConfig::uniform(2));
        let mut pol = PolicySet::new();
        pol.push(Policy::new(
            TrafficDescriptor::new().dst_port(80),
            ActionList::chain([Firewall]),
        ));
        let mut tm = TrafficMatrix::new();
        tm.record(StubId(0), DestKey::External, PolicyId(0), 800.0);
        let (w, report) = build_reduced(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap();
        assert!((report.lambda - 200.0).abs() < 1e-6, "{}", report.lambda);
        let key = WeightKey {
            point: SteerPoint::Proxy(StubId(0)),
            policy: PolicyId(0),
            next_index: 0,
        };
        let ws = w.get(&key).unwrap();
        let w0 = ws.iter().find(|&&(m, _)| m == f0).unwrap().1;
        assert!((w0 - 600.0).abs() < 1e-6, "w0={w0}");
    }

    #[test]
    fn full_formulation_installs_fine_weights() {
        let (_plan, dep, asg, pol, tm) = tiny_world();
        let (w, _) = build_full(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap();
        assert!(w.fine_len() > 0, "Eq. (1) must install per-commodity weights");
        // the fine weights for stub 0's commodity sum to its volume
        let key = WeightKey {
            point: SteerPoint::Proxy(StubId(0)),
            policy: PolicyId(0),
            next_index: 0,
        };
        let fine = w
            .get_fine(&crate::steer::CommodityKey {
                key,
                src: StubId(0),
                dst: DestKey::Stub(StubId(5)),
            })
            .expect("fine weights installed");
        let total: f64 = fine.iter().map(|&(_, v)| v).sum();
        assert!((total - 600.0).abs() < 1e-6, "total={total}");
    }

    #[test]
    fn missing_function_reported() {
        let (_plan, dep, asg, mut pol, mut tm) = tiny_world();
        pol.push(Policy::new(
            TrafficDescriptor::new().dst_port(22),
            ActionList::chain([TrafficMonitor]),
        ));
        tm.record(StubId(0), DestKey::External, PolicyId(1), 10.0);
        let err = build_reduced(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap_err();
        assert_eq!(err, LbError::MissingFunction(TrafficMonitor, PolicyId(1)));
    }

    #[test]
    fn lambda_cap_triggers_infeasibility() {
        let (_plan, dep, asg, pol, tm) = tiny_world();
        // capacities are 1.0 but demand is 1000 packets: with cap it fails
        let err = build_reduced(
            &dep,
            &asg,
            &pol,
            &tm,
            LbOptions { cap_lambda: true },
        )
        .unwrap_err();
        assert_eq!(err, LbError::Lp(SolveError::Infeasible));
    }

    #[test]
    fn permit_policies_and_zero_traffic_ignored() {
        let plan = campus(1);
        let mut dep = Deployment::new();
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
        let routes = plan.topology().routing_tables();
        let asg = Assignments::compute(&dep, &routes, plan.edges(), &KConfig::uniform(1));
        let mut pol = PolicySet::new();
        pol.push(Policy::permit(TrafficDescriptor::new()));
        let mut tm = TrafficMatrix::new();
        tm.record(StubId(0), DestKey::External, PolicyId(0), 500.0);
        let (w, report) = build_reduced(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap();
        assert!(w.is_empty());
        assert_eq!(report.lambda, 0.0);
    }

    #[test]
    fn three_stage_chain_conserves_flow() {
        let plan = campus(2);
        let mut dep = Deployment::new();
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0));
        dep.add(MiddleboxSpec::new(Ids, plan.cores()[2], 1.0));
        dep.add(MiddleboxSpec::new(Ids, plan.cores()[3], 1.0));
        dep.add(MiddleboxSpec::new(WebProxy, plan.cores()[4], 1.0));
        let routes = plan.topology().routing_tables();
        let asg = Assignments::compute(&dep, &routes, plan.edges(), &KConfig::uniform(2));
        let mut pol = PolicySet::new();
        pol.push(Policy::new(
            TrafficDescriptor::new().dst_port(80),
            ActionList::chain([Firewall, Ids, WebProxy]),
        ));
        let mut tm = TrafficMatrix::new();
        for s in 0..4u32 {
            tm.record(StubId(s), DestKey::External, PolicyId(0), 250.0);
        }
        let (_, report) = build_reduced(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap();
        // the single WP sees all 1000; FWs and IDSes split 500/500
        assert!((report.lambda - 1000.0).abs() < 1e-6, "{}", report.lambda);
    }
}
