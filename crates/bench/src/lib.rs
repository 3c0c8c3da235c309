//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§IV), plus the ablations documented in DESIGN.md.
//!
//! The pipeline mirrors the paper's methodology:
//!
//! 1. build the topology (campus or Waxman) and the middlebox deployment
//!    (WP=4, FW=7, IDS=7, TM=4 on random core routers);
//! 2. generate the three policy classes and a power-law flow population
//!    scaled to a total packet budget;
//! 3. run **hot-potato** enforcement — its proxies measure the per-policy
//!    traffic matrix exactly as §III.C prescribes;
//! 4. hand the measurements to the controller, solve the Eq. (2) LP, and
//!    rerun the same flows under **load-balanced** enforcement;
//! 5. run **random** enforcement for the third baseline;
//! 6. report per-middlebox-type loads.
//!
//! Every experiment is a subcommand of the one `sdm` binary: a row of
//! [`experiments::EXPERIMENTS`], parsed and dispatched by [`cli`]. The
//! bytes each prints are pinned by [`golden::GOLDENS`] (`sdm golden`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod golden;
pub mod reach_worlds;
pub mod replay;

use sdm_core::{
    Controller, Deployment, EnforcementOptions, KConfig, LbError, LbOptions, LbReport,
    LoadReport, SteeringWeights, Strategy, TrafficMatrix,
};
use sdm_netsim::AddressPlan;
use sdm_policy::NetworkFunction;
use sdm_topology::NetworkPlan;
use sdm_util::par::shard_count;
use sdm_workload::{
    evaluation_policies, generate_flows_with_total, to_flow_specs, Flow, GeneratedPolicies,
    PolicyClassCounts, WorkloadConfig,
};

/// Which evaluation topology to build (§IV.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// The real-world campus network: 2 gateways, 16 cores, 10 edges.
    Campus,
    /// The Waxman random topology: 25 cores, 400 edges.
    Waxman,
}

/// Configuration of one experiment world.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Topology to generate.
    pub topology: TopologyKind,
    /// Seed for topology, deployment, policies and flows.
    pub seed: u64,
    /// Policies per class.
    pub policy_counts: PolicyClassCounts,
    /// Middlebox counts in the order WP, FW, IDS, TM.
    pub mbox_counts: [usize; 4],
    /// Candidate-set sizes.
    pub k: KConfig,
}

impl ExperimentConfig {
    /// The paper's campus setting.
    pub fn campus(seed: u64) -> Self {
        ExperimentConfig {
            topology: TopologyKind::Campus,
            seed,
            policy_counts: PolicyClassCounts::default(),
            mbox_counts: [4, 7, 7, 4],
            k: KConfig::paper_default(),
        }
    }

    /// The paper's Waxman setting.
    pub fn waxman(seed: u64) -> Self {
        ExperimentConfig {
            topology: TopologyKind::Waxman,
            ..Self::campus(seed)
        }
    }
}

/// A fully built experiment world: network, deployment, controller and
/// generated policies.
pub struct World {
    /// The central controller (owns topology, deployment, policies).
    pub controller: Controller,
    /// Generated policy metadata (classes, endpoints).
    pub generated: GeneratedPolicies,
    /// The deployment (kept separately for load reporting).
    pub deployment: Deployment,
}

impl World {
    /// Builds the world for a configuration.
    pub fn build(cfg: &ExperimentConfig) -> World {
        let plan: NetworkPlan = match cfg.topology {
            TopologyKind::Campus => sdm_topology::campus::campus(cfg.seed),
            TopologyKind::Waxman => sdm_topology::waxman::waxman(cfg.seed),
        };
        let deployment =
            Deployment::evaluation_with_counts(&plan, cfg.seed.wrapping_add(1), &cfg.mbox_counts);
        let addrs = AddressPlan::new(&plan);
        let generated =
            evaluation_policies(&addrs, cfg.policy_counts, cfg.seed.wrapping_add(2));
        let controller = Controller::new(
            plan,
            deployment.clone(),
            generated.set.clone(),
            cfg.k.clone(),
        );
        World {
            controller,
            generated,
            deployment,
        }
    }

    /// Generates flows totalling `total_packets` packets.
    pub fn flows(&self, total_packets: u64, seed: u64) -> Vec<Flow> {
        let cfg = WorkloadConfig {
            seed,
            ..Default::default()
        };
        generate_flows_with_total(
            &self.generated,
            self.controller.addr_plan(),
            &cfg,
            total_packets,
        )
    }

    /// Runs one strategy over a flow population (aggregate fast path,
    /// [`Controller::run_sharded`] at [`shard_count`] shards) and returns
    /// per-middlebox loads plus the measured traffic matrix. The numbers
    /// are identical for any shard count; the plan is proven by the
    /// static verifier before a packet is injected.
    pub fn run_strategy(
        &self,
        strategy: Strategy,
        weights: Option<SteeringWeights>,
        flows: &[Flow],
    ) -> StrategyRun {
        let run = self.controller.run_sharded(
            strategy,
            weights.as_ref(),
            EnforcementOptions::default(),
            &to_flow_specs(flows, 512),
            shard_count(),
        );
        StrategyRun {
            report: run.load_report(&self.deployment),
            loads: run.loads,
            measurements: run.measurements,
            delivered: run.stats.delivered + run.stats.delivered_external,
            link_hops: run.stats.link_hops,
        }
    }

    /// Steps 3–4 of the methodology: the hot-potato measurement pass over
    /// `flows`, then the Eq. (2) LP on the traffic matrix its proxies
    /// measured. Returns the HP run with the LB weights and LP diagnostics.
    pub fn measure_and_solve(
        &self,
        flows: &[Flow],
    ) -> Result<(StrategyRun, SteeringWeights, LbReport), LbError> {
        let hp = self.run_strategy(Strategy::HotPotato, None, flows);
        let (weights, report) = self
            .controller
            .solve_load_balanced(&hp.measurements, LbOptions::default())?;
        Ok((hp, weights, report))
    }

    /// The full three-strategy comparison of §IV.B at one traffic volume:
    /// HP (which doubles as the measurement pass), Rand, and LB driven by
    /// the Eq. (2) LP on HP's measurements.
    ///
    /// # Panics
    ///
    /// Panics if the load-balancing LP fails (a deployment must offer
    /// every function the policies use).
    pub fn compare_strategies(&self, flows: &[Flow]) -> Comparison {
        let (hp, weights, lb_report) = self
            .measure_and_solve(flows)
            .expect("load-balancing LP must solve");
        let rand = self.run_strategy(Strategy::Random { salt: 0xDA7A }, None, flows);
        let lb = self.run_strategy(Strategy::LoadBalanced, Some(weights), flows);
        Comparison {
            hp,
            rand,
            lb,
            lb_report,
        }
    }
}

/// Result of one strategy run.
pub struct StrategyRun {
    /// Per-middlebox packet loads.
    pub loads: Vec<u64>,
    /// Per-type summary.
    pub report: LoadReport,
    /// Traffic matrix the proxies measured during the run.
    pub measurements: TrafficMatrix,
    /// Packets delivered end-to-end.
    pub delivered: u64,
    /// Router-to-router link traversals across the run.
    pub link_hops: u64,
}

impl StrategyRun {
    /// Average router-to-router hops per delivered packet.
    pub fn hops_per_packet(&self) -> f64 {
        self.link_hops as f64 / self.delivered.max(1) as f64
    }
}

/// The three-strategy comparison at one traffic volume.
pub struct Comparison {
    /// Hot-potato run.
    pub hp: StrategyRun,
    /// Random run.
    pub rand: StrategyRun,
    /// Load-balanced run.
    pub lb: StrategyRun,
    /// LP diagnostics for the LB run.
    pub lb_report: LbReport,
}

/// The four middlebox types in the paper's plotting order (Figures 4–5:
/// FW, IDS, WP, TM).
pub const PLOT_ORDER: [NetworkFunction; 4] = [
    NetworkFunction::Firewall,
    NetworkFunction::Ids,
    NetworkFunction::WebProxy,
    NetworkFunction::TrafficMonitor,
];

/// Formats one figure row: total volume plus max load per type for the
/// three strategies.
pub fn figure_row(total: u64, c: &Comparison) -> String {
    let mut s = format!("{:>10}", total);
    for f in PLOT_ORDER {
        let hp = c.hp.report.row(f).map_or(0, |r| r.max);
        let rd = c.rand.report.row(f).map_or(0, |r| r.max);
        let lb = c.lb.report.row(f).map_or(0, |r| r.max);
        s.push_str(&format!(
            " | {:>9} {:>9} {:>9}",
            hp, rd, lb
        ));
    }
    s
}

/// Header line matching [`figure_row`].
pub fn figure_header() -> String {
    let mut s = format!("{:>10}", "packets");
    for f in PLOT_ORDER {
        s.push_str(&format!(
            " | {:>9} {:>9} {:>9}",
            format!("{}-HP", f.abbrev()),
            format!("{}-Rd", f.abbrev()),
            format!("{}-LB", f.abbrev()),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end comparison: LB must not exceed HP's maximum
    /// load on any type, and every strategy delivers all packets.
    #[test]
    fn small_campus_comparison_shape() {
        let cfg = ExperimentConfig::campus(3);
        let world = World::build(&cfg);
        let flows = world.flows(50_000, 99);
        let total: u64 = flows.iter().map(|f| f.packets).sum();
        let c = world.compare_strategies(&flows);
        assert_eq!(c.hp.delivered, total);
        assert_eq!(c.lb.delivered, total);
        assert_eq!(c.rand.delivered, total);
        // headline: LB's worst-loaded box is no worse than HP's (small
        // hash-split noise allowed)
        let hp_max = c.hp.report.overall_max() as f64;
        let lb_max = c.lb.report.overall_max() as f64;
        assert!(
            lb_max <= hp_max * 1.10,
            "LB {lb_max} should not exceed HP {hp_max}"
        );
    }

    #[test]
    fn figure_rows_format() {
        assert!(figure_header().contains("FW-HP"));
        assert!(figure_header().contains("TM-LB"));
    }
}
