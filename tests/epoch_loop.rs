//! Integration tests for the online re-steer control loop (§III.C):
//!
//! * **Determinism** — the same epoch schedule (injection, mid-schedule
//!   failure and restore, per-epoch warm re-solves) produces a
//!   byte-identical transcript across shard counts 1/4 and drain limits
//!   1/256.
//! * **Stickiness** — a weight update activated between epochs never
//!   re-steers a live flow: the first-hop pins recorded in the flow
//!   tables survive the swap, and re-injecting the same flow population
//!   repeats the previous epoch's per-middlebox load distribution
//!   exactly.

use std::fmt::Write as _;

use sdm::core::{
    shard_of, Controller, Deployment, EnforcementOptions, EpochLoop, KConfig, LbOptions,
    MiddleboxId, MiddleboxSpec,
};
use sdm::netsim::{FiveTuple, Protocol, StubId};
use sdm::policy::{ActionList, NetworkFunction::*, Policy, PolicySet, TrafficDescriptor};

fn controller() -> Controller {
    let plan = sdm::topology::campus::campus(1);
    let mut dep = Deployment::new();
    dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
    dep.add(MiddleboxSpec::new(Firewall, plan.cores()[4], 1.0));
    dep.add(MiddleboxSpec::new(Firewall, plan.cores()[9], 1.0));
    dep.add(MiddleboxSpec::new(Ids, plan.cores()[2], 1.0));
    dep.add(MiddleboxSpec::new(Ids, plan.cores()[7], 1.0));
    let mut policies = PolicySet::new();
    policies.push(Policy::new(
        TrafficDescriptor::new().dst_port(80),
        ActionList::chain([Firewall]),
    ));
    // A two-function chain so middlebox-to-middlebox steering (and its
    // stickiness pin) is exercised too.
    policies.push(Policy::new(
        TrafficDescriptor::new().dst_port(443),
        ActionList::chain([Firewall, Ids]),
    ));
    Controller::new(plan, dep, policies, KConfig::paper_default())
}

fn flow(c: &Controller, from: u32, to: u32, sp: u16, dport: u16) -> FiveTuple {
    FiveTuple {
        src: c.addr_plan().host(StubId(from), sp as u32),
        dst: c.addr_plan().host(StubId(to), 1),
        src_port: 40000 + sp,
        dst_port: dport,
        proto: Protocol::Tcp,
    }
}

fn specs(c: &Controller, salt: u16, count: u16) -> Vec<sdm::core::FlowSpec> {
    (0..count)
        .map(|i| sdm::core::FlowSpec {
            flow: flow(
                c,
                (i % 4) as u32,
                4 + (i % 3) as u32,
                salt + i,
                if i % 3 == 0 { 443 } else { 80 },
            ),
            packets: 100 + (i as u64 * 13) % 400,
            payload: 512,
        })
        .collect()
}

fn busiest(loads: &[u64]) -> MiddleboxId {
    MiddleboxId(
        loads
            .iter()
            .enumerate()
            .max_by_key(|&(_, l)| l)
            .map(|(i, _)| i as u32)
            .expect("non-empty deployment"),
    )
}

/// Runs a fixed four-epoch schedule — with a data-plane failure after
/// epoch 2 and a restore after epoch 3 — and serializes everything the
/// loop produced: per-epoch reports (cells, volume, lambda, pivots, warm,
/// activated), final per-middlebox loads, delivery and failure-drop
/// counters, and the loop's whole run record. f64s are printed with `{:?}` (shortest round-trip), so any
/// bit-level divergence shows up in the transcript.
fn transcript(shards: usize, batch: usize) -> String {
    let c = controller();
    let mut ep = EpochLoop::new(&c, shards, EnforcementOptions::default(), LbOptions::default());
    ep.set_batch_size(batch);
    let mut out = String::new();
    for round in 0..4u16 {
        let flows = specs(&c, 1 + round * 500, 36 + round * 4);
        let r = ep.run_epoch(&flows).expect("epoch must activate");
        writeln!(
            out,
            "epoch {} cells {} volume {:?} lambda {:?} pivots {} warm {} activated {}",
            r.epoch, r.cells, r.volume, r.lambda, r.pivots, r.warm, r.activated
        )
        .unwrap();
        if round == 1 {
            let victim = busiest(&ep.middlebox_loads());
            ep.fail_middlebox(victim);
            writeln!(out, "fail {}", victim.0).unwrap();
        }
        if round == 2 {
            let victim = busiest(&ep.middlebox_loads());
            ep.restore_middlebox(victim);
            writeln!(out, "restore {}", victim.0).unwrap();
        }
    }
    writeln!(out, "loads {:?}", ep.middlebox_loads()).unwrap();
    writeln!(
        out,
        "delivered {} dropped_failed {}",
        ep.delivered(),
        ep.dropped_failed()
    )
    .unwrap();
    // The whole run record, so the corners are compared field for field
    // (all but `shards` and the execution-dependent telemetry families).
    let run = ep.snapshot();
    assert_eq!(run.shards, shards);
    writeln!(
        out,
        "record events {} stats {:?} measurements {:?} proxies {:?} ingress {:?} mboxes {:?} \
footprint {:?} telemetry {}",
        run.events,
        run.stats,
        run.measurements,
        run.proxy_counters,
        run.ingress_counters,
        run.mbox_counters,
        run.footprint,
        run.telemetry.to_json(false)
    )
    .unwrap();
    out
}

#[test]
fn epoch_schedule_is_shard_and_batch_invariant() {
    let reference = transcript(1, 1);
    assert!(
        reference.contains("warm true"),
        "schedule must exercise the warm-start path:\n{reference}"
    );
    assert!(
        reference.contains("dropped_failed") && !reference.contains("dropped_failed 0"),
        "schedule must exercise the failure path:\n{reference}"
    );
    for (shards, batch) in [(4, 1), (1, 256), (4, 256)] {
        let other = transcript(shards, batch);
        assert_eq!(
            reference, other,
            "transcript diverged at shards={shards} batch={batch}"
        );
    }
}

#[test]
fn live_flows_stay_sticky_across_a_weight_update() {
    for (shards, batch) in [(1, 1), (4, 256)] {
        let c = controller();
        let mut ep =
            EpochLoop::new(&c, shards, EnforcementOptions::default(), LbOptions::default());
        ep.set_batch_size(batch);
        let base = specs(&c, 1, 40);

        // Epoch 1 runs weightless (bootstrap) and activates LP weights;
        // every flow's first hop is now pinned in its flow-table entry.
        let r1 = ep.run_epoch(&base).unwrap();
        assert!(r1.activated, "epoch 1 must install weights");
        let n = ep.shards().len();
        let pins_before: Vec<Option<u32>> = base
            .iter()
            .map(|s| {
                let enf = &ep.shards()[shard_of(&s.flow, n)];
                let src_stub = c.addr_plan().stub_of(s.flow.src).expect("stub-homed source");
                let st = enf.proxy_state(src_stub);
                let pin = st.lock().flows.pinned_next(s.flow);
                assert!(pin.is_some(), "epoch-1 flow must have been pinned");
                pin
            })
            .collect();
        let after1 = ep.middlebox_loads();

        // Epoch 2 re-injects the *same* flow population under the *new*
        // weights. Stickiness: pins are unchanged and the per-middlebox
        // load increment exactly repeats epoch 1.
        let r2 = ep.run_epoch(&base).unwrap();
        assert!(r2.activated);
        let pins_after: Vec<Option<u32>> = base
            .iter()
            .map(|s| {
                let enf = &ep.shards()[shard_of(&s.flow, n)];
                let src_stub = c.addr_plan().stub_of(s.flow.src).expect("stub-homed source");
                let st = enf.proxy_state(src_stub);
                let guard = st.lock();
                guard.flows.pinned_next(s.flow)
            })
            .collect();
        assert_eq!(
            pins_before, pins_after,
            "weight update must not re-pin live flows (shards={shards} batch={batch})"
        );
        let after2 = ep.middlebox_loads();
        let delta2: Vec<u64> = after2.iter().zip(&after1).map(|(a, b)| a - b).collect();
        assert_eq!(
            delta2, after1,
            "sticky re-injection must repeat the epoch-1 load split (shards={shards} batch={batch})"
        );
    }
}
