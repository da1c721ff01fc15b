//! Differential test of [`CostLedger`] against the map-backed ledger it
//! replaced.
//!
//! `ModelLedger` is that ledger, kept as the reference: per-stage
//! invocation, calibration and audit counts in three `BTreeMap`s and the
//! per-user attribution in a fourth keyed by `(user, stage)`, absent entries
//! read as zero. The ledger under test keeps dense per-stage arrays and one
//! row per user; after every operation of a random sequence every reader
//! must agree with the reference bit for bit. A settlement
//! ([`CostLedger::settle_attribution`]) must equal the clear-then-attribute
//! sequence it replaced.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vmq_detect::{CostLedger, CostModel, Stage, StageCost};

const USERS: usize = 6;

/// The reference: the map-backed ledger, verbatim in behaviour.
#[derive(Default)]
struct ModelLedger {
    invocations: BTreeMap<Stage, u64>,
    calibration: BTreeMap<Stage, u64>,
    audit: BTreeMap<Stage, u64>,
    attribution: BTreeMap<(usize, Stage), f64>,
}

fn get(map: &BTreeMap<Stage, u64>, stage: Stage) -> u64 {
    map.get(&stage).copied().unwrap_or(0)
}

impl ModelLedger {
    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Charge(stage, frames) => *self.invocations.entry(stage).or_insert(0) += frames,
            Op::Calibration(stage, frames) => {
                *self.invocations.entry(stage).or_insert(0) += frames;
                *self.calibration.entry(stage).or_insert(0) += frames;
            }
            Op::Audit(stage, frames) => {
                *self.invocations.entry(stage).or_insert(0) += frames;
                *self.audit.entry(stage).or_insert(0) += frames;
            }
            Op::Shared(stage, frames, ref users) => {
                *self.invocations.entry(stage).or_insert(0) += frames;
                if users.is_empty() {
                    return;
                }
                let share = frames as f64 / users.len() as f64;
                for &user in users {
                    *self.attribution.entry((user, stage)).or_insert(0.0) += share;
                }
            }
            Op::Attribute(stage, user, frames) => *self.attribution.entry((user, stage)).or_insert(0.0) += frames,
            Op::Clear(stage) => self.attribution.retain(|&(_, s), _| s != stage),
            // A settlement as first written: clear, then one attribution
            // per user.
            Op::Settle(stage, ref frames) => {
                self.apply(&Op::Clear(stage));
                for (user, &f) in frames.iter().enumerate() {
                    self.apply(&Op::Attribute(stage, user, f));
                }
            }
            Op::Reset => *self = ModelLedger::default(),
        }
    }

    fn attributed(&self, user: usize, stage: Stage) -> f64 {
        self.attribution.get(&(user, stage)).copied().unwrap_or(0.0)
    }

    fn stage_costs(&self, model: &CostModel, map: &BTreeMap<Stage, u64>) -> Vec<StageCost> {
        Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let frames = get(map, stage);
                (frames > 0).then(|| StageCost { stage, frames, virtual_ms: model.cost_ms(stage) * frames as f64 })
            })
            .collect()
    }

    fn sum_ms(&self, model: &CostModel, map: &BTreeMap<Stage, u64>) -> f64 {
        Stage::ALL.iter().map(|&s| model.cost_ms(s) * get(map, s) as f64).sum()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Charge(Stage, u64),
    Calibration(Stage, u64),
    Audit(Stage, u64),
    Shared(Stage, u64, Vec<usize>),
    Attribute(Stage, usize, f64),
    Clear(Stage),
    Settle(Stage, Vec<f64>),
    Reset,
}

impl Op {
    fn apply(&self, ledger: &CostLedger) {
        match *self {
            Op::Charge(stage, frames) => ledger.charge(stage, frames),
            Op::Calibration(stage, frames) => ledger.charge_calibration(stage, frames),
            Op::Audit(stage, frames) => ledger.charge_audit(stage, frames),
            Op::Shared(stage, frames, ref users) => ledger.charge_shared(stage, frames, users),
            Op::Attribute(stage, user, frames) => ledger.attribute(stage, user, frames),
            Op::Clear(stage) => ledger.clear_attribution(stage),
            Op::Settle(stage, ref frames) => ledger.settle_attribution(stage, frames),
            Op::Reset => ledger.reset(),
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..16, 0usize..Stage::ALL.len(), 0u64..50, prop::collection::vec(0usize..USERS, 0..4), 1u32..8).prop_map(
        |(kind, stage, frames, users, parts)| {
            let stage = Stage::ALL[stage];
            match kind {
                0..=2 => Op::Charge(stage, frames),
                3 => Op::Calibration(stage, frames),
                4 => Op::Audit(stage, frames),
                5..=8 => Op::Shared(stage, frames, users),
                // Fractions like a settlement's equal splits.
                9..=12 => Op::Attribute(stage, users.first().copied().unwrap_or(USERS - 1), 1.0 / f64::from(parts)),
                13 => Op::Clear(stage),
                14 => Op::Settle(stage, users.iter().map(|&u| u as f64 / f64::from(parts)).collect()),
                _ => Op::Reset,
            }
        },
    )
}

fn bits(costs: &[StageCost]) -> Vec<(Stage, u64, u64)> {
    costs.iter().map(|c| (c.stage, c.frames, c.virtual_ms.to_bits())).collect()
}

/// Every reader of the ledger against the reference.
fn assert_agrees(ledger: &CostLedger, model: &ModelLedger, what: &str) {
    let costs = ledger.model();
    prop_assert_eq!(bits(&ledger.breakdown()), bits(&model.stage_costs(costs, &model.invocations)), "{}", what);
    prop_assert_eq!(
        bits(&ledger.calibration_breakdown()),
        bits(&model.stage_costs(costs, &model.calibration)),
        "{}",
        what
    );
    prop_assert_eq!(bits(&ledger.audit_breakdown()), bits(&model.stage_costs(costs, &model.audit)), "{}", what);
    prop_assert_eq!(ledger.total_ms().to_bits(), model.sum_ms(costs, &model.invocations).to_bits(), "{}", what);
    prop_assert_eq!(ledger.calibration_ms().to_bits(), model.sum_ms(costs, &model.calibration).to_bits(), "{}", what);
    prop_assert_eq!(ledger.audit_ms().to_bits(), model.sum_ms(costs, &model.audit).to_bits(), "{}", what);
    for stage in Stage::ALL {
        prop_assert_eq!(ledger.invocations(stage), get(&model.invocations, stage), "{}", what);
        prop_assert_eq!(ledger.calibration_invocations(stage), get(&model.calibration, stage), "{}", what);
        prop_assert_eq!(ledger.audit_invocations(stage), get(&model.audit, stage), "{}", what);
        prop_assert_eq!(
            ledger.stage_ms(stage).to_bits(),
            (costs.cost_ms(stage) * get(&model.invocations, stage) as f64).to_bits()
        );
        for user in 0..USERS + 2 {
            prop_assert_eq!(
                ledger.attributed_frames(stage, user).to_bits(),
                model.attributed(user, stage).to_bits(),
                "{}",
                what
            );
        }
    }
    for user in 0..USERS + 2 {
        let want: f64 = Stage::ALL.iter().map(|&s| costs.cost_ms(s) * model.attributed(user, s)).sum();
        prop_assert_eq!(ledger.attributed_ms(user).to_bits(), want.to_bits(), "{}", what);
    }
    let names: Vec<(String, f64)> = (0..USERS).map(|u| (format!("q{u}"), u as f64 * 1.5)).collect();
    let shared = ledger.shared_cost(&names);
    prop_assert_eq!(shared.shared_total_ms.to_bits(), model.sum_ms(costs, &model.invocations).to_bits());
    for (user, row) in shared.queries.iter().enumerate() {
        let want: f64 = Stage::ALL.iter().map(|&s| costs.cost_ms(s) * model.attributed(user, s)).sum();
        prop_assert_eq!(row.attributed_ms.to_bits(), want.to_bits(), "{}", what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After every operation of a random sequence, every reader of the dense
    /// ledger equals the map-backed reference bit for bit.
    #[test]
    fn dense_ledger_equals_the_map_ledger(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let ledger = CostLedger::paper();
        let mut model = ModelLedger::default();
        for (step, op) in ops.iter().enumerate() {
            op.apply(&ledger);
            model.apply(op);
            assert_agrees(&ledger, &model, &format!("step {step}: {op:?}"));
        }
    }
}
