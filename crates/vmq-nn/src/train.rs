//! Mini-batch training: the one epoch loop every filter trains through.
//!
//! [`train`] shuffles, batches and steps the optimiser; a filter supplies
//! only its per-sample pass (forward, loss, backward). The samples of a
//! batch run side by side over pool workers, each with its own workspace,
//! [`Tape`] and gradient slot, and the slots are summed in sample order. So
//! every width trains the same bits as one sample after another: each
//! parameter-gradient kernel adds exactly one term per sample to each
//! element, and `((+0 + g₀) + g₁) + …` over the slots is that same sum.

use crate::init::seeded_rng;
use crate::net::{Param, Sequential};
use crate::optim::Optimizer;
use crate::workspace::{Tape, Workspace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Summary statistics for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean loss over all samples in the epoch.
    pub mean_loss: f32,
    /// Number of samples seen.
    pub samples: usize,
}

/// Returns a shuffled permutation of `0..n`.
pub fn sample_order(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx
}

/// Splits an index permutation into batches of at most `batch_size`.
pub fn batches(order: &[usize], batch_size: usize) -> std::slice::Chunks<'_, usize> {
    assert!(batch_size > 0, "batch size must be positive");
    order.chunks(batch_size)
}

/// A network [`train`] can fit: shared read-only by every sample of a batch,
/// written only between batches.
pub trait Trainable: Sync {
    /// Every trainable parameter, in the order a gradient slot lays them out.
    fn parameters_mut(&mut self) -> Vec<&mut Param>;
}

impl Trainable for Sequential {
    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        Sequential::parameters_mut(self)
    }
}

/// The shape of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Epochs {
    /// Training samples, indexed `0..samples`.
    pub samples: usize,
    /// Passes over the samples.
    pub epochs: usize,
    /// Samples per optimiser step (0 trains as 1).
    pub batch_size: usize,
    /// Seeds the per-epoch shuffle.
    pub seed: u64,
}

/// One sample's pass, as [`train`] hands it to the caller.
pub struct Sample<'a> {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Which training sample.
    pub index: usize,
    /// `1 / batch length`: the batch loss is the mean of its samples' losses.
    pub scale: f32,
    /// This worker's workspace.
    pub ws: &'a mut Workspace,
    /// This worker's tape, empty on entry; the pass must leave it empty.
    pub tape: &'a mut Tape,
    /// The sample's gradient slot, +0.0 on entry, laid out as
    /// [`Trainable::parameters_mut`].
    pub grad: &'a mut [f32],
}

/// Trains `net` for `plan.epochs` epochs of shuffled mini-batches and returns
/// each epoch's mean loss (nothing for no samples). `pass` runs one sample
/// (forward, loss, backward into the slot) and returns its loss; every batch
/// then sets each `Param::grad` to the sum of its samples' slots, in sample
/// order ([`sum_slots`]), and steps `opt`.
///
/// A batch's samples shard in contiguous runs over up to `width` pool tasks
/// through [`vmq_exec::shard_each`] (the filters pass
/// [`vmq_exec::parallelism`]); width 1 runs on the caller and opens no
/// scope. The result is bit-identical at every width. Workspaces, tapes and
/// slots live for this call only.
pub fn train<N: Trainable>(
    net: &mut N,
    plan: Epochs,
    mut opt: impl Optimizer,
    width: usize,
    pass: impl Fn(&N, Sample<'_>) -> f32 + Sync,
) -> Vec<EpochStats> {
    let batch_size = plan.batch_size.clamp(1, plan.samples.max(1));
    let grad_len: usize = net.parameters_mut().iter().map(|p| p.len()).sum();
    let mut slots: Vec<Slot> =
        (0..batch_size).map(|_| Slot { index: 0, loss: 0.0, grad: vec![0.0; grad_len] }).collect();
    let mut workers: Vec<(Workspace, Tape)> = (0..width.clamp(1, batch_size)).map(|_| Default::default()).collect();
    let mut rng = seeded_rng(plan.seed);
    let run_epoch = |epoch| {
        let order = sample_order(plan.samples, &mut rng);
        let mut epoch_loss = 0.0f64;
        for batch in batches(&order, batch_size) {
            let slots = &mut slots[..batch.len()];
            for (slot, &index) in slots.iter_mut().zip(batch) {
                slot.index = index;
                slot.grad.fill(0.0);
            }
            let (shared, scale) = (&*net, 1.0 / batch.len() as f32);
            vmq_exec::shard_each(slots, &mut workers, |run, (ws, tape)| {
                for Slot { index, loss, grad } in run {
                    *loss = pass(shared, Sample { epoch, index: *index, scale, ws: &mut *ws, tape: &mut *tape, grad });
                    debug_assert!(tape.is_empty(), "a training pass left records on its tape");
                }
            });
            epoch_loss = slots.iter().fold(epoch_loss, |sum, slot| sum + slot.loss as f64);
            sum_slots(&mut net.parameters_mut(), slots.iter().map(|slot| &slot.grad[..]));
            opt.step(&mut net.parameters_mut());
        }
        EpochStats { epoch, mean_loss: (epoch_loss / plan.samples as f64) as f32, samples: plan.samples }
    };
    (0..plan.epochs).take_while(|_| plan.samples > 0).map(run_epoch).collect()
}

/// One sample of a batch: which training sample, its loss and its gradient
/// slot.
struct Slot {
    index: usize,
    loss: f32,
    grad: Vec<f32>,
}

/// Sets each parameter's gradient to the sum of the slots, in slot order from
/// +0.0: what adding one sample after another into a zeroed gradient
/// computes. Each slot is laid out in `params` order.
pub fn sum_slots<'a>(params: &mut [&mut Param], slots: impl IntoIterator<Item = &'a [f32]>) {
    params.iter_mut().for_each(|p| p.zero_grad());
    for slot in slots {
        let mut rest = slot;
        for p in params.iter_mut() {
            let (own, after) = rest.split_at(p.len());
            p.grad.data_mut().iter_mut().zip(own).for_each(|(g, &s)| *g += s);
            rest = after;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn sample_order_is_permutation() {
        let mut rng = seeded_rng(0);
        let order = sample_order(10, &mut rng);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn batches_cover_all_indices() {
        let order: Vec<usize> = (0..10).collect();
        let bs: Vec<&[usize]> = batches(&order, 3).collect();
        assert_eq!(bs.len(), 4);
        assert_eq!(bs.iter().map(|b| b.len()).sum::<usize>(), 10);
        assert_eq!(bs[3], [9]);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        let _ = batches(&[0, 1], 0);
    }
}
