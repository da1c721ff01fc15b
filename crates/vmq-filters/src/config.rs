//! Filter architecture and training configuration.

use serde::{Deserialize, Serialize};
use vmq_nn::optim::Adam;
use vmq_nn::train::{EpochStats, Epochs, Sample, Trainable};
use vmq_video::{ObjectClass, RasterConfig};

/// The `(α, β)` training schedule of Sec. II-A plus optimiser settings.
///
/// The paper first trains the count task alone (`β = 0`), then switches to
/// `(α, β) = (1, 10)` and gradually decreases `β` while keeping `α` fixed —
/// this converges much faster than optimising both tasks from the start.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainSchedule {
    /// Total number of epochs.
    pub epochs: usize,
    /// Number of initial epochs with `β = 0` (count-only).
    pub count_only_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base learning rate (the paper uses 1e-4 on full-size networks; the
    /// miniature networks here train with a larger rate).
    pub learning_rate: f32,
    /// L2 weight decay (paper: 5e-4).
    pub weight_decay: f32,
    /// Count-loss weight `α` (paper: 1).
    pub alpha: f32,
    /// Initial map-loss weight `β` (paper: 10).
    pub beta_start: f32,
    /// Multiplicative decay applied to `β` each epoch after it is enabled.
    pub beta_decay: f32,
    /// `λ_obj` for the OD grid loss (Eq. 3) — weight of occupied cells.
    pub lambda_obj: f32,
    /// `λ_noobj` for the OD grid loss (Eq. 3) — weight of empty cells.
    pub lambda_noobj: f32,
}

impl TrainSchedule {
    /// A very short schedule for unit tests.
    ///
    /// The paper starts the map term at `β = 10` on its full-size networks;
    /// on the miniature networks used here the class-activation maps share
    /// far fewer feature channels with the count head, so a large `β` lets
    /// the map objective squash the count predictions on dense scenes. The
    /// schedules therefore start `β` lower and decay it faster — the same
    /// kind of manual hyper-parameter adjustment Sec. IV describes.
    pub fn fast_test() -> Self {
        TrainSchedule {
            epochs: 2,
            count_only_epochs: 1,
            batch_size: 8,
            learning_rate: 2e-3,
            weight_decay: 1e-4,
            alpha: 1.0,
            beta_start: 3.0,
            beta_decay: 0.5,
            lambda_obj: 5.0,
            lambda_noobj: 0.5,
        }
    }

    /// The schedule of the experiment-size filters.
    pub fn experiment() -> Self {
        TrainSchedule { epochs: 5, count_only_epochs: 2, ..TrainSchedule::fast_test() }
    }

    /// Trains `net` on this schedule over `samples` samples, shuffled by
    /// `seed`, with Adam and L2 weight decay: the one epoch loop
    /// ([`vmq_nn::train::train`]), each batch sharded over the whole machine
    /// ([`vmq_exec::parallelism`]). `pass` is the filter's per-sample
    /// forward, loss and backward.
    pub(crate) fn train<N: Trainable>(
        &self,
        net: &mut N,
        samples: usize,
        seed: u64,
        pass: impl Fn(&N, Sample<'_>) -> f32 + Sync,
    ) -> Vec<EpochStats> {
        let plan = Epochs { samples, epochs: self.epochs, batch_size: self.batch_size, seed };
        let opt = Adam::with_weight_decay(self.learning_rate, self.weight_decay);
        vmq_nn::train::train(net, plan, opt, vmq_exec::parallelism(), pass)
    }

    /// The `β` value in effect at a given epoch.
    pub fn beta_at(&self, epoch: usize) -> f32 {
        if epoch < self.count_only_epochs {
            0.0
        } else {
            self.beta_start * self.beta_decay.powi((epoch - self.count_only_epochs) as i32)
        }
    }
}

/// Architecture + training configuration shared by the IC and OD filters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FilterConfig {
    /// Classes the filter is trained for (a filter per dataset is trained on
    /// that dataset's classes, as in the paper).
    pub classes: Vec<ObjectClass>,
    /// Rasterisation of input frames.
    pub raster: RasterConfig,
    /// Grid side length `g` of the localisation maps.
    pub grid: usize,
    /// Channel widths of the trunk convolutions. The first
    /// `log2(raster / grid)` convolutions are each followed by a 2×2 max-pool
    /// so the final feature map has spatial size `grid × grid`.
    pub trunk_channels: Vec<usize>,
    /// Channel width of the OD branch convolutions (Fig. 4).
    pub branch_channels: usize,
    /// Threshold applied to activation / occupancy grids (paper: 0.2).
    pub threshold: f32,
    /// Training schedule.
    pub schedule: TrainSchedule,
    /// Seed controlling initialisation and data order.
    pub seed: u64,
}

impl FilterConfig {
    /// Small configuration for unit tests (28-pixel raster, 14×14 grid).
    pub fn fast_test(classes: Vec<ObjectClass>) -> Self {
        FilterConfig {
            classes,
            raster: RasterConfig::tiny(),
            grid: 14,
            trunk_channels: vec![6, 12],
            branch_channels: 12,
            threshold: 0.2,
            schedule: TrainSchedule::fast_test(),
            seed: 7,
        }
    }

    /// Experiment-size configuration (56-pixel raster,
    /// 14×14 grid, slightly wider networks).
    pub fn experiment(classes: Vec<ObjectClass>) -> Self {
        FilterConfig {
            classes,
            raster: RasterConfig::default(),
            grid: 14,
            trunk_channels: vec![8, 16, 16],
            branch_channels: 16,
            threshold: 0.2,
            schedule: TrainSchedule::experiment(),
            seed: 7,
        }
    }

    /// Number of 2×2 pooling stages needed to reduce the raster resolution to
    /// the grid resolution.
    ///
    /// # Panics
    /// Panics when the raster size is not `grid * 2^k` for an integer `k`, or
    /// when the trunk has fewer convolutions than pooling stages.
    pub fn pool_stages(&self) -> usize {
        assert_eq!(self.raster.width, self.raster.height, "raster must be square");
        let mut size = self.raster.width;
        let mut pools = 0usize;
        while size > self.grid {
            assert!(size.is_multiple_of(2), "raster {} cannot be pooled down to grid {}", self.raster.width, self.grid);
            size /= 2;
            pools += 1;
        }
        assert_eq!(size, self.grid, "raster {} cannot be pooled down to grid {}", self.raster.width, self.grid);
        assert!(
            self.trunk_channels.len() >= pools,
            "trunk needs at least {} convolutions for {} pooling stages",
            pools,
            pools
        );
        pools
    }

    /// Number of classes the filter predicts.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Channel count of the final trunk feature map (`d` in the paper).
    pub fn feature_channels(&self) -> usize {
        *self.trunk_channels.last().expect("trunk must have at least one convolution")
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes() -> Vec<ObjectClass> {
        vec![ObjectClass::Car, ObjectClass::Person]
    }

    #[test]
    fn beta_schedule_matches_paper_shape() {
        let s = TrainSchedule { epochs: 8, count_only_epochs: 3, ..TrainSchedule::fast_test() };
        assert_eq!(s.beta_at(0), 0.0);
        assert_eq!(s.beta_at(2), 0.0);
        assert_eq!(s.beta_at(3), s.beta_start);
        assert!(s.beta_at(5) < s.beta_at(4));
        assert!(s.beta_at(7) > 0.0);
    }

    #[test]
    fn pool_stages_fast_test() {
        let c = FilterConfig::fast_test(classes());
        assert_eq!(c.raster.width, 28);
        assert_eq!(c.grid, 14);
        assert_eq!(c.pool_stages(), 1);
        assert_eq!(c.num_classes(), 2);
        assert_eq!(c.feature_channels(), 12);
    }

    #[test]
    fn pool_stages_experiment_and_paper() {
        assert_eq!(FilterConfig::experiment(classes()).pool_stages(), 2);
        // The paper's full scale (DESIGN.md): a 448-pixel raster pooled to a
        // 56×56 grid over a four-convolution trunk.
        let paper = FilterConfig {
            raster: RasterConfig { width: 448, height: 448, noise: 0.0, clutter: 0, seed: 0 },
            grid: 56,
            trunk_channels: vec![64, 128, 256, 256],
            ..FilterConfig::experiment(classes())
        };
        assert_eq!(paper.pool_stages(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot be pooled down")]
    fn incompatible_grid_panics() {
        let c = FilterConfig { grid: 9, ..FilterConfig::fast_test(classes()) };
        let _ = c.pool_stages();
    }

    #[test]
    fn builders() {
        let c = FilterConfig { grid: 7, ..FilterConfig::fast_test(classes()).with_seed(99) };
        assert_eq!(c.seed, 99);
        assert_eq!(c.pool_stages(), 2); // 28 -> 14 -> 7
    }
}
