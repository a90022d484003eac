//! Hierarchical channel aggregation (paper §3.2, Fig. 3).
//!
//! A [`TreePlan`] partitions the input channels into first-level groups,
//! each reduced to a single token by its own aggregation unit; when more
//! than one group exists, a second-level unit reduces the group outputs to
//! one token. This turns the aggregation memory from quadratic to linear in
//! the channel count at the cost of extra unit parameters — exactly the
//! trade-off the paper's Fig. 9 sweeps.
//!
//! The tree is single-device. D-CHAG (`dchag_core::dchag::DChagEncoder`)
//! runs one [`HierarchicalAggregator`] per rank over that rank's channel
//! slice, then gathers the one token each rank produced.

use dchag_tensor::prelude::*;

use crate::aggregation::AggUnit;
use crate::config::{TreeConfig, UnitKind};

/// Concrete group layout for a given channel count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreePlan {
    /// Sizes of the first-level groups (sums to the input channel count).
    pub level1: Vec<usize>,
    /// Whether a second-level unit (over `level1.len()` tokens) exists.
    pub has_level2: bool,
    pub unit: UnitKind,
}

impl TreePlan {
    /// Balanced contiguous grouping: `channels` split into
    /// `cfg.level1_units(channels)` groups whose sizes differ by at most 1.
    pub fn build(channels: usize, cfg: TreeConfig) -> Self {
        assert!(channels > 0, "no channels to aggregate");
        let g = cfg.level1_units(channels);
        let base = channels / g;
        let extra = channels % g;
        let level1: Vec<usize> = (0..g).map(|i| base + usize::from(i < extra)).collect();
        TreePlan {
            level1,
            has_level2: g > 1,
            unit: cfg.unit,
        }
    }

    /// Total number of aggregation units.
    pub fn num_units(&self) -> usize {
        self.level1.len() + usize::from(self.has_level2)
    }

    /// Largest channel count any unit sees.
    pub fn max_unit_channels(&self) -> usize {
        let l1 = self.level1.iter().copied().max().unwrap_or(0);
        if self.has_level2 {
            l1.max(self.level1.len())
        } else {
            l1
        }
    }
}

/// A tree of aggregation units reducing `[N, C, D]` to `[N, D]`.
pub struct HierarchicalAggregator {
    pub plan: TreePlan,
    level1: Vec<AggUnit>,
    level2: Option<AggUnit>,
    pub dim: usize,
}

impl HierarchicalAggregator {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        channels: usize,
        cfg: TreeConfig,
        dim: usize,
        heads: usize,
    ) -> Self {
        let plan = TreePlan::build(channels, cfg);
        let level1 = plan
            .level1
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                AggUnit::new(
                    store,
                    rng,
                    &format!("{name}.l1.{i}"),
                    cfg.unit,
                    c,
                    dim,
                    heads,
                )
            })
            .collect();
        let level2 = plan.has_level2.then(|| {
            AggUnit::new(
                store,
                rng,
                &format!("{name}.l2"),
                cfg.unit,
                plan.level1.len(),
                dim,
                heads,
            )
        });
        HierarchicalAggregator {
            plan,
            level1,
            level2,
            dim,
        }
    }

    /// `x: [N, C, D] -> [N, D]`.
    pub fn forward(&self, bind: &dyn Binder, x: &Var) -> Var {
        let tape = bind.tape();
        let (n, c, d) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        let total: usize = self.plan.level1.iter().sum();
        assert_eq!(c, total, "channel count does not match tree plan");

        let mut outputs = Vec::with_capacity(self.level1.len());
        let mut start = 0;
        for (unit, &size) in self.level1.iter().zip(&self.plan.level1) {
            let part = tape.slice(x, 1, start, size);
            let reduced = unit.forward(bind, &part); // [N, D]
            outputs.push(tape.reshape(&reduced, &[n, 1, d]));
            start += size;
        }

        match &self.level2 {
            None => tape.reshape(&outputs[0], &[n, d]),
            Some(unit) => {
                let refs: Vec<&Var> = outputs.iter().collect();
                let stacked = tape.concat(&refs, 1); // [N, G, D]
                unit.forward(bind, &stacked)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_tensor::autograd::check::grad_check;

    #[test]
    fn plan_covers_all_channels_balanced() {
        let plan = TreePlan::build(10, TreeConfig::tree(4, UnitKind::Linear));
        assert_eq!(plan.level1, vec![3, 3, 2, 2]);
        assert!(plan.has_level2);
        assert_eq!(plan.num_units(), 5);
    }

    #[test]
    fn tree0_is_single_unit() {
        let plan = TreePlan::build(256, TreeConfig::tree0(UnitKind::CrossAttention));
        assert_eq!(plan.level1, vec![256]);
        assert!(!plan.has_level2);
        assert_eq!(plan.max_unit_channels(), 256);
    }

    #[test]
    fn paper_worked_examples() {
        // 256 local channels: Tree2 -> 2×128, Tree8 -> 8×32 (paper §4.5).
        let t2 = TreePlan::build(256, TreeConfig::tree(2, UnitKind::CrossAttention));
        assert_eq!(t2.level1, vec![128, 128]);
        let t8 = TreePlan::build(256, TreeConfig::tree(8, UnitKind::CrossAttention));
        assert_eq!(t8.level1, vec![32; 8]);
        assert_eq!(t8.max_unit_channels(), 32);
    }

    #[test]
    fn forward_reduces_to_single_token_all_configs() {
        let mut rng = Rng::new(1);
        for cfg in [
            TreeConfig::tree0(UnitKind::Linear),
            TreeConfig::tree(2, UnitKind::Linear),
            TreeConfig::tree(4, UnitKind::CrossAttention),
            TreeConfig::tree(3, UnitKind::CrossAttention),
        ] {
            let mut store = ParamStore::new();
            let agg = HierarchicalAggregator::new(&mut store, &mut rng, "h", 8, cfg, 8, 2);
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let x = tape.leaf(Tensor::randn([4, 8, 8], 1.0, &mut rng));
            let y = agg.forward(&bind, &x);
            assert_eq!(y.dims(), &[4, 8], "{}", cfg.name());
            assert!(y.value().all_finite());
        }
    }

    #[test]
    fn deeper_trees_add_parameters() {
        let mut rng = Rng::new(2);
        let mut count = |cfg| {
            let mut store = ParamStore::new();
            let _ = HierarchicalAggregator::new(&mut store, &mut rng, "h", 16, cfg, 16, 2);
            store.num_params()
        };
        let t0 = count(TreeConfig::tree0(UnitKind::CrossAttention));
        let t4 = count(TreeConfig::tree(4, UnitKind::CrossAttention));
        assert!(t4 > t0, "tree4 {t4} vs tree0 {t0}");
    }

    #[test]
    fn hierarchical_gradcheck() {
        let mut rng = Rng::new(3);
        let mut store = ParamStore::new();
        let agg = HierarchicalAggregator::new(
            &mut store,
            &mut rng,
            "h",
            6,
            TreeConfig::tree(2, UnitKind::Linear),
            4,
            2,
        );
        let x0 = Tensor::randn([2, 6, 4], 0.5, &mut rng);
        grad_check(
            &[x0],
            |tape, leaves| {
                let bind = LocalBinder::new(tape, &store);
                let y = agg.forward(&bind, &leaves[0]);
                tape.sum_all(&tape.mul(&y, &y))
            },
            2e-2,
        );
    }

    #[test]
    #[should_panic(expected = "does not match tree plan")]
    fn channel_mismatch_rejected() {
        let mut rng = Rng::new(4);
        let mut store = ParamStore::new();
        let agg = HierarchicalAggregator::new(
            &mut store,
            &mut rng,
            "h",
            8,
            TreeConfig::tree0(UnitKind::Linear),
            4,
            2,
        );
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::zeros([2, 5, 4]));
        let _ = agg.forward(&bind, &x);
    }
}
