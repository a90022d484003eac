//! Hybrid process-grid construction (paper §3.4, Fig. 5).
//!
//! World ranks are laid out TP-fastest: adjacent ranks form a TP group
//! (keeping the chattiest collectives intra-node on a Frontier-like
//! topology), FSDP groups stride across TP groups, and DP groups stride
//! across FSDP × TP blocks. D-CHAG shares the TP group (paper §3.4: "the
//! D-CHAG and TP groups are identical").

use dchag_collectives::Communicator;

/// Grid coordinates of one rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridCoord {
    pub tp: usize,
    pub fsdp: usize,
    pub dp: usize,
}

/// The three communicators a hybrid run needs, plus this rank's coordinates.
pub struct HybridGroups {
    pub tp: Communicator,
    pub fsdp: Communicator,
    pub dp: Communicator,
    pub coord: GridCoord,
    pub tp_size: usize,
    pub fsdp_size: usize,
    pub dp_size: usize,
}

impl HybridGroups {
    /// Split the world into a `dp × fsdp × tp` grid (tp fastest-varying).
    pub fn build(world: &Communicator, tp_size: usize, fsdp_size: usize, dp_size: usize) -> Self {
        assert_eq!(
            tp_size * fsdp_size * dp_size,
            world.size(),
            "grid {tp_size}x{fsdp_size}x{dp_size} != world {}",
            world.size()
        );
        let r = world.rank();
        let coord = GridCoord {
            tp: r % tp_size,
            fsdp: (r / tp_size) % fsdp_size,
            dp: r / (tp_size * fsdp_size),
        };
        // Color = index of the group a rank belongs to.
        let tp = world.split(r / tp_size);
        let fsdp = world.split(coord.dp * tp_size + coord.tp);
        let dp = world.split(coord.fsdp * tp_size + coord.tp);
        HybridGroups {
            tp,
            fsdp,
            dp,
            coord,
            tp_size,
            fsdp_size,
            dp_size,
        }
    }
}

/// Refit a `dp × fsdp × tp` grid to a shrunk world after an elastic regroup.
///
/// Keeps each axis as large as possible subject to its pre-failure size
/// (TP first — it carries the chattiest collectives and must stay
/// intra-node-sized — then FSDP; DP absorbs the remainder, since data
/// parallelism tolerates any replica count). Every returned axis divides
/// the world exactly, so [`HybridGroups::build`] accepts the result; a
/// prime survivor count degenerates to pure DP (e.g. `w=3` with any
/// preference → `(1, 1, 3)`).
///
/// Returns `(tp_size, fsdp_size, dp_size)`.
pub fn refit_grid(
    world: usize,
    tp_size: usize,
    fsdp_size: usize,
    dp_size: usize,
) -> (usize, usize, usize) {
    assert!(world > 0 && tp_size > 0 && fsdp_size > 0 && dp_size > 0);
    let largest_div_leq = |n: usize, cap: usize| {
        (1..=cap.min(n))
            .rev()
            .find(|d| n.is_multiple_of(*d))
            .unwrap_or(1)
    };
    let tp = largest_div_leq(world, tp_size);
    let rem = world / tp;
    let fsdp = largest_div_leq(rem, fsdp_size);
    (tp, fsdp, rem / fsdp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_collectives::run_ranks;
    use dchag_tensor::Tensor;

    #[test]
    fn grid_coordinates_consistent() {
        let run = run_ranks(8, |ctx| {
            let g = HybridGroups::build(&ctx.comm, 2, 2, 2);
            // reconstruct the rank from coordinates
            let r = (g.coord.dp * 2 + g.coord.fsdp) * 2 + g.coord.tp;
            (r, ctx.comm.rank())
        });
        for (rebuilt, actual) in run.outputs {
            assert_eq!(rebuilt, actual);
        }
    }

    #[test]
    fn group_sizes_match_spec() {
        let run = run_ranks(8, |ctx| {
            let g = HybridGroups::build(&ctx.comm, 4, 2, 1);
            (g.tp.size(), g.fsdp.size(), g.dp.size())
        });
        for s in run.outputs {
            assert_eq!(s, (4, 2, 1));
        }
    }

    #[test]
    fn tp_groups_are_contiguous_ranks() {
        // TP-fastest layout keeps TP groups on adjacent ranks, which a
        // Frontier topology maps intra-node.
        let run = run_ranks(8, |ctx| {
            let g = HybridGroups::build(&ctx.comm, 4, 1, 2);
            g.tp.group_ranks().to_vec()
        });
        assert_eq!(run.outputs[0], vec![0, 1, 2, 3]);
        assert_eq!(run.outputs[5], vec![4, 5, 6, 7]);
    }

    #[test]
    fn orthogonal_groups_reduce_independently() {
        // Sum of world rank over each group must match the group's members.
        let run = run_ranks(8, |ctx| {
            let g = HybridGroups::build(&ctx.comm, 2, 2, 2);
            let t = Tensor::full([1], ctx.comm.rank() as f32);
            let tp_sum = g.tp.all_reduce_sum(&t).item();
            let want: f32 = g.tp.group_ranks().iter().map(|&r| r as f32).sum();
            (tp_sum, want)
        });
        for (got, want) in run.outputs {
            assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "grid")]
    fn wrong_grid_product_rejected() {
        run_ranks(4, |ctx| {
            let _ = HybridGroups::build(&ctx.comm, 2, 2, 2);
        });
    }

    #[test]
    fn fault_refit_grid_preserves_axes_where_divisible() {
        // Unchanged world: identity.
        assert_eq!(refit_grid(8, 2, 2, 2), (2, 2, 2));
        // 8 -> 6 survivors with (2,2,2) preference: TP keeps 2, FSDP can't
        // divide 3 so collapses, DP absorbs.
        assert_eq!(refit_grid(6, 2, 2, 2), (2, 1, 3));
        // Prime survivor count degenerates to pure DP.
        assert_eq!(refit_grid(3, 2, 2, 2), (1, 1, 3));
        assert_eq!(refit_grid(7, 4, 2, 1), (1, 1, 7));
        // TP is preferred over FSDP when both could claim the factor.
        assert_eq!(refit_grid(4, 4, 2, 1), (4, 1, 1));
        // Product always reconstructs the world (build() accepts it).
        for w in 1..=16usize {
            let (t, f, d) = refit_grid(w, 4, 2, 2);
            assert_eq!(t * f * d, w, "w={w}");
        }
        // A refit grid actually builds and reduces over survivors.
        let run = run_ranks(6, |ctx| {
            let (t, f, d) = refit_grid(ctx.comm.size(), 2, 2, 2);
            let g = HybridGroups::build(&ctx.comm, t, f, d);
            g.dp.all_reduce_sum(&Tensor::ones([1])).item()
        });
        for s in run.outputs {
            assert_eq!(s, 3.0, "dp groups of size 3");
        }
    }

    #[test]
    fn tp_groups_intra_node_on_frontier_topology() {
        // 16 ranks = 2 Frontier nodes; TP=8 keeps each TP group on one node.
        let run = run_ranks(16, |ctx| {
            let g = HybridGroups::build(&ctx.comm, 8, 1, 2);
            (g.tp.is_intra_node(), g.dp.is_intra_node())
        });
        for (tp_intra, dp_intra) in run.outputs {
            assert!(tp_intra, "TP group must be intra-node");
            assert!(!dp_intra, "DP group spans nodes");
        }
    }
}
