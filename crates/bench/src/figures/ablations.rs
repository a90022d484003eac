//! Ablation studies over D-CHAG's design choices, beyond the paper's
//! figures:
//!
//! 1. what each ingredient buys (distributed tokenization alone →
//!    + hierarchical aggregation → + linear units),
//! 2. tree depth vs memory *and* sustained throughput,
//! 3. where the communication goes (gather bytes per strategy),
//! 4. the §3.5 composition claim: TP vs SP communication profile for the
//!    ViT stage.

use dchag_model::config::{TreeConfig, UnitKind};
use dchag_model::ModelConfig;
use dchag_perf::{gb, pct_gain, MemoryModel, Strategy, Table, ThroughputModel};

pub const BATCH: usize = 8;
pub const TP: usize = 8;

fn model() -> ModelConfig {
    ModelConfig::p1_7b().with_channels(1024)
}

/// Ablation 1: ingredient-by-ingredient memory, 1.7B @ 1024ch, TP8.
pub fn ingredients() -> Table {
    let mem = MemoryModel::frontier();
    let cfg = model();
    let mut t = Table::new(
        "Ablation: what each D-CHAG ingredient buys (1.7B @ 1024ch, TP8)",
        &["configuration", "tok GB", "agg GB", "total GB", "vs TP"],
    );
    let base_total = mem.breakdown(&cfg, &Strategy::tp(TP, BATCH)).total();
    let mut row = |name: &str, s: Strategy| {
        let bd = mem.breakdown(&cfg, &s);
        t.row(vec![
            name.to_string(),
            gb(bd.tok.total()),
            gb(bd.agg.total()),
            gb(bd.total()),
            pct_gain(base_total / bd.total() - 1.0),
        ]);
    };
    row("TP baseline", Strategy::tp(TP, BATCH));
    row(
        "+ distributed tokenization (§3.1)",
        Strategy::dist_token(TP, BATCH),
    );
    row(
        "+ hierarchical aggregation (-C)",
        Strategy::dchag(TreeConfig::tree0(UnitKind::CrossAttention), TP, BATCH),
    );
    row(
        "+ linear units (-L)",
        Strategy::dchag(TreeConfig::tree0(UnitKind::Linear), TP, BATCH),
    );
    t.note("each row adds one ingredient; §3.1 alone barely helps, the hierarchy does");
    t
}

/// Ablation 2: tree depth vs memory and throughput (both unit kinds).
pub fn tree_depth() -> Table {
    let mem = MemoryModel::frontier();
    let thr = ThroughputModel::frontier();
    let cfg = model();
    let mut t = Table::new(
        "Ablation: tree depth (1.7B @ 1024ch, TP8)",
        &["config", "agg params GB", "agg acts GB", "TFLOPs/s/node"],
    );
    for unit in [UnitKind::CrossAttention, UnitKind::Linear] {
        for groups in [0usize, 2, 4, 8, 16] {
            let tree = TreeConfig::tree(groups, unit);
            let s = Strategy::dchag(tree, TP, BATCH);
            let bd = mem.breakdown(&cfg, &s);
            t.row(vec![
                tree.name(),
                format!("{:.2}", bd.agg.params / 1e9),
                format!("{:.2}", bd.agg.acts / 1e9),
                format!("{:.0}", thr.tflops_per_node(&cfg, &s)),
            ]);
        }
    }
    t.note("paper §4.5: deeper trees shrink per-unit activations but add parameters; Tree0-L wins");
    t
}

/// Ablation 3: forward-gather payload per strategy (the communication story).
pub fn gather_bytes() -> Table {
    let cfg = model();
    let (b, p, d) = (BATCH as f64, cfg.num_patches() as f64, cfg.embed_dim as f64);
    let c = cfg.channels as f64;
    let mut t = Table::new(
        "Ablation: forward AllGather payload per rank (1.7B @ 1024ch, TP8)",
        &["strategy", "payload", "bytes/step"],
    );
    t.row(vec![
        "TP baseline".into(),
        "none (tokenization replicated)".into(),
        "0".into(),
    ]);
    t.row(vec![
        "distributed tokenization".into(),
        "[B, C/tp, P, D]".into(),
        format!("{:.0}M", b * (c / TP as f64) * p * d * 2.0 / 1e6),
    ]);
    t.row(vec![
        "D-CHAG".into(),
        "[B, 1, P, D]".into(),
        format!("{:.1}M", b * p * d * 2.0 / 1e6),
    ]);
    t.note(format!(
        "D-CHAG gathers {}x less than distributed tokenization (C/tp = {})",
        (c / TP as f64) as usize,
        (c / TP as f64) as usize
    ));
    t
}

/// Ablation 4: measured communication profile of TP vs SP for the same ViT
/// (paper §3.5's composition claim), from the functional substrate's
/// traffic log — counts and logical bytes for one forward+backward.
pub fn sp_vs_tp_comm() -> Table {
    use dchag_collectives::{run_ranks, CollOp};
    use dchag_model::ViTEncoder;
    use dchag_parallel::{tp_group, SpGradSync, SpViT};
    use dchag_tensor::prelude::*;

    let (dim, depth, heads, seq) = (32usize, 2usize, 4usize, 8usize);
    let mut t = Table::new(
        "Ablation: measured collectives, TP2 vs SP2 ViT (fwd+bwd, tiny model)",
        &["scheme", "AllReduce", "AllGather", "logical MB moved"],
    );

    let tp_run = run_ranks(2, move |ctx| {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(3);
        let tp = tp_group(&ctx.comm);
        let vit = ViTEncoder::sharded(&mut store, &mut rng, "v", dim, depth, heads, dim * 2, &tp);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::randn([2, seq, dim], 1.0, &mut Rng::new(1)));
        let y = vit.forward(&bind, &x);
        let loss = tape.sum_all(&tape.mul(&y, &y));
        let _ = tape.backward(&loss);
    });
    let (ar, ag) = (
        tp_run.traffic.count(CollOp::AllReduce),
        tp_run.traffic.count(CollOp::AllGather),
    );
    let mb = (tp_run.traffic.bytes(CollOp::AllReduce) + tp_run.traffic.bytes(CollOp::AllGather))
        as f64
        / 1e6;
    t.row(vec![
        "TP2 (Megatron f/g)".into(),
        ar.to_string(),
        ag.to_string(),
        format!("{mb:.3}"),
    ]);

    let sp_run = run_ranks(2, move |ctx| {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(3);
        let vit = ViTEncoder::new(&mut store, &mut rng, "v", dim, depth, heads, dim * 2);
        let vit = SpViT::from(vit);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::randn([2, seq, dim], 1.0, &mut Rng::new(1)));
        let y = vit.forward(&bind, &ctx.comm, &x);
        let loss = tape.sum_all(&tape.mul(&y, &y));
        let grads = tape.backward(&loss);
        let mut pg = bind.grads(&grads);
        SpGradSync::new(ctx.comm.clone()).sync(&mut pg);
    });
    let (ar, ag) = (
        sp_run.traffic.count(CollOp::AllReduce),
        sp_run.traffic.count(CollOp::AllGather),
    );
    let mb = (sp_run.traffic.bytes(CollOp::AllReduce) + sp_run.traffic.bytes(CollOp::AllGather))
        as f64
        / 1e6;
    t.row(vec![
        "SP2 (token shard + K/V gather)".into(),
        ar.to_string(),
        ag.to_string(),
        format!("{mb:.3}"),
    ]);
    t.note("TP moves activations on every f/g; SP moves projected K/V + one grad AllReduce");
    t.note("both compose with D-CHAG along the channel axis (paper §3.5)");
    t
}

pub fn run() -> Vec<Table> {
    vec![ingredients(), tree_depth(), gather_bytes(), sp_vs_tp_comm()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingredients_monotone_improvement() {
        // hierarchy must beat dist-tok-alone, linear must beat cross.
        let mem = MemoryModel::frontier();
        let cfg = model();
        let tp = mem.breakdown(&cfg, &Strategy::tp(TP, BATCH)).total();
        let dt = mem
            .breakdown(&cfg, &Strategy::dist_token(TP, BATCH))
            .total();
        let dc = mem
            .breakdown(
                &cfg,
                &Strategy::dchag(TreeConfig::tree0(UnitKind::CrossAttention), TP, BATCH),
            )
            .total();
        let dl = mem
            .breakdown(
                &cfg,
                &Strategy::dchag(TreeConfig::tree0(UnitKind::Linear), TP, BATCH),
            )
            .total();
        assert!(dt < tp * 1.05, "dist-tok ~ breakeven");
        assert!(dc < dt, "hierarchy beats gather-everything");
        assert!(dl < dc, "linear units beat cross-attention units");
    }

    #[test]
    fn deeper_c_trees_trade_acts_for_params() {
        let mem = MemoryModel::frontier();
        let cfg = model();
        let at = |g: usize| {
            mem.breakdown(
                &cfg,
                &Strategy::dchag(TreeConfig::tree(g, UnitKind::CrossAttention), TP, BATCH),
            )
            .agg
        };
        let t0 = at(0);
        let t8 = at(8);
        assert!(t8.params > t0.params, "deeper trees add parameters");
        assert!(t8.acts < t0.acts, "…but shrink activations");
    }

    #[test]
    fn dchag_gather_is_two_orders_smaller() {
        let cfg = model();
        let c_per_rank = cfg.channels / TP;
        assert!(c_per_rank >= 100, "gather ratio = C/tp = {c_per_rank}");
    }

    #[test]
    fn tables_render() {
        for t in run() {
            assert!(!t.rows.is_empty());
            let _ = t.render();
        }
    }

    #[test]
    fn sp_and_tp_both_communicate_but_differently() {
        let t = sp_vs_tp_comm();
        // TP has AllReduces but no gathers; SP has gathers + one grad sync.
        let tp_row = &t.rows[0];
        let sp_row = &t.rows[1];
        assert!(tp_row[1].parse::<usize>().unwrap() > 0, "TP AllReduces");
        assert_eq!(tp_row[2], "0", "TP has no AllGather");
        assert!(sp_row[2].parse::<usize>().unwrap() > 0, "SP gathers K/V");
    }
}
