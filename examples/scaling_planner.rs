//! Scaling planner: answers "will model M with C channels fit on N GPUs,
//! and what layout should I use?" using the calibrated Frontier model —
//! reproducing the regime analysis of the paper's §4.3 and §6.1.
//!
//! ```text
//! cargo run --release --example scaling_planner [params_b] [channels] [gpus]
//! cargo run --release --example scaling_planner 7 512 16
//! ```

use dchag::prelude::*;
use dchag_perf::gb;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params_b: f64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(7.0);
    let channels: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(512);
    let gpus: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);

    let cfg = match params_b {
        x if x <= 0.2 => ModelConfig::p100m(),
        x if x <= 1.2 => ModelConfig::p1b(),
        x if x <= 2.0 => ModelConfig::p1_7b(),
        x if x <= 4.0 => ModelConfig::p3b(),
        x if x <= 10.0 => ModelConfig::p7b(),
        x if x <= 20.0 => ModelConfig::p15b(),
        _ => ModelConfig::p26b(),
    }
    .with_channels(channels);

    println!(
        "model: {:.1}B transformer params, {} channels, {} GPUs requested",
        cfg.transformer_params() as f64 / 1e9,
        channels,
        gpus
    );

    let planner = Planner::new();
    let mem = MemoryModel::frontier();

    // Regime analysis (paper §4.3): is model parallelism needed at all?
    if planner.fsdp_suffices(&cfg, gpus.min(8), 1) {
        println!("regime: FSDP alone suffices — prefer scaling the batch dimension");
    } else {
        println!("regime: model parallelism required (FSDP alone cannot fit this)");
    }
    match planner.min_tp_baseline(&cfg, 8) {
        Some(tp) => println!("TP alone: minimum {tp} GPUs"),
        None => println!("TP alone: does not fit at any TP degree (like the paper's 26B@256ch)"),
    }
    match planner.min_tp_dchag(&cfg, TreeConfig::tree0(UnitKind::Linear), 8) {
        Some(tp) => println!("D-CHAG-L + TP: minimum {tp} GPUs"),
        None => println!("D-CHAG-L + TP: does not fit"),
    }

    match planner.best_on(&cfg, gpus, 1) {
        Some(plan) => {
            println!("\nrecommended on {gpus} GPUs: {}", plan.strategy.name());
            println!(
                "  micro-batch {}   global batch {}",
                plan.strategy.micro_batch,
                plan.strategy.global_batch()
            );
            println!("  predicted memory   {} GB/GPU", gb(plan.mem_per_gpu));
            println!(
                "  predicted sustained {:.0} TFLOP/s total",
                plan.tflops_total
            );
            println!("  rationale: {}", plan.rationale);
            let bd = mem.breakdown(&cfg, &plan.strategy);
            println!(
                "  breakdown: tok {} GB, agg {} GB, transformer {} GB",
                gb(bd.tok.total()),
                gb(bd.agg.total()),
                gb(bd.vit.total())
            );
        }
        None => {
            println!("\nno configuration fits on {gpus} GPUs — add GPUs or channels-parallel ranks")
        }
    }
}
