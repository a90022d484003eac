//! α-β collective cost model over the two-level Frontier interconnect.
//!
//! Ring algorithms; a group that fits inside one node runs on Infinity
//! Fabric, anything spanning nodes is bottlenecked by the per-GPU share of
//! Slingshot injection bandwidth.

use crate::hw::MachineSpec;

/// Which fabric a group's ring traverses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    Intra,
    Inter,
}

/// Fabric for a group of `g` contiguous ranks (TP-fastest layouts keep
/// groups contiguous, so a group ≤ node size is intra-node).
pub fn wire_for_group(machine: &MachineSpec, group: usize, contiguous: bool) -> Wire {
    if contiguous && group <= machine.gpus_per_node {
        Wire::Intra
    } else {
        Wire::Inter
    }
}

fn bw(machine: &MachineSpec, wire: Wire) -> f64 {
    match wire {
        Wire::Intra => machine.intra_bw,
        Wire::Inter => machine.inter_bw,
    }
}

fn alpha(machine: &MachineSpec, wire: Wire) -> f64 {
    match wire {
        Wire::Intra => machine.alpha_intra,
        Wire::Inter => machine.alpha_inter,
    }
}

/// Ring AllGather where each rank contributes `bytes`: every rank receives
/// `(g−1)·bytes` over `g−1` steps.
pub fn allgather_time(machine: &MachineSpec, bytes: f64, g: usize, wire: Wire) -> f64 {
    if g <= 1 {
        return 0.0;
    }
    let steps = (g - 1) as f64;
    steps * (bytes / bw(machine, wire) + alpha(machine, wire))
}

/// Ring ReduceScatter of a `bytes`-sized buffer per rank.
pub fn reduce_scatter_time(machine: &MachineSpec, bytes: f64, g: usize, wire: Wire) -> f64 {
    if g <= 1 {
        return 0.0;
    }
    let steps = (g - 1) as f64;
    steps * (bytes / g as f64 / bw(machine, wire) + alpha(machine, wire))
}

/// Ring AllReduce = ReduceScatter + AllGather of the chunked buffer.
pub fn allreduce_time(machine: &MachineSpec, bytes: f64, g: usize, wire: Wire) -> f64 {
    if g <= 1 {
        return 0.0;
    }
    let steps = (g - 1) as f64;
    2.0 * steps * (bytes / g as f64 / bw(machine, wire) + alpha(machine, wire))
}

// ----- chunked pipelining / comm-compute overlap -----------------------------

/// Ring AllReduce split into `chunks` pipeline stages: the bandwidth term is
/// unchanged, but every chunk pays its own latency rounds — the cost of
/// making the transfer overlappable.
pub fn chunked_allreduce_time(
    machine: &MachineSpec,
    bytes: f64,
    g: usize,
    wire: Wire,
    chunks: usize,
) -> f64 {
    if g <= 1 {
        return 0.0;
    }
    let steps = (g - 1) as f64;
    let c = chunks.max(1) as f64;
    2.0 * steps * (bytes / g as f64 / bw(machine, wire)) + c * 2.0 * steps * alpha(machine, wire)
}

/// Wall-clock of `compute` overlapped against a `comm`-second collective
/// pipelined over `chunks` stages: the longer leg hides the shorter, plus a
/// one-chunk fill/drain that can never overlap. `chunks == 0` (or 1) models
/// the blocking rendezvous — pure serialization.
pub fn overlapped_time(compute: f64, comm: f64, chunks: usize) -> f64 {
    if chunks <= 1 {
        return compute + comm;
    }
    compute.max(comm) + comm / chunks as f64
}

/// Measured overlap fraction: how much of the communication time was hidden
/// behind compute, from the three wall clocks a bench observes. 0 = fully
/// serialized (pipelined ran no faster than blocking), 1 = communication
/// entirely hidden.
pub fn overlap_fraction(blocking: f64, pipelined: f64, comm: f64) -> f64 {
    if comm <= 0.0 {
        return 0.0;
    }
    ((blocking - pipelined) / comm).clamp(0.0, 1.0)
}

// ----- measured α-β estimation ---------------------------------------------

/// Least-squares fit of the α-β cost model `t = α + bytes/bw` over
/// measured `(bytes, seconds)` samples — typically one sample per
/// completed pipeline chunk, whose `TrafficLog` timestamps already carry
/// exactly this data. Returns `(α seconds, bandwidth bytes/s)`.
///
/// `None` when the samples cannot identify the model: fewer than 4
/// points, no size variation (a schedule of identical chunks has no lever
/// arm on the slope — the tail chunk usually provides it), or a
/// non-positive fitted slope (noise dominating the bandwidth term).
/// A slightly negative fitted intercept (fast fabrics + timer noise) is
/// clamped to a nanosecond rather than rejected, so α stays positive.
pub fn estimate_alpha_beta(samples: &[(f64, f64)]) -> Option<(f64, f64)> {
    const MIN_SAMPLES: usize = 4;
    const ALPHA_FLOOR: f64 = 1e-9;
    let pts: Vec<(f64, f64)> = samples
        .iter()
        .copied()
        .filter(|&(b, t)| b > 0.0 && t >= 0.0 && t.is_finite())
        .collect();
    if pts.len() < MIN_SAMPLES {
        return None;
    }
    let bmin = pts.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let bmax = pts.iter().map(|p| p.0).fold(0.0f64, f64::max);
    if bmax <= bmin {
        return None;
    }
    let n = pts.len() as f64;
    let (mut sb, mut st, mut sbb, mut sbt) = (0.0, 0.0, 0.0, 0.0);
    for &(b, t) in &pts {
        sb += b;
        st += t;
        sbb += b * b;
        sbt += b * t;
    }
    let denom = n * sbb - sb * sb;
    if denom <= 0.0 {
        return None;
    }
    let slope = (n * sbt - sb * st) / denom;
    if slope <= 0.0 || !slope.is_finite() {
        return None;
    }
    let alpha = ((st - slope * sb) / n).max(ALPHA_FLOOR);
    Some((alpha, 1.0 / slope))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> MachineSpec {
        MachineSpec::frontier()
    }

    #[test]
    fn single_rank_collectives_free() {
        assert_eq!(allgather_time(&m(), 1e9, 1, Wire::Intra), 0.0);
        assert_eq!(allreduce_time(&m(), 1e9, 1, Wire::Inter), 0.0);
    }

    #[test]
    fn inter_node_slower_than_intra() {
        let s = 100e6;
        assert!(allreduce_time(&m(), s, 8, Wire::Inter) > allreduce_time(&m(), s, 8, Wire::Intra));
    }

    #[test]
    fn allreduce_twice_reduce_scatter() {
        let s = 64e6;
        let rs = reduce_scatter_time(&m(), s, 8, Wire::Intra);
        let ar = allreduce_time(&m(), s, 8, Wire::Intra);
        assert!((ar - 2.0 * rs).abs() / ar < 1e-9);
    }

    #[test]
    fn wire_selection_by_node_boundary() {
        assert_eq!(wire_for_group(&m(), 8, true), Wire::Intra);
        assert_eq!(wire_for_group(&m(), 16, true), Wire::Inter);
        assert_eq!(wire_for_group(&m(), 2, false), Wire::Inter);
    }

    #[test]
    fn bandwidth_term_dominates_large_messages() {
        let small = allgather_time(&m(), 1e3, 8, Wire::Intra);
        let large = allgather_time(&m(), 1e9, 8, Wire::Intra);
        assert!(large > 100.0 * small);
    }

    #[test]
    fn chunking_adds_only_latency() {
        let s = 1e9;
        let whole = allreduce_time(&m(), s, 8, Wire::Inter);
        let chunked = chunked_allreduce_time(&m(), s, 8, Wire::Inter, 16);
        assert!(chunked > whole, "per-chunk latency rounds cost something");
        // extra cost is exactly the 15 additional alpha rounds
        let extra = 15.0 * 2.0 * 7.0 * m().alpha_inter;
        assert!(
            (chunked - whole - extra).abs() / whole < 1e-9,
            "{chunked} vs {whole}"
        );
        // bandwidth-bound at 1 GB: latency overhead is a small fraction
        assert!((chunked - whole) / whole < 0.1);
        assert_eq!(chunked_allreduce_time(&m(), s, 8, Wire::Inter, 1), whole);
    }

    #[test]
    fn overlap_hides_the_shorter_leg() {
        // comm-bound: compute disappears behind the pipeline
        let t = overlapped_time(1.0, 4.0, 16);
        assert!(t < 1.0 + 4.0);
        assert!((t - (4.0 + 0.25)).abs() < 1e-12);
        // blocking baseline serializes
        assert_eq!(overlapped_time(1.0, 4.0, 1), 5.0);
        // compute-bound: comm fully hidden except fill/drain
        assert!((overlapped_time(4.0, 1.0, 10) - 4.1).abs() < 1e-12);
    }

    #[test]
    fn overlap_fraction_clamps_and_scales() {
        assert_eq!(overlap_fraction(5.0, 5.0, 2.0), 0.0);
        assert_eq!(overlap_fraction(5.0, 3.0, 2.0), 1.0);
        assert!((overlap_fraction(5.0, 4.0, 2.0) - 0.5).abs() < 1e-12);
        assert_eq!(overlap_fraction(5.0, 1.0, 2.0), 1.0, "clamped");
        assert_eq!(overlap_fraction(5.0, 6.0, 2.0), 0.0, "clamped");
    }

    #[test]
    fn alpha_beta_fit_recovers_exact_model() {
        // Samples generated from t = α + b/bw must be recovered to
        // round-off (the fit is exact for noiseless data).
        let (alpha, bw) = (12e-6, 30e9);
        let samples: Vec<(f64, f64)> = [65536.0, 65536.0, 65536.0, 16384.0, 32768.0]
            .iter()
            .map(|&b| (b, alpha + b / bw))
            .collect();
        let (a, w) = estimate_alpha_beta(&samples).unwrap();
        assert!((a - alpha).abs() / alpha < 1e-6, "α {a} vs {alpha}");
        assert!((w - bw).abs() / bw < 1e-6, "bw {w} vs {bw}");
    }

    #[test]
    fn alpha_beta_fit_rejects_unidentifiable_samples() {
        // Too few points.
        assert!(estimate_alpha_beta(&[(1e4, 1e-4), (2e4, 2e-4)]).is_none());
        // No size variation: slope has no lever arm.
        let same: Vec<(f64, f64)> = (0..8).map(|i| (4096.0, 1e-5 + i as f64 * 1e-8)).collect();
        assert!(estimate_alpha_beta(&same).is_none());
        // Negative slope (bigger chunks finishing faster = noise).
        let bad: Vec<(f64, f64)> = [(1e4, 4e-4), (2e4, 3e-4), (3e4, 2e-4), (4e4, 1e-4)].to_vec();
        assert!(estimate_alpha_beta(&bad).is_none());
        // Degenerate byte counts are filtered, not fit.
        let zeros: Vec<(f64, f64)> = (0..8).map(|_| (0.0, 1e-5)).collect();
        assert!(estimate_alpha_beta(&zeros).is_none());
    }

    #[test]
    fn alpha_beta_fit_clamps_negative_intercept() {
        // Slight timer skew can pull the intercept below zero; the fit
        // clamps α instead of failing, so a noisy log still yields a fit.
        let bw = 10e9;
        let samples: Vec<(f64, f64)> = [1e4f64, 2e4, 3e4, 4e4]
            .iter()
            .map(|&b| (b, (b / bw - 1e-7).max(0.0)))
            .collect();
        let (a, w) = estimate_alpha_beta(&samples).unwrap();
        assert!(a > 0.0 && a <= 1e-6, "α clamped small, got {a}");
        assert!(w > 0.0);
    }
}
