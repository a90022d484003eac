//! Hardware description: the Frontier node (paper §4.1).
//!
//! Each Frontier node has four MI250X accelerators = eight GCDs; the system
//! reports every GCD as an independent GPU with 64 GB of HBM. GCDs within a
//! node are connected by Infinity Fabric (50 GB/s links); nodes connect via
//! four Slingshot-11 NICs (100 GB/s total per node).

/// One GPU (= one MI250X GCD in the paper's terminology).
#[derive(Clone, Copy, Debug)]
pub struct GpuSpec {
    /// HBM capacity in bytes.
    pub hbm_bytes: f64,
    /// Peak matrix throughput, bf16 FLOP/s.
    pub peak_flops: f64,
    /// Sustained fraction of peak achievable by transformer kernels.
    pub efficiency: f64,
    /// Sustained fraction of peak for per-channel tokenization: many skinny
    /// GEMMs (K = p² = 256) that cannot saturate the MFMA pipes.
    pub tok_efficiency: f64,
}

/// A homogeneous multi-node machine.
#[derive(Clone, Copy, Debug)]
pub struct MachineSpec {
    pub gpu: GpuSpec,
    pub gpus_per_node: usize,
    /// Per-GPU intra-node bandwidth (Infinity Fabric), bytes/s.
    pub intra_bw: f64,
    /// Per-GPU share of the node's injection bandwidth (Slingshot), bytes/s.
    pub inter_bw: f64,
    /// Collective launch latency, seconds.
    pub alpha_intra: f64,
    pub alpha_inter: f64,
    /// Fraction of HBM usable by the application (allocator reserve,
    /// runtime buffers).
    pub usable_fraction: f64,
}

impl MachineSpec {
    /// Frontier: MI250X GCD = 64 GB HBM, 191.5 TFLOP/s bf16 peak;
    /// 50 GB/s Infinity Fabric per GCD pair; 100 GB/s Slingshot per node
    /// shared by 8 GCDs.
    pub fn frontier() -> Self {
        MachineSpec {
            gpu: GpuSpec {
                hbm_bytes: 64e9,
                peak_flops: 191.5e12,
                efficiency: 0.32,
                tok_efficiency: 0.10,
            },
            gpus_per_node: 8,
            // achieved ring bus-bandwidth (RCCL) inside a node; the 50 GB/s
            // figure is the per-link peak, collectives sustain less.
            intra_bw: 35e9,
            inter_bw: 100e9 / 8.0,
            alpha_intra: 8e-6,
            alpha_inter: 25e-6,
            usable_fraction: 0.95,
        }
    }

    /// Usable HBM per GPU in bytes.
    pub fn mem_cap(&self) -> f64 {
        self.gpu.hbm_bytes * self.usable_fraction
    }

    /// Sustained per-GPU FLOP/s for dense transformer kernels.
    pub fn sustained_flops(&self) -> f64 {
        self.gpu.peak_flops * self.gpu.efficiency
    }

    /// Sustained per-GPU FLOP/s for the tokenization kernels.
    pub fn sustained_tok_flops(&self) -> f64 {
        self.gpu.peak_flops * self.gpu.tok_efficiency
    }

    /// Number of nodes needed for `gpus` GPUs.
    pub fn nodes_for(&self, gpus: usize) -> usize {
        gpus.div_ceil(self.gpus_per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_node_has_eight_gcds() {
        let m = MachineSpec::frontier();
        assert_eq!(m.gpus_per_node, 8);
        assert_eq!(m.nodes_for(1024), 128);
        assert_eq!(m.nodes_for(9), 2);
    }

    #[test]
    fn memory_cap_below_hbm() {
        let m = MachineSpec::frontier();
        assert!(m.mem_cap() < m.gpu.hbm_bytes);
        assert!(m.mem_cap() > 0.9 * m.gpu.hbm_bytes);
    }

    #[test]
    fn interconnect_hierarchy() {
        let m = MachineSpec::frontier();
        assert!(m.intra_bw > m.inter_bw, "IF must beat Slingshot share");
        assert!(m.alpha_inter > m.alpha_intra);
    }
}
