//! Machine descriptions for the execution substrate.

/// Description of the memory hierarchy and compute throughput of the machine
/// the cost model and the cache simulator target.
///
/// The default configuration models the Intel Xeon E5-2680 v3 used in the
/// paper's experiments (§4, "Experimental Setup"): 12 cores at 2.5 GHz,
/// 32 KiB 8-way L1D, 256 KiB 8-way L2, 30 MiB shared L3, AVX2 + FMA.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable name of the modeled machine.
    pub name: String,
    /// Core clock frequency in Hz.
    pub frequency_hz: f64,
    /// Number of physical cores available for parallel loops.
    pub cores: usize,
    /// Double-precision FLOPs per cycle per core for scalar code.
    pub scalar_flops_per_cycle: f64,
    /// SIMD vector width in doubles (4 for AVX2).
    pub vector_width: usize,
    /// Fraction of peak a vectorized loop actually sustains.
    pub vector_efficiency: f64,
    /// L1 data cache capacity in bytes.
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// L2 cache capacity in bytes.
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// Last-level cache capacity in bytes.
    pub l3_bytes: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Sustained main-memory bandwidth for one core, bytes per second.
    pub dram_bandwidth: f64,
    /// Factor by which total bandwidth grows when all cores stream
    /// (bandwidth saturates well below the core count).
    pub bandwidth_scalability: f64,
    /// Sustained bandwidth of the L2 cache, bytes per second.
    pub l2_bandwidth: f64,
    /// Sustained bandwidth of the L1 cache, bytes per second.
    pub l1_bandwidth: f64,
    /// Fraction of peak FLOP/s a tuned BLAS library call sustains.
    pub blas_efficiency: f64,
    /// Fixed per-thread fork/join overhead of a parallel region, seconds.
    pub parallel_overhead: f64,
    /// Multiplicative penalty applied to updates that must be performed
    /// atomically (a parallelized reduction).
    pub atomic_penalty: f64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::xeon_e5_2680v3()
    }
}

impl MachineConfig {
    /// The machine used in the paper: Intel Xeon E5-2680 v3 (Haswell-EP),
    /// 12 cores, 2.5 GHz, AVX2 + FMA, 64 GiB of DDR4.
    pub fn xeon_e5_2680v3() -> Self {
        MachineConfig {
            name: "Intel Xeon E5-2680 v3".to_string(),
            frequency_hz: 2.5e9,
            cores: 12,
            // FMA on one port sustained by scalar code: ~2 flops/cycle.
            scalar_flops_per_cycle: 2.0,
            vector_width: 4,
            vector_efficiency: 0.7,
            l1_bytes: 32 * 1024,
            l1_assoc: 8,
            l2_bytes: 256 * 1024,
            l2_assoc: 8,
            l3_bytes: 30 * 1024 * 1024,
            line_bytes: 64,
            dram_bandwidth: 12.0e9,
            bandwidth_scalability: 4.5,
            l2_bandwidth: 60.0e9,
            l1_bandwidth: 150.0e9,
            blas_efficiency: 0.80,
            parallel_overhead: 8.0e-6,
            atomic_penalty: 8.0,
        }
    }

    /// A small machine with tiny caches, useful in tests because cache
    /// capacity effects appear at small problem sizes.
    pub fn tiny_for_tests() -> Self {
        MachineConfig {
            name: "tiny test machine".to_string(),
            frequency_hz: 1.0e9,
            cores: 4,
            scalar_flops_per_cycle: 1.0,
            vector_width: 4,
            vector_efficiency: 0.8,
            l1_bytes: 1024,
            l1_assoc: 4,
            l2_bytes: 8 * 1024,
            l2_assoc: 8,
            l3_bytes: 64 * 1024,
            line_bytes: 64,
            dram_bandwidth: 1.0e9,
            bandwidth_scalability: 2.0,
            l2_bandwidth: 4.0e9,
            l1_bandwidth: 16.0e9,
            blas_efficiency: 0.8,
            parallel_overhead: 1.0e-6,
            atomic_penalty: 8.0,
        }
    }

    /// Peak double-precision FLOP/s of one core with full SIMD + FMA use.
    pub fn peak_flops_per_core(&self) -> f64 {
        self.frequency_hz * self.scalar_flops_per_cycle * self.vector_width as f64
    }

    /// Effective memory bandwidth when `threads` cores stream concurrently.
    pub fn bandwidth_with_threads(&self, threads: usize) -> f64 {
        let t = threads.max(1) as f64;
        self.dram_bandwidth * t.min(self.bandwidth_scalability)
    }

    /// Number of elements of size `elem` per cache line.
    pub fn elems_per_line(&self, elem: usize) -> usize {
        (self.line_bytes / elem.max(1)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_machine() {
        let m = MachineConfig::default();
        assert_eq!(m, MachineConfig::xeon_e5_2680v3());
        assert_eq!(m.cores, 12);
        assert_eq!(m.line_bytes, 64);
    }

    #[test]
    fn peak_flops_match_the_paper_scale() {
        // The paper measures 52.5 GFLOP/s peak with an FMA+AVX benchmark on
        // one core-ish baseline; the configured peak per core lands in the
        // tens of GFLOP/s.
        let m = MachineConfig::xeon_e5_2680v3();
        let peak = m.peak_flops_per_core();
        assert!(peak > 15.0e9 && peak < 60.0e9, "peak/core = {peak}");
    }

    #[test]
    fn bandwidth_saturates() {
        let m = MachineConfig::xeon_e5_2680v3();
        let one = m.bandwidth_with_threads(1);
        let four = m.bandwidth_with_threads(4);
        let twelve = m.bandwidth_with_threads(12);
        assert!(four > one);
        assert!((twelve - m.dram_bandwidth * m.bandwidth_scalability).abs() < 1.0);
    }

    #[test]
    fn elems_per_line() {
        let m = MachineConfig::default();
        assert_eq!(m.elems_per_line(8), 8);
        assert_eq!(m.elems_per_line(4), 16);
        assert_eq!(m.elems_per_line(0), 64);
    }
}
