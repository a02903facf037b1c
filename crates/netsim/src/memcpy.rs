//! Cost model for local memory operations.
//!
//! Used for the *memory shuffling at the end* mechanism of §V-B (reordering
//! the allgather output buffer) and for any local buffer staging a schedule
//! performs.

/// Linear cost model for a local copy: `latency + bytes / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemcpyModel {
    /// Fixed per-call cost (function call, loop setup), seconds.
    pub latency_s: f64,
    /// Copy bandwidth, bytes/second.
    pub bandwidth_bps: f64,
}

impl Default for MemcpyModel {
    fn default() -> Self {
        // Single-core copy bandwidth of a Nehalem-class socket.
        MemcpyModel {
            latency_s: 0.01e-6,
            bandwidth_bps: 4.0e9,
        }
    }
}

impl MemcpyModel {
    /// Time to copy `bytes` contiguous bytes.
    #[inline]
    pub fn copy_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }

    /// Time to permute `blocks` blocks of `block_bytes` each (the endShfl
    /// operation): every block is copied once, with a per-block call cost —
    /// a scattered copy, cheaper per byte for large blocks.
    #[inline]
    pub fn shuffle_time(&self, blocks: usize, block_bytes: u64) -> f64 {
        blocks as f64 * self.copy_time(block_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_time_is_monotone_in_size() {
        let m = MemcpyModel::default();
        assert!(m.copy_time(1024) < m.copy_time(4096));
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let m = MemcpyModel::default();
        assert_eq!(m.copy_time(0), m.latency_s);
    }

    #[test]
    fn shuffle_scales_with_block_count() {
        let m = MemcpyModel::default();
        let one = m.shuffle_time(1, 4096);
        let many = m.shuffle_time(64, 4096);
        assert!((many - 64.0 * one).abs() < 1e-12);
    }

    #[test]
    fn shuffle_of_small_blocks_is_latency_dominated() {
        let m = MemcpyModel::default();
        // 4096 one-byte blocks cost far more than one 4096-byte copy — this
        // is why endShfl is poor for small messages in the paper's Fig. 4.
        assert!(m.shuffle_time(4096, 1) > 10.0 * m.copy_time(4096));
    }
}
