//! System configuration for the performance study (the paper's Table II).

/// Architecture parameters of the simulated system.
///
/// Defaults reproduce Table II: four 4-issue out-of-order cores at 1 GHz,
/// 32 KiB private L1s, 256 KiB private L2s, 64-byte lines, and a 2 GiB PCM
/// main memory with 2 channels × 1 rank × 8 banks and an 84 ns baseline
/// access delay.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: u32,
    /// Issue width per core.
    pub issue_width: u32,
    /// Core frequency in GHz.
    pub freq_ghz: f64,
    /// L1 data cache size in bytes.
    pub l1_bytes: u64,
    /// L2 cache size per core in bytes.
    pub l2_bytes: u64,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Memory channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks_per_channel: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Baseline PCM access delay in ns (reads and the read phase of
    /// read-modify-write).
    pub base_access_ns: f64,
    /// Base CPI of the core pipeline when memory never stalls it.
    pub base_cpi: f64,
    /// Memory-level parallelism: outstanding read misses that overlap.
    pub memory_level_parallelism: f64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            cores: 4,
            issue_width: 4,
            freq_ghz: 1.0,
            l1_bytes: 32 * 1024,
            l2_bytes: 256 * 1024,
            line_bytes: 64,
            channels: 2,
            ranks_per_channel: 1,
            banks_per_rank: 8,
            base_access_ns: 84.0,
            base_cpi: 0.5,
            memory_level_parallelism: 4.0,
        }
    }
}

impl SystemConfig {
    /// The Table II configuration.
    pub fn table_ii() -> Self {
        Self::default()
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized or non-physical parameters.
    pub fn validate(&self) {
        assert!(self.cores > 0 && self.issue_width > 0);
        assert!(self.freq_ghz > 0.0);
        assert!(self.channels > 0 && self.ranks_per_channel > 0 && self.banks_per_rank > 0);
        assert!(self.base_access_ns > 0.0);
        assert!(self.base_cpi > 0.0);
        assert!(self.memory_level_parallelism >= 1.0);
    }

    /// Renders the configuration as a Table-II-style listing.
    pub fn render(&self) -> String {
        format!(
            "CPU: {} out-of-order cores, {} issue width, {:.0} GHz\n\
             Cache: private L1 {} KiB, private L2 {} KiB/core, {}B lines\n\
             Memory: PCM, {} channels, {} rank/channel, {} banks/rank, {:.0} ns base access",
            self.cores,
            self.issue_width,
            self.freq_ghz,
            self.l1_bytes / 1024,
            self.l2_bytes / 1024,
            self.line_bytes,
            self.channels,
            self.ranks_per_channel,
            self.banks_per_rank,
            self.base_access_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_defaults() {
        let c = SystemConfig::table_ii();
        c.validate();
        assert_eq!(c.cores, 4);
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.base_access_ns, 84.0);
    }

    #[test]
    fn render_mentions_key_parameters() {
        let s = SystemConfig::table_ii().render();
        assert!(s.contains("84 ns"));
        assert!(s.contains("2 channels"));
        assert!(s.contains("8 banks"));
    }

    #[test]
    #[should_panic]
    fn validate_rejects_zero_channels() {
        let c = SystemConfig {
            channels: 0,
            ..Default::default()
        };
        c.validate();
    }
}
