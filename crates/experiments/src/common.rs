//! Shared infrastructure for the experiment drivers: evaluation scales,
//! the technique roster, and trace replay through the encrypted PCM write
//! path.

use controller::{TimingParams, WritePipeline};
use coset::cost::CostFunction;
use coset::{Encoder, Flipcy, Rcc, Unencoded, Vcc};
use engine::{EngineConfig, ShardedEngine};
use hwmodel::EncoderHwConfig;
use pcm::{FaultMap, PcmConfig};
use protect::{CorrectionScheme, EcpScheme, NoCorrection, SecdedScheme};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::{generate_scaled_trace, BenchmarkProfile, Trace, WorkloadSource};

/// How large an experiment run should be.
///
/// The paper simulates a 2 GB memory, full SPEC traces and 10^8-write
/// endurance; reproducing that verbatim takes days. Every driver therefore
/// accepts a scale:
///
/// * [`Scale::Tiny`] — seconds; used by unit tests.
/// * [`Scale::Small`] — minutes for the whole suite; the default of the
///   `reproduce` binary.
/// * [`Scale::Paper`] — the paper's parameters (2 GiB, 10^8 endurance, full
///   benchmark list); provided for completeness.
///
/// Lifetime numbers scale with the endurance mean; relative lifetimes
/// between techniques (the quantity the paper's Figures 11-12 compare) are
/// preserved across scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Scale {
    /// Unit-test scale.
    Tiny,
    /// Default evaluation scale.
    Small,
    /// The paper's full parameters.
    Paper,
}

impl Scale {
    /// PCM configuration for this scale.
    pub fn pcm_config(self, seed: u64) -> PcmConfig {
        let mut cfg = match self {
            Scale::Tiny => PcmConfig::scaled(4 << 20, 100.0),
            Scale::Small => PcmConfig::scaled(64 << 20, 400.0),
            Scale::Paper => PcmConfig::paper_scale(),
        };
        cfg.seed = seed;
        cfg
    }

    /// Number of processor accesses used to generate each benchmark trace.
    pub fn trace_accesses(self) -> u64 {
        match self {
            Scale::Tiny => 30_000,
            Scale::Small => 200_000,
            Scale::Paper => 50_000_000,
        }
    }

    /// Working-set scale-down factor applied to the benchmark profiles.
    pub fn working_set_divisor(self) -> u64 {
        match self {
            Scale::Tiny => 4096,
            Scale::Small => 512,
            Scale::Paper => 1,
        }
    }

    /// Benchmarks evaluated at this scale.
    pub fn benchmarks(self) -> Vec<BenchmarkProfile> {
        match self {
            Scale::Tiny => workload::spec_like::quick_profiles()
                .into_iter()
                .take(2)
                .collect(),
            Scale::Small => workload::spec_like::quick_profiles(),
            Scale::Paper => workload::spec_like::all_profiles(),
        }
    }

    /// Number of random 64-bit writes for the preliminary random-data study
    /// (Figure 7; the paper uses 100 000).
    pub fn random_writes(self) -> usize {
        match self {
            Scale::Tiny => 2_000,
            Scale::Small => 20_000,
            Scale::Paper => 100_000,
        }
    }

    /// Number of distinct fault-map permutations averaged (the paper uses 5).
    pub fn fault_map_permutations(self) -> usize {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 2,
            Scale::Paper => 5,
        }
    }

    /// Number of rows that must fail before the lifetime run stops (the
    /// paper stops after four uncorrectable rows; the test-only Tiny scale
    /// stops after two to stay fast).
    pub fn rows_to_failure(self) -> usize {
        match self {
            Scale::Tiny => 2,
            _ => 4,
        }
    }

    /// Cap on total row writes in a lifetime run (guards against pathological
    /// configurations that would never converge at tiny scales).
    pub fn lifetime_write_cap(self) -> u64 {
        match self {
            Scale::Tiny => 60_000,
            Scale::Small => 3_000_000,
            Scale::Paper => u64::MAX,
        }
    }
}

/// One of the data-protection / encoding techniques the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Technique {
    /// Plain writeback with no encoding and no correction.
    Unencoded,
    /// Plain writeback protected by SECDED Hamming(72,64).
    Secded,
    /// Plain writeback protected by ECP with three entries per row.
    Ecp3,
    /// Data block inversion / Flip-N-Write at 16-bit granularity: the
    /// zero-kernel VCC ([`Vcc::flip_n_write`]).
    DbiFnw,
    /// Flipcy (identity, one's or two's complement).
    Flipcy,
    /// Random coset coding with `cosets` stored candidates.
    Rcc {
        /// Number of stored coset candidates.
        cosets: usize,
    },
    /// Virtual coset coding with stored kernels (`cosets` virtual cosets).
    VccStored {
        /// Number of virtual coset candidates.
        cosets: usize,
    },
    /// Virtual coset coding with Algorithm-2 generated kernels.
    VccGenerated {
        /// Number of virtual coset candidates.
        cosets: usize,
    },
}

impl Technique {
    /// The seven-technique roster of the lifetime study (Figures 11-12) at a
    /// given coset count.
    pub fn lifetime_roster(cosets: usize) -> Vec<Technique> {
        vec![
            Technique::Secded,
            Technique::Ecp3,
            Technique::Unencoded,
            Technique::VccStored { cosets },
            Technique::Rcc { cosets },
            Technique::Flipcy,
            Technique::DbiFnw,
        ]
    }

    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> String {
        match self {
            Technique::Unencoded => "Unencoded".to_string(),
            Technique::Secded => "SECDED".to_string(),
            Technique::Ecp3 => "ECP3".to_string(),
            Technique::DbiFnw => "DBI/FNW".to_string(),
            Technique::Flipcy => "Flipcy".to_string(),
            Technique::Rcc { cosets } => format!("RCC-{cosets}"),
            Technique::VccStored { cosets } => format!("VCC-{cosets}-Stored"),
            Technique::VccGenerated { cosets } => format!("VCC-{cosets}"),
        }
    }

    /// Parses a CLI/service technique label. Accepted forms (ASCII
    /// case-insensitive): `unencoded`, `secded`, `ecp3`, `dbifnw` (aliases
    /// `fnw`, `fnw16`), `flipcy`, `rcc<N>`, `vcc<N>` (generated kernels)
    /// and `vcc<N>stored`. This is the vocabulary the multi-tenant service
    /// CLI and load generator use for per-tenant technique labels.
    pub fn from_cli(label: &str) -> Option<Technique> {
        let l = label.to_ascii_lowercase();
        match l.as_str() {
            "unencoded" | "raw" => Some(Technique::Unencoded),
            "secded" => Some(Technique::Secded),
            "ecp3" => Some(Technique::Ecp3),
            "dbifnw" | "dbi-fnw" | "fnw" | "fnw16" => Some(Technique::DbiFnw),
            "flipcy" => Some(Technique::Flipcy),
            _ => {
                if let Some(rest) = l.strip_prefix("rcc") {
                    rest.parse().ok().map(|cosets| Technique::Rcc { cosets })
                } else if let Some(rest) = l.strip_prefix("vcc") {
                    if let Some(n) = rest.strip_suffix("stored") {
                        let n = n.trim_end_matches('-');
                        n.parse().ok().map(|cosets| Technique::VccStored { cosets })
                    } else {
                        rest.parse()
                            .ok()
                            .map(|cosets| Technique::VccGenerated { cosets })
                    }
                } else {
                    None
                }
            }
        }
    }

    /// Instantiates the encoder for this technique. `seed` fixes the stored
    /// coset candidates / kernels so runs are reproducible.
    pub fn encoder(&self, seed: u64) -> Box<dyn Encoder> {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Technique::Unencoded | Technique::Secded | Technique::Ecp3 => {
                Box::new(Unencoded::new(64))
            }
            Technique::DbiFnw => Box::new(Vcc::flip_n_write(64, 16)),
            Technique::Flipcy => Box::new(Flipcy::new(64)),
            Technique::Rcc { cosets } => Box::new(Rcc::random(64, *cosets, &mut rng)),
            Technique::VccStored { cosets } => Box::new(Vcc::paper_stored(*cosets, &mut rng)),
            Technique::VccGenerated { cosets } => Box::new(Vcc::paper_mlc(*cosets)),
        }
    }

    /// The fault-correction capacity paired with this technique in the
    /// lifetime study.
    pub fn correction(&self) -> Box<dyn CorrectionScheme> {
        match self {
            Technique::Secded => Box::new(SecdedScheme),
            Technique::Ecp3 => Box::new(EcpScheme::ecp3()),
            _ => Box::new(NoCorrection),
        }
    }

    /// Assembles the full [`WritePipeline`] for this technique: its encoder
    /// (seeded for reproducible kernels/cosets), its paired correction
    /// scheme, the candidate-selection objective, and a fresh memory with an
    /// optional fault map.
    ///
    /// Every figure driver and bench replays traces through pipelines built
    /// here, so the encrypted write path is defined in exactly one place.
    pub fn pipeline(
        &self,
        config: PcmConfig,
        fault_map: Option<FaultMap>,
        encoder_seed: u64,
        crypt_seed: u64,
        cost: Box<dyn CostFunction>,
    ) -> WritePipeline {
        let mut p = WritePipeline::new(config, self.encoder(encoder_seed))
            .with_correction(self.correction())
            .with_cost(cost)
            .with_timing(self.timing_params())
            .with_crypt_seed(crypt_seed);
        if let Some(map) = fault_map {
            p = p.with_fault_map(map);
        }
        p
    }

    /// Assembles a [`ShardedEngine`] over per-shard pipelines built exactly
    /// like [`Technique::pipeline`] (same encoder seed, correction pairing
    /// and memory configuration in every shard; `cost` is invoked once per
    /// shard because cost functions are not cloneable).
    ///
    /// Every shard is keyed with `crypt_seed`, which makes the engine's
    /// aggregate statistics bit-identical to replaying through
    /// [`Technique::pipeline`] sequentially: the `--shards` knob is purely
    /// a wall-clock choice for every figure driver built on this.
    pub fn engine(
        &self,
        engine_config: EngineConfig,
        config: PcmConfig,
        fault_map: Option<FaultMap>,
        encoder_seed: u64,
        crypt_seed: u64,
        cost: impl Fn() -> Box<dyn CostFunction>,
    ) -> ShardedEngine {
        ShardedEngine::from_factory(engine_config, crypt_seed, |_spec| {
            self.pipeline(config.clone(), fault_map, encoder_seed, crypt_seed, cost())
        })
    }

    /// Event-driven bank timing parameters for this technique: the default
    /// bank geometry and PCM access latencies with the encoder pipeline
    /// depth taken from the hardware model's critical-path delay (whole
    /// cycles, rounded up, minimum one stage — even the unencoded path
    /// traverses one pipeline register before the array).
    pub fn timing_params(&self) -> TimingParams {
        TimingParams::default().with_encoder_delay_ps(self.encode_delay_ns() * 1000.0)
    }

    /// Encoding latency in nanoseconds added to every write (from the
    /// hardware model; Figure 6(c)).
    pub fn encode_delay_ns(&self) -> f64 {
        match self {
            Technique::Unencoded | Technique::Secded | Technique::Ecp3 => 0.0,
            // Single-stage selective-inversion logic.
            Technique::DbiFnw | Technique::Flipcy => 0.35,
            Technique::Rcc { cosets } => EncoderHwConfig::rcc(64, *cosets).delay_ps() / 1000.0,
            Technique::VccStored { cosets } => {
                EncoderHwConfig::vcc_stored(64, *cosets).delay_ps() / 1000.0
            }
            Technique::VccGenerated { cosets } => {
                EncoderHwConfig::vcc_generated(64, *cosets).delay_ps() / 1000.0
            }
        }
    }
}

/// Generates the (plaintext) write-back trace of a benchmark at a scale.
pub fn trace_for(profile: &BenchmarkProfile, scale: Scale, seed: u64) -> Trace {
    generate_scaled_trace(
        profile,
        scale.working_set_divisor(),
        scale.trace_accesses(),
        seed,
    )
}

/// Builds the streaming [`WorkloadSource`] for a benchmark at a scale —
/// the same scaled profile, access budget and seed as [`trace_for`], so
/// against a memory-less reader the emitted events are bit-identical to
/// the materialized trace. Streamed through an engine, cache-miss fills
/// are instead served from the modeled memory, which is the point of the
/// `--stream` replay mode (see [`workload::source`]).
pub fn source_for(profile: &BenchmarkProfile, scale: Scale, seed: u64) -> WorkloadSource {
    let scaled = profile.scaled_down(scale.working_set_divisor());
    WorkloadSource::new(scaled, scale.trace_accesses(), seed).with_benchmark_name(&profile.name)
}

/// Builds a [`WritePipeline`] for an ad-hoc encoder (techniques not in the
/// [`Technique`] roster, e.g. the RCC sweep of Figure 2). The pipeline owns
/// the memory, the optional fault map, and the encryption keyed by
/// `crypt_seed`; corrections default to none.
pub fn pipeline_for(
    config: PcmConfig,
    fault_map: Option<FaultMap>,
    crypt_seed: u64,
    encoder: Box<dyn Encoder>,
    cost: Box<dyn CostFunction>,
) -> WritePipeline {
    let mut p = WritePipeline::new(config, encoder)
        .with_cost(cost)
        .with_crypt_seed(crypt_seed);
    if let Some(map) = fault_map {
        p = p.with_fault_map(map);
    }
    p
}

/// Formats a floating-point quantity in engineering notation (e.g.
/// `4.3E+09`), the style the paper's figures use on their axes.
pub fn eng(x: f64) -> String {
    if x == 0.0 {
        "0.0E+00".to_string()
    } else {
        format!("{x:.2E}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coset::cost::WriteEnergy;

    #[test]
    fn scale_parameters_are_ordered() {
        assert!(Scale::Tiny.trace_accesses() < Scale::Small.trace_accesses());
        assert!(Scale::Small.trace_accesses() < Scale::Paper.trace_accesses());
        assert!(Scale::Tiny.benchmarks().len() <= Scale::Small.benchmarks().len());
        assert_eq!(Scale::Paper.benchmarks().len(), 14);
        assert_eq!(Scale::Small.rows_to_failure(), 4);
        assert_eq!(Scale::Tiny.rows_to_failure(), 2);
        assert!(
            Scale::Tiny.pcm_config(1).endurance_mean < Scale::Paper.pcm_config(1).endurance_mean
        );
    }

    #[test]
    fn technique_roster_and_names() {
        let roster = Technique::lifetime_roster(256);
        assert_eq!(roster.len(), 7);
        let names: Vec<String> = roster.iter().map(Technique::name).collect();
        assert!(names.contains(&"SECDED".to_string()));
        assert!(names.contains(&"VCC-256-Stored".to_string()));
        assert!(names.contains(&"RCC-256".to_string()));
        assert_eq!(Technique::VccGenerated { cosets: 64 }.name(), "VCC-64");
    }

    #[test]
    fn technique_encoders_have_consistent_widths() {
        for t in Technique::lifetime_roster(64) {
            let e = t.encoder(1);
            assert_eq!(e.block_bits(), 64, "{}", t.name());
            assert!(e.aux_bits() <= 8, "{} aux bits", t.name());
        }
    }

    #[test]
    fn encode_delays_follow_hardware_model_ordering() {
        let rcc = Technique::Rcc { cosets: 256 }.encode_delay_ns();
        let vcc = Technique::VccStored { cosets: 256 }.encode_delay_ns();
        let dbi = Technique::DbiFnw.encode_delay_ns();
        assert!(rcc > vcc && vcc > dbi && dbi > 0.0);
        assert_eq!(Technique::Unencoded.encode_delay_ns(), 0.0);
    }

    #[test]
    fn cli_labels_round_trip_the_roster() {
        assert_eq!(Technique::from_cli("unencoded"), Some(Technique::Unencoded));
        assert_eq!(Technique::from_cli("SECDED"), Some(Technique::Secded));
        assert_eq!(Technique::from_cli("ecp3"), Some(Technique::Ecp3));
        assert_eq!(Technique::from_cli("fnw16"), Some(Technique::DbiFnw));
        assert_eq!(Technique::from_cli("dbifnw"), Some(Technique::DbiFnw));
        assert_eq!(Technique::from_cli("flipcy"), Some(Technique::Flipcy));
        assert_eq!(
            Technique::from_cli("rcc16"),
            Some(Technique::Rcc { cosets: 16 })
        );
        assert_eq!(
            Technique::from_cli("vcc64"),
            Some(Technique::VccGenerated { cosets: 64 })
        );
        assert_eq!(
            Technique::from_cli("vcc128stored"),
            Some(Technique::VccStored { cosets: 128 })
        );
        assert_eq!(Technique::from_cli("notathing"), None);
        assert_eq!(Technique::from_cli("vccx"), None);
    }

    #[test]
    fn correction_pairing() {
        assert_eq!(Technique::Secded.correction().name(), "secded");
        assert_eq!(Technique::Ecp3.correction().name(), "ecp3");
        assert_eq!(Technique::Unencoded.correction().name(), "none");
        assert_eq!(Technique::Rcc { cosets: 4 }.correction().name(), "none");
    }

    #[test]
    fn trace_replay_accumulates_stats() {
        let profile = &Scale::Tiny.benchmarks()[0];
        let trace = trace_for(profile, Scale::Tiny, 3);
        assert!(!trace.is_empty());
        let mut pipeline = Technique::Unencoded.pipeline(
            Scale::Tiny.pcm_config(3),
            None,
            1,
            99,
            Box::new(WriteEnergy::mlc()),
        );
        let stats = pipeline.replay_trace(&trace);
        assert_eq!(stats.row_writes, trace.len() as u64);
        assert!(stats.energy_pj > 0.0);
        assert!(pipeline.memory().rows_touched() > 0);
        assert_eq!(pipeline.stats().lines_written, trace.len() as u64);
    }

    #[test]
    fn technique_engine_matches_sequential_pipeline() {
        let profile = &Scale::Tiny.benchmarks()[0];
        let trace = trace_for(profile, Scale::Tiny, 5);
        let build = || {
            Technique::VccStored { cosets: 32 }.pipeline(
                Scale::Tiny.pcm_config(5),
                None,
                2,
                77,
                Box::new(WriteEnergy::mlc()),
            )
        };
        let mut sequential = build();
        let seq_stats = sequential.replay_trace(&trace);

        let mut engine = Technique::VccStored { cosets: 32 }.engine(
            EngineConfig::default().with_shards(4),
            Scale::Tiny.pcm_config(5),
            None,
            2,
            77,
            || Box::new(WriteEnergy::mlc()),
        );
        let sharded_stats = engine.replay_trace(&trace);
        assert_eq!(seq_stats, sharded_stats);
        assert_eq!(*sequential.stats(), engine.stats());
    }

    #[test]
    fn eng_notation() {
        assert_eq!(eng(0.0), "0.0E+00");
        assert_eq!(eng(4.3e9), "4.30E9"); // format sanity
        assert!(
            eng(4.3e9).contains("E9") || eng(4.3e9).contains("E+9") || eng(4.3e9).contains("E+09")
        );
    }
}
