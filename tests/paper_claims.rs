//! Integration tests pinning the paper's key quantitative claims
//! (at reproduction scale) across crate boundaries.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vcc_repro::coset::analysis::{evaluation_ops, fig1_point};
use vcc_repro::coset::cost::WriteEnergy;
use vcc_repro::coset::{Block, Encoder, Rcc, Unencoded, Vcc, WriteContext};
use vcc_repro::engine::EngineConfig;
use vcc_repro::experiments::{fig13, reproduce_with_engine, Scale, Selection, Technique};
use vcc_repro::hwmodel::EncoderHwConfig;
use vcc_repro::perfmodel::{PerfModel, SystemConfig};
use vcc_repro::workload::spec_like;

/// Section IV: VCC(n, N, r) evaluates 2·p·r kernel-width operations versus
/// RCC's p·r·2^p — a 2^(p-1) reduction in search complexity.
#[test]
fn vcc_reduces_search_complexity_by_two_to_the_p_minus_one() {
    let (vcc_ops, rcc_ops) = evaluation_ops(4, 16);
    assert_eq!(rcc_ops / vcc_ops, 1 << 3);
    let (vcc_ops2, rcc_ops2) = evaluation_ops(2, 64);
    assert_eq!(rcc_ops2 / vcc_ops2, 1 << 1);
}

/// Section IV-A: VCC(64, 256, 16) and RCC(64, 256) both spend exactly 8
/// auxiliary bits per 64-bit word — the SECDED-equivalent 12.5% budget —
/// and VCC's virtual coset count matches r · 2^p.
#[test]
fn aux_budget_and_virtual_coset_arithmetic() {
    let mut rng = StdRng::seed_from_u64(5);
    let vcc = Vcc::paper_stored(256, &mut rng);
    let rcc = Rcc::random(64, 256, &mut rng);
    assert_eq!(vcc.aux_bits(), 8);
    assert_eq!(rcc.aux_bits(), 8);
    assert_eq!(vcc.num_virtual_cosets(), 256);
    assert_eq!(vcc.num_kernels() << vcc.partitions(), 256);
    // 8 bits per 64-bit word = 12.5 % capacity overhead.
    assert!((8.0_f64 / 64.0 - 0.125).abs() < 1e-12);
}

/// Section III / Figure 1: biased cosets win for tiny candidate sets, random
/// cosets win decisively for large ones.
#[test]
fn figure1_crossover_holds() {
    let few = fig1_point(64, 2);
    let many = fig1_point(64, 256);
    assert!(few.bcc_reduction_pct > few.rcc_reduction_pct);
    assert!(many.rcc_reduction_pct > many.bcc_reduction_pct);
    assert!(many.rcc_reduction_pct > 25.0 && many.rcc_reduction_pct < 40.0);
}

/// Section V-A / Figure 6: the VCC encoder is dramatically cheaper than the
/// RCC encoder at equal coset counts in area, energy and delay, and VCC's
/// delay stays under ~2.3 ns at 256 cosets while RCC exceeds 2.4 ns.
#[test]
fn hardware_claims_hold() {
    for n in [32usize, 64, 128, 256] {
        let rcc = EncoderHwConfig::rcc(64, n);
        let vcc = EncoderHwConfig::vcc_generated(64, n);
        assert!(rcc.area_um2() > 3.0 * vcc.area_um2());
        assert!(rcc.energy_pj() > 3.0 * vcc.energy_pj());
        assert!(rcc.delay_ps() > vcc.delay_ps());
    }
    assert!(EncoderHwConfig::vcc_generated(64, 256).delay_ps() < 2300.0);
    assert!(EncoderHwConfig::rcc(64, 256).delay_ps() > 2400.0);
}

/// Section VI-D / Figure 13: the IPC impact of encoding is small — on
/// average below ~3 % even for RCC — and ordered DBI ≤ VCC ≤ RCC.
#[test]
fn performance_claims_hold() {
    let r = fig13::run(Scale::Paper, 1);
    let dbi = r.mean("DBI/FNW");
    let vcc = r.mean("VCC-256");
    let rcc = r.mean("RCC-256");
    assert!((0.92..=1.0).contains(&rcc), "RCC mean normalized IPC {rcc}");
    assert!(vcc >= rcc);
    assert!(dbi >= vcc);
    assert!(1.0 - rcc < 0.03, "average RCC slowdown should be below 3%");
}

/// Golden-report regression net: the tiny-scale reproduction (everything
/// except the lifetime figures, which are covered by the slower
/// `GOLDEN_FULL` variant below) must stay byte-identical to the checked-in
/// fixture, so performance PRs touching the write path cannot silently
/// drift any figure. The fixture is the verbatim stdout of
/// `reproduce -- tiny nolifetime 24301 --shards 1`; regenerate it with that
/// command if a PR intentionally changes reported numbers, and say so in
/// the PR.
#[test]
fn tiny_reproduce_report_is_byte_identical_to_golden_fixture() {
    let report = reproduce_with_engine(
        Scale::Tiny,
        0x5EED,
        Selection {
            lifetime: false,
            ..Selection::all()
        },
        EngineConfig::default(),
    );
    let expected = include_str!("fixtures/reproduce_tiny_nolifetime.txt");
    // The CLI prints the rendered report through `println!`, hence the
    // trailing newline.
    assert_eq!(
        format!("{report}\n"),
        expected,
        "tiny-scale report drifted from tests/fixtures/reproduce_tiny_nolifetime.txt"
    );
}

/// The same golden report from a 4-shard engine: under the default unified
/// keying the shard count is a wall-clock knob only, so `--shards` may never
/// change a reported number.
#[test]
fn sharded_tiny_reproduce_report_is_byte_identical_to_golden_fixture() {
    let report = reproduce_with_engine(
        Scale::Tiny,
        0x5EED,
        Selection {
            lifetime: false,
            ..Selection::all()
        },
        EngineConfig::default().with_shards(4),
    );
    let expected = include_str!("fixtures/reproduce_tiny_nolifetime.txt");
    assert_eq!(
        format!("{report}\n"),
        expected,
        "4-shard tiny-scale report drifted from tests/fixtures/reproduce_tiny_nolifetime.txt"
    );
}

/// Full-selection variant including the lifetime figures (minutes of
/// runtime): opt-in via `GOLDEN_FULL=1`, which the CI commit-oracle job
/// sets on release builds.
#[test]
fn tiny_reproduce_full_report_matches_golden_fixture() {
    if std::env::var("GOLDEN_FULL").ok().as_deref() != Some("1") {
        eprintln!("skipping full golden comparison; set GOLDEN_FULL=1 to run it");
        return;
    }
    let report = reproduce_with_engine(
        Scale::Tiny,
        0x5EED,
        Selection::all(),
        EngineConfig::default(),
    );
    let expected = include_str!("fixtures/reproduce_tiny_all.txt");
    assert_eq!(
        format!("{report}\n"),
        expected,
        "tiny-scale report drifted from tests/fixtures/reproduce_tiny_all.txt"
    );
}

/// The encode latencies fed into the performance model come from the
/// hardware model and respect the paper's ordering (RCC slowest, DBI
/// fastest); a hypothetical doubling of the coset count may not reduce any
/// latency.
#[test]
fn encode_latency_ordering_is_consistent() {
    let model = PerfModel::new(SystemConfig::table_ii());
    let profile = spec_like::profile_by_name("lbm_like").unwrap();
    let mut last = 1.1f64;
    for technique in [
        Technique::Unencoded,
        Technique::DbiFnw,
        Technique::VccStored { cosets: 256 },
        Technique::Rcc { cosets: 256 },
    ] {
        let n = model.normalized_ipc(&profile, technique.encode_delay_ns());
        assert!(
            n <= last + 1e-12,
            "{} should not be faster than the previous, lighter technique",
            technique.name()
        );
        last = n;
        assert!(n > 0.9 && n <= 1.0 + 1e-12);
    }
    assert!(
        Technique::Rcc { cosets: 256 }.encode_delay_ns()
            > Technique::Rcc { cosets: 32 }.encode_delay_ns()
    );
}

// Ablations of the design choices Section IV argues for, on random 64-bit
// words under the Table-I MLC energy objective. Savings are percentages of
// the unencoded mean energy per word; every run is seeded, so the measured
// figures quoted below are exact for the vendored RNG stream.

/// Seed of every ablation run: the kernel draws and the written words.
const ABLATION_SEED: u64 = 0xBE2C;
/// Random words written per ablation configuration.
const ABLATION_WRITES: usize = 3000;

/// Mean per-word write energy (pJ) of `encoder` over [`ABLATION_WRITES`]
/// random words, each written over a random old word.
fn mean_energy(encoder: &dyn Encoder) -> f64 {
    let mut rng = StdRng::seed_from_u64(ABLATION_SEED);
    let cost = WriteEnergy::mlc();
    let mut total = 0.0;
    for _ in 0..ABLATION_WRITES {
        let data = Block::random(&mut rng, 64);
        let old = Block::random(&mut rng, 64);
        let ctx = WriteContext::new(old, 0, encoder.aux_bits());
        total += encoder.encode(&data, &ctx, &cost).cost.primary;
    }
    total / ABLATION_WRITES as f64
}

/// Energy savings of `encoder` over Unencoded, in percent.
fn savings_pct(encoder: &dyn Encoder) -> f64 {
    let base = mean_energy(&Unencoded::new(64));
    100.0 * (base - mean_energy(encoder)) / base
}

/// `(r, stored savings, generated savings)` of the paper's VCC(64, 16·r, r)
/// family for r ∈ {2, 4, 8, 16}, with stored kernels drawn in that order
/// from one seeded stream.
fn kernel_count_sweep() -> Vec<(usize, f64, f64)> {
    let mut rng = StdRng::seed_from_u64(ABLATION_SEED);
    [2usize, 4, 8, 16]
        .into_iter()
        .map(|r| {
            let stored = Vcc::paper_stored(16 * r, &mut rng);
            let generated = Vcc::paper_mlc(16 * r);
            (r, savings_pct(&stored), savings_pct(&generated))
        })
        .collect()
}

/// Kernel-count ablation: more kernels mean more virtual cosets, and the
/// savings over Unencoded rise strictly with r for both kernel sources
/// (measured: stored 24.1 / 29.9 / 32.8 / 37.2 %, generated 22.9 / 28.4 /
/// 30.7 / 34.9 % at r = 2 / 4 / 8 / 16).
#[test]
fn ablation_savings_rise_strictly_with_kernel_count() {
    let sweep = kernel_count_sweep();
    for pair in sweep.windows(2) {
        let ((r0, s0, g0), (r1, s1, g1)) = (pair[0], pair[1]);
        assert!(s1 > s0, "stored: r={r1} saves {s1:.2}% <= r={r0} {s0:.2}%");
        assert!(
            g1 > g0,
            "generated: r={r1} saves {g1:.2}% <= r={r0} {g0:.2}%"
        );
    }
}

/// Kernel-source ablation: Algorithm-2 generated kernels trail stored
/// random kernels at every r, by a small margin (measured gaps: 1.2, 1.5,
/// 2.1 and 2.3 points at r = 2, 4, 8, 16; bound: under 3 points).
#[test]
fn ablation_generated_kernels_trail_stored_by_a_small_margin() {
    for (r, stored, generated) in kernel_count_sweep() {
        let gap = stored - generated;
        assert!(
            gap > 0.0 && gap < 3.0,
            "r={r}: stored {stored:.2}% vs generated {generated:.2}% (gap {gap:.2} points)"
        );
    }
}

/// RCC reference: at 256 cosets, fully random cosets (RCC-256, measured
/// 40.4 %) save more than VCC-256 with stored kernels (37.2 %), whose
/// virtual cosets are built from 16 kernels; VCC buys its 2^(p-1) cheaper
/// search with that gap.
#[test]
fn ablation_rcc_saves_more_than_stored_vcc() {
    let mut rng = StdRng::seed_from_u64(ABLATION_SEED);
    let vcc = Vcc::paper_stored(256, &mut rng);
    let rcc = Rcc::random(64, 256, &mut rng);
    let (v, r) = (savings_pct(&vcc), savings_pct(&rcc));
    assert!(r > v, "RCC-256 saves {r:.2}%, VCC-256-Stored {v:.2}%");
}

/// Kernel-width ablation: the paper reports "little difference between
/// m = 16 and m = 32". The comparison holds the virtual coset count N (and
/// so the aux budget) fixed: m = 16 needs r = N/16 kernels, m = 32 needs
/// r = N/4. Measured savings: 30.3 % (m = 16) vs 33.0 % (m = 32) at N = 64,
/// 36.9 % vs 39.1 % at N = 256, gaps of 2.7 and 2.1 points; bound: under
/// 3.5 points. At equal r instead, N differs fourfold and so do the
/// savings, by more than the bound, which is not a width effect.
#[test]
fn ablation_kernel_width_matters_little_at_equal_coset_count() {
    let mut rng = StdRng::seed_from_u64(ABLATION_SEED);
    for n in [64usize, 256] {
        let m16 = Vcc::stored(64, 16, n / 16, &mut rng);
        let m32 = Vcc::stored(64, 32, n / 4, &mut rng);
        assert_eq!(m16.num_virtual_cosets(), n);
        assert_eq!(m32.num_virtual_cosets(), n);
        let (s16, s32) = (savings_pct(&m16), savings_pct(&m32));
        assert!(
            (s16 - s32).abs() < 3.5,
            "N={n}: m=16 saves {s16:.2}%, m=32 {s32:.2}%"
        );
    }
}
