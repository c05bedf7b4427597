//! Byte-for-byte pins of generated programs.
//!
//! Benchmarks and recorded experiment numbers name their workloads by
//! generator config and seed, so a generator change that alters the
//! emitted program silently changes every workload. Each case hashes
//! `to_source(generate(config, seed))` with FNV-1a (stable across
//! platforms and toolchains) and compares it with the value recorded when
//! the pin was taken.

use modref_progen::{generate, GenConfig};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn generated_sources_are_pinned() {
    let cases: [(&str, GenConfig, u64, u64); 6] = [
        (
            "fortran_like(50)",
            GenConfig::fortran_like(50),
            42,
            0xc226_ae85_9d8b_1948,
        ),
        (
            "fortran_like(200)",
            GenConfig::fortran_like(200),
            42,
            0x2adf_c9eb_e7a7_46ff,
        ),
        (
            "fortran_like(200)",
            GenConfig::fortran_like(200),
            7,
            0x00ff_dd20_87e6_7cee,
        ),
        (
            "pascal_like(50, 4)",
            GenConfig::pascal_like(50, 4),
            42,
            0x0a5c_3c55_96ba_f2d6,
        ),
        (
            "pascal_like(200, 4)",
            GenConfig::pascal_like(200, 4),
            42,
            0x5fcb_567e_abaa_da38,
        ),
        (
            "pascal_like(200, 4)",
            GenConfig::pascal_like(200, 4),
            7,
            0x3c56_9ffd_c74c_02b0,
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, cfg, seed, want) in cases {
        let got = fnv1a(generate(&cfg, seed).to_source().as_bytes());
        if got != want {
            mismatches.push(format!(
                "{name} seed {seed}: got {got:#018x}, pinned {want:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "generated programs changed:\n{}",
        mismatches.join("\n")
    );
}
