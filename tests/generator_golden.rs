//! Golden digests of the row workload generator's output.
//!
//! `generate_trace` and the netsim crawl both drive
//! `workload::Dynamics`, whose per-day lifecycle tables are the
//! generator's hot loop. Any change to how those tables are built must
//! leave every output byte alone: these tests pin the binary wire image
//! (`to_bin`, the bytes `save_bin` writes) of three seeded runs.
//!
//! A digest mismatch means the generator's output changed. That is only
//! acceptable as a deliberate model change, in which case the new
//! digests are printed by the failing assertion.

use edonkey_repro::prelude::*;
use edonkey_repro::trace::io::to_bin;

const SEED: u64 = 20060418;

/// FNV-1a over every byte, folded with the length.
fn digest(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h ^= bytes.len() as u64;
    h.wrapping_mul(PRIME)
}

/// The bench crate's `Scale::Test` workload configuration.
fn test_scale() -> WorkloadConfig {
    let mut c = WorkloadConfig::test_scale(SEED);
    c.days = 20;
    c
}

fn assert_digest(label: &str, trace: &Trace, expected: u64) {
    let bytes = to_bin(trace);
    let got = digest(&bytes);
    assert_eq!(
        got,
        expected,
        "{label}: generator output changed ({} bytes, digest {got:#018x})",
        bytes.len()
    );
}

#[test]
fn test_scale_trace_bytes_are_pinned() {
    let (_, trace) = generate_trace(test_scale());
    assert_digest("test scale", &trace, 0x4598_e9a8_d89b_92d7);
}

#[test]
fn aliased_trace_bytes_are_pinned() {
    let mut config = test_scale();
    config.alias_dhcp_daily_prob = 0.02;
    config.alias_reinstall_daily_prob = 0.002;
    let (_, trace) = generate_trace(config);
    assert_digest("alias-on", &trace, 0x6aa1_0d36_a7b9_978b);
}

#[test]
fn netsim_crawl_bytes_are_pinned() {
    let mut config = WorkloadConfig::test_scale(SEED);
    config.peers = 300;
    config.files = 3_000;
    config.topics = 60;
    config.days = 6;
    config.cache_max = 250;
    let population = Population::generate(config);
    let crawler = CrawlerConfig {
        outage_days: vec![],
        ..Default::default()
    }
    .budget_for(population.config.peers, 0.9, 0.6);
    let (trace, _) = run_crawl(&population, NetConfig::default(), crawler);
    assert_digest("netsim crawl", &trace, 0x95c6_1879_d5c0_50ea);
}
