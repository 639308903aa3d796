//! Report pins for every manager and for a chaos-armed fleet.
//!
//! Each cell of `ManagerKind::ALL` × {`P_F`, `P_R`} at `M = 2^13`,
//! `log₂ n = 9`, `c = 20` runs with manager stats on, and the FNV-1a digest
//! of its serialized `SimReport` is pinned below; so is the digest of the
//! fleet report for 2000 tenants under `seed=7,tenant-panic=20000`. Any
//! change to a placement decision, a probe count or a quarantine outcome
//! moves at least one digest. An intentional behaviour change must update
//! them consciously: a mismatch prints the whole table to paste.

use partial_compaction::chaos::FaultPlan;
use partial_compaction::{fleet, sim, ManagerKind, Params, RunConfig};
use pcb_json::ToJson;

/// FNV-1a (64-bit).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(manager, adversary, digest)`, adversary `"pf"` or `"robson"`.
const SIM_PINS: &[(&str, &str, u64)] = &[
    ("first-fit", "pf", 0x2e19121cb94a2c17),
    ("first-fit", "robson", 0x04703f608a816eca),
    ("best-fit", "pf", 0x0cf589c36ba7d80f),
    ("best-fit", "robson", 0x2c0e23e99197c71a),
    ("worst-fit", "pf", 0x68a8cea07803115a),
    ("worst-fit", "robson", 0x861e2080ee491677),
    ("next-fit", "pf", 0xad95899f5e08edd4),
    ("next-fit", "robson", 0x5c0b79551562766b),
    ("buddy", "pf", 0xec0bbb34a414220a),
    ("buddy", "robson", 0xd46a4fd96191333a),
    ("segregated", "pf", 0xd5f19af9e02a9bb5),
    ("segregated", "robson", 0xa186ad96ab50b905),
    ("robson-aligned", "pf", 0x8f4d4ebdacda1082),
    ("robson-aligned", "robson", 0xbfcacd4c7d7ba2fc),
    ("tlsf", "pf", 0x93b6d633a76a8e0c),
    ("tlsf", "robson", 0x070b7a0e9c8b7fc5),
    ("compacting-bp11", "pf", 0x1777bc283cf6d275),
    ("compacting-bp11", "robson", 0xa5add6890c291410),
    ("pages-thm2", "pf", 0xa1f10e718d657373),
    ("pages-thm2", "robson", 0xf5f047cdadcd753b),
];

/// Digest of `fleet --tenants 2000 --chaos seed=7,tenant-panic=20000 --json`.
const FLEET_PIN: u64 = 0x61434cc137558d16;

fn adversary(name: &str) -> sim::Adversary {
    match name {
        "pf" => sim::Adversary::PF,
        "robson" => sim::Adversary::Robson,
        other => panic!("unknown adversary {other}"),
    }
}

#[test]
fn every_manager_reproduces_its_pinned_report() {
    let params = Params::new(1 << 13, 9, 20).expect("valid");
    let mut got = Vec::new();
    for kind in ManagerKind::ALL {
        for adv in ["pf", "robson"] {
            let report = sim::Sim::new(params)
                .adversary(adversary(adv))
                .manager(kind)
                .stats(true)
                .run()
                .expect("cell runs");
            got.push((
                kind.name(),
                adv,
                fnv1a(report.to_json().to_string().as_bytes()),
            ));
        }
    }
    let want: Vec<_> = SIM_PINS.to_vec();
    if got != want {
        let table: String = got
            .iter()
            .map(|(m, a, d)| format!("    ({m:?}, {a:?}, {d:#018x}),\n"))
            .collect();
        panic!("manager reports moved; the current table is:\n{table}");
    }
}

#[test]
fn chaos_fleet_reproduces_its_pinned_report() {
    let cfg = fleet::FleetConfig {
        tenants: 2000,
        ..fleet::FleetConfig::default()
    };
    let plan: FaultPlan = "seed=7,tenant-panic=20000".parse().expect("valid plan");
    let run = RunConfig::default().with_threads(2).with_chaos(plan);
    let report = fleet::run(&cfg, &run).expect("fleet runs");
    assert!(
        report.accumulator.failed_tenants > 0,
        "the plan must quarantine tenants"
    );
    let digest = fnv1a(report.to_json().to_string().as_bytes());
    assert_eq!(digest, FLEET_PIN, "fleet report moved: now {digest:#018x}");
}
