//! Report pins for every manager and for a chaos-armed fleet.
//!
//! Each cell of `ManagerKind::ALL` × {`P_F`, `P_R`} at `M = 2^13`,
//! `log₂ n = 9`, `c = 20` runs, and the FNV-1a digest of its `SimReport`,
//! serialized by [`sim_report_json`], is pinned below; so is the digest of the fleet report for
//! 2000 tenants under `seed=7,tenant-panic=20000`. Any change to a
//! placement decision or a quarantine outcome moves at least one digest
//! (manager counters are pinned through `tests/cli.rs`'s `--metrics-out`
//! digests). An intentional behaviour change must update
//! them consciously: a mismatch prints the whole table to paste.

use partial_compaction::chaos::FaultPlan;
use partial_compaction::{fleet, sim, ManagerKind, Params, RunConfig};
use pcb_json::{Json, ToJson};

/// FNV-1a (64-bit).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The pinned serialization of a `SimReport`: the names and the engine's
/// summary under `execution`, then the bound comparison and the `P_F`
/// readings. `Json::object` keys are kept in name order, so the bytes do
/// not depend on the order written here.
fn sim_report_json(r: &sim::SimReport) -> Json {
    let e = &r.execution;
    let execution = Json::object([
        ("program", Json::from(r.program.as_str())),
        ("manager", Json::from(r.manager.as_str())),
        ("c", Json::from(e.c)),
        ("live_bound", Json::from(e.live_bound)),
        ("heap_size", Json::from(e.heap_size)),
        ("peak_live", Json::from(e.peak_live)),
        ("waste_factor", Json::from(e.waste_factor)),
        ("moved_fraction", Json::from(e.moved_fraction)),
        ("rounds", Json::from(e.rounds)),
        ("objects_placed", Json::from(e.objects_placed)),
        ("objects_freed", Json::from(e.objects_freed)),
        ("objects_moved", Json::from(e.objects_moved)),
        ("words_placed", Json::from(e.words_placed)),
        ("words_moved", Json::from(e.words_moved)),
        ("external_waste", Json::from(e.external_waste)),
        ("ghost_words", Json::from(e.ghost_words)),
        ("internal_waste", Json::from(e.internal_waste)),
    ]);
    Json::object([
        ("execution", execution),
        ("h", Json::from(r.h)),
        ("h_raw", Json::from(r.h_raw)),
        ("rho", Json::from(r.rho)),
        ("waste_over_bound", Json::from(r.waste_over_bound)),
        (
            "stage_words",
            Json::array(r.stage_words.iter().map(|&w| Json::from(w))),
        ),
        (
            "final_potential",
            r.final_potential.map_or(Json::Null, Json::Int),
        ),
        (
            "violations",
            Json::array(r.violations.iter().map(|v| Json::from(v.as_str()))),
        ),
        (
            "series",
            r.series.as_ref().map_or(Json::Null, ToJson::to_json),
        ),
    ])
}

/// `(manager, adversary, digest)`, adversary `"pf"` or `"robson"`.
const SIM_PINS: &[(&str, &str, u64)] = &[
    ("first-fit", "pf", 0x6d57de3071e1541e),
    ("first-fit", "robson", 0xbd10d766492865b2),
    ("best-fit", "pf", 0x745d94facb11e1d6),
    ("best-fit", "robson", 0x73f12f057571daa2),
    ("worst-fit", "pf", 0x2fc8c1a878a9bc2b),
    ("worst-fit", "robson", 0x50e69d1d4c3d96d9),
    ("next-fit", "pf", 0x2924b391dc071985),
    ("next-fit", "robson", 0xd78830d185e2a633),
    ("buddy", "pf", 0x154a2d02a0803aa7),
    ("buddy", "robson", 0xe983895f7ae81cbb),
    ("segregated", "pf", 0x90496096fdfc1694),
    ("segregated", "robson", 0xd717bf74415a8944),
    ("robson-aligned", "pf", 0xafcef0c9c914674f),
    ("robson-aligned", "robson", 0x386975a4b181531d),
    ("tlsf", "pf", 0x54cd4bf2e23a655f),
    ("tlsf", "robson", 0x29c2e8df9b677185),
    ("compacting-bp11", "pf", 0x116257d069b6536c),
    ("compacting-bp11", "robson", 0xa3220d8ffae80a0b),
    ("pages-thm2", "pf", 0xba2a12ff72950657),
    ("pages-thm2", "robson", 0xf691827024cf1f97),
];

/// Digest of `fleet --tenants 2000 --chaos seed=7,tenant-panic=20000 --json`.
const FLEET_PIN: u64 = 0x1aabe20d818eb496;

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
                .run()
                .expect("cell runs");
            got.push((
                kind.name(),
                adv,
                fnv1a(sim_report_json(&report).to_string().as_bytes()),
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
fn reports_serialize_to_json() {
    let params = Params::new(1 << 12, 8, 10).expect("valid");
    let report = sim::Sim::new(params)
        .manager(ManagerKind::Buddy)
        .run()
        .expect("runs");
    let json = sim_report_json(&report).to_string();
    assert!(json.contains("\"waste_over_bound\""));
    assert!(json.contains("\"manager\":\"buddy\""));
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
