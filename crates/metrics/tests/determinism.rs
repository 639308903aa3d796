//! The determinism contract of the metric plane, checked from outside:
//! snapshot merge is associative and commutative (so any shard merge
//! tree folds to the same bytes), and the process-global registry
//! produces byte-identical snapshots no matter how many threads did the
//! recording.

use pcb_json::ToJson;
use pcb_metrics::MetricsSnapshot;
use proptest::prelude::*;

/// One recording operation against a small fixed name space (collisions
/// are the interesting case).
#[derive(Clone, Debug)]
enum Op {
    Counter(u8, u64),
    Gauge(u8, u64),
    Observe(u8, u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u64..1 << 40).prop_map(|(n, v)| Op::Counter(n, v)),
        (0u8..4, 0u64..1 << 40).prop_map(|(n, v)| Op::Gauge(n, v)),
        (0u8..4, 0u64..1 << 40).prop_map(|(n, v)| Op::Observe(n, v)),
    ]
}

fn apply(snap: &mut MetricsSnapshot, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Counter(n, v) => snap.add_counter(format!("counter.{n}"), v),
            Op::Gauge(n, v) => snap.record_gauge_max(format!("gauge.{n}"), v),
            Op::Observe(n, v) => snap.observe(format!("hist.{n}"), v),
        }
    }
}

fn bytes(snap: &MetricsSnapshot) -> String {
    snap.to_json().to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` and `a ⊕ b == b ⊕ a`: the exact
    // properties that make the fleet's shard-order fold equal any other
    // grouping, hence thread-count independent.
    #[test]
    fn merge_is_associative_and_commutative(
        a_ops in proptest::collection::vec(op(), 0..48),
        b_ops in proptest::collection::vec(op(), 0..48),
        c_ops in proptest::collection::vec(op(), 0..48),
    ) {
        let (mut a, mut b, mut c) = (
            MetricsSnapshot::new(),
            MetricsSnapshot::new(),
            MetricsSnapshot::new(),
        );
        apply(&mut a, &a_ops);
        apply(&mut b, &b_ops);
        apply(&mut c, &c_ops);

        // Left fold: (a ⊕ b) ⊕ c.
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // Right fold: a ⊕ (b ⊕ c).
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(bytes(&left), bytes(&right), "associativity");

        // Commutativity.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(bytes(&ab), bytes(&ba), "commutativity");

        // And both equal recording everything into one snapshot.
        let mut flat = MetricsSnapshot::new();
        apply(&mut flat, &a_ops);
        apply(&mut flat, &b_ops);
        apply(&mut flat, &c_ops);
        prop_assert_eq!(bytes(&left), bytes(&flat), "fold == sequential");
    }

    // JSON round-trip is lossless for arbitrary snapshots — what the
    // fleet checkpoint relies on to resume a metrics-on run.
    #[test]
    fn json_round_trip_is_lossless(
        ops in proptest::collection::vec(op(), 0..96),
    ) {
        let mut snap = MetricsSnapshot::new();
        apply(&mut snap, &ops);
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("round trip");
        prop_assert_eq!(bytes(&snap), bytes(&back));
    }
}

/// The registry side of the contract: a fixed workload recorded by 1, 2,
/// or 4 threads folds to byte-identical snapshots, because every
/// recording is a sum or a max into the one locked snapshot.
#[test]
fn registry_snapshot_is_thread_count_independent() {
    // A fixed, partition-independent workload: operation i contributes
    // the same values no matter which thread runs it.
    let record = |i: u64| {
        pcb_metrics::add_counter("test.ops", i % 7);
        pcb_metrics::record_gauge_max("test.peak", i * 3);
        pcb_metrics::observe("test.size", i % 513);
    };
    const N: u64 = 4000;

    let mut baseline = None;
    for threads in [1u64, 2, 4] {
        pcb_metrics::reset();
        pcb_metrics::enable();
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    let mut i = t;
                    while i < N {
                        record(i);
                        i += threads;
                    }
                });
            }
        });
        pcb_metrics::disable();
        let snap = pcb_metrics::snapshot().to_json().to_string();
        match &baseline {
            None => baseline = Some(snap),
            Some(expect) => assert_eq!(&snap, expect, "threads={threads}"),
        }
    }
    pcb_metrics::reset();
}
