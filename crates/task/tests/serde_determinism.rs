//! Serialization determinism across the whole task library.
//!
//! The interned vertex/simplex representation orders simplices by pointer
//! fast paths internally, but every *observable* iteration (complex
//! simplices, carrier-map entries) must stay deterministic so that task
//! files are reproducible byte-for-byte — across repeated runs, across a
//! serialize→deserialize→serialize roundtrip, and against committed
//! golden digests of every library task's encoding.

use chromata_task::library::{
    adaptive_renaming, approximate_agreement, consensus, constant_task, hourglass, identity_task,
    leader_election, majority_consensus, multi_valued_consensus, pinwheel, renaming,
    simple_example_task, two_process_consensus, two_process_leader_election, two_set_agreement,
};
use chromata_task::Task;
use chromata_topology::fnv1a;

fn library() -> Vec<Task> {
    vec![
        identity_task(1),
        identity_task(2),
        identity_task(3),
        constant_task(3),
        simple_example_task(),
        hourglass(),
        pinwheel(),
        consensus(2),
        consensus(3),
        two_process_consensus(),
        multi_valued_consensus(3),
        majority_consensus(),
        two_set_agreement(),
        leader_election(),
        two_process_leader_election(),
        renaming(4),
        adaptive_renaming(),
        approximate_agreement(2),
    ]
}

/// Golden serialization digests, `name:fnv1a(json)`; regenerate by
/// running `library_serialization_digests_match_golden` and copying
/// the printed actual list.
const GOLDEN_DIGESTS: &[&str] = &[
    "identity-1:f3eda6a9012c1113",
    "identity-2:d710968df45fd278",
    "identity-3:076080dbc8105f33",
    "constant-3:a919ab602f1a0ada",
    "fig3-example:2e35ff2f4fd7296f",
    "hourglass:11283723be6ce0df",
    "pinwheel:ba070a2977637003",
    "consensus-2:08733ad152de7a91",
    "consensus-3:befbf7fc346f09a6",
    "consensus-2:08733ad152de7a91",
    "consensus-3x3:967c79c0f7822c7d",
    "majority-consensus:8a0111f853b04fa5",
    "2-set-agreement:48206ec034db442d",
    "leader-election:88e1931b2295807e",
    "leader-election-2:c26771efcac81de4",
    "renaming-4:d254c236b93b90f6",
    "adaptive-renaming:2f5c3bac2dbdd5eb",
    "approx-agreement-2:f86bef0c7bd192d5",
];

/// Any byte drift in the encoding — ordering, interning artifacts,
/// thread scheduling — changes a digest.
#[test]
fn library_serialization_digests_match_golden() {
    let actual: Vec<String> = library()
        .iter()
        .map(|task| {
            let json = serde_json::to_string(task).expect("serialize");
            format!("{}:{:016x}", task.name(), fnv1a(json.as_bytes()))
        })
        .collect();
    let expected: Vec<String> = GOLDEN_DIGESTS.iter().map(|s| (*s).to_string()).collect();
    assert_eq!(
        actual, expected,
        "serialization drifted from the committed goldens; \
         if intentional, update GOLDEN_DIGESTS to the actual list above"
    );
}

#[test]
fn serialization_is_byte_deterministic() {
    for task in library() {
        let first = serde_json::to_string(&task).expect("serialize");
        let second = serde_json::to_string(&task).expect("serialize again");
        assert_eq!(first, second, "unstable serialization for {}", task.name());
    }
}

#[test]
fn roundtrip_then_reserialize_is_identical() {
    for task in library() {
        let bytes = serde_json::to_string(&task).expect("serialize");
        let reloaded: Task = serde_json::from_str(&bytes).expect("deserialize");
        assert_eq!(reloaded, task, "roundtrip changed {}", task.name());
        let again = serde_json::to_string(&reloaded).expect("reserialize");
        assert_eq!(
            bytes,
            again,
            "reloaded task serializes differently for {}",
            task.name()
        );
    }
}

#[test]
fn clones_share_serialization() {
    // Interning means a clone is pointer-identical inside; serialization
    // must not leak any pointer-dependent ordering.
    for task in library() {
        let clone = task.clone();
        assert_eq!(
            serde_json::to_string(&task).unwrap(),
            serde_json::to_string(&clone).unwrap(),
            "clone serialized differently for {}",
            task.name()
        );
    }
}

#[test]
fn checked_in_fixture_matches_its_generator() {
    // Task files are a compatibility contract: the fixture was written by
    // an earlier build, so any byte drift in the format shows up here.
    let fixture = include_str!("../../../tests/fixtures/identity-4.json");
    let json = serde_json::to_string(&identity_task(4)).expect("serialize");
    assert_eq!(format!("{json}\n"), fixture);
}
