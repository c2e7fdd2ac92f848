//! Serialization determinism across the whole task library.
//!
//! The interned vertex/simplex representation orders simplices by pointer
//! fast paths internally, but every *observable* iteration (complex
//! simplices, carrier-map entries) must stay deterministic so that task
//! files are reproducible byte-for-byte — across repeated runs, across a
//! serialize→deserialize→serialize roundtrip, and across the `parallel`
//! and `--no-default-features` builds (this test runs identically under
//! both).

use chromata_task::library::{
    adaptive_renaming, approximate_agreement, consensus, constant_task, hourglass, identity_task,
    leader_election, majority_consensus, multi_valued_consensus, pinwheel, renaming,
    simple_example_task, two_process_consensus, two_process_leader_election, two_set_agreement,
};
use chromata_task::Task;

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
