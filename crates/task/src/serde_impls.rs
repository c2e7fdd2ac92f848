//! Serde support for [`Task`]: the on-disk task-file format used by the
//! `chromata` CLI, `{"name": …, "input": …, "output": …, "delta": …}`.
//! Deserialization runs the full task validation, so a loaded task is as
//! trustworthy as a constructed one.

use serde::{Content, Deserialize, Error, Serialize};

use crate::task::Task;

impl Serialize for Task {
    fn to_content(&self) -> Content {
        Content::object([
            ("name", self.name().to_content()),
            ("input", self.input().to_content()),
            ("output", self.output().to_content()),
            ("delta", self.delta().to_content()),
        ])
    }
}

impl Deserialize for Task {
    fn from_content(c: &Content) -> Result<Self, Error> {
        let name = match c.field("name")? {
            Content::String(s) => s.clone(),
            other => {
                return Err(Error::custom(format!(
                    "expected a string name, found {other:?}"
                )))
            }
        };
        Task::new(name, c.get("input")?, c.get("output")?, c.get("delta")?)
            .map_err(|e| Error::custom(format!("invalid task: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use crate::library::{hourglass, pinwheel};
    use crate::Task;

    #[test]
    fn library_tasks_roundtrip() {
        for t in [hourglass(), pinwheel()] {
            let json = serde_json::to_string(&t).expect("serialize");
            let back: Task = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, t);
        }
    }

    #[test]
    fn invalid_tasks_rejected_on_load() {
        let t = hourglass();
        let mut json = serde_json::to_value(&t);
        // Remove the output complex entirely: images escape the output.
        json["output"] = serde_json::Value::Array(Vec::new());
        let err = serde_json::from_value::<Task>(&json).unwrap_err();
        assert!(err.to_string().contains("invalid task"), "{err}");
    }

    #[test]
    fn format_contains_the_name() {
        let json = serde_json::to_string(&hourglass()).unwrap();
        assert!(json.contains("\"hourglass\""));
    }
}
