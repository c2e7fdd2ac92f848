//! Serde support for the topology types.
//!
//! Each type reads and writes its own `Content` tree, so the on-disk
//! format is stable, human-readable and independent of internal `Arc`
//! sharing: values are externally tagged (`{"int": 5}`, `{"view": [...]}`,
//! …), vertices are `{"color": c, "value": v}`, complexes serialize as
//! facet lists (faces are re-derived on load), carrier maps as
//! `(simplex, image-facets)` pairs. Deserialization re-establishes every
//! structural invariant through the ordinary constructors, and every
//! vertex — also one nested in a view — is range-checked before
//! construction.

use serde::{Content, Deserialize, Error, Serialize};

use crate::carrier::CarrierMap;
use crate::color::Color;
use crate::complex::Complex;
use crate::simplex::Simplex;
use crate::value::Value;
use crate::vertex::Vertex;

impl Serialize for Value {
    fn to_content(&self) -> Content {
        match self {
            Value::Int(i) => Content::tagged("int", Content::Int(*i)),
            Value::Name(s) => Content::tagged("name", s.to_content()),
            Value::Pair(a, b) => Content::tagged("pair", (a, b).to_content()),
            Value::View(vs) => Content::tagged("view", vs.to_content()),
            Value::Split(b, i) => Content::tagged("split", (b, i).to_content()),
        }
    }
}

impl Deserialize for Value {
    fn from_content(c: &Content) -> Result<Self, Error> {
        let (tag, payload) = c.variant()?;
        match tag {
            "int" => match payload {
                Content::Int(i) => Ok(Value::Int(*i)),
                other => Err(Error::custom(format!(
                    "expected an integer, found {other:?}"
                ))),
            },
            "name" => match payload {
                Content::String(s) => Ok(Value::name(s)),
                other => Err(Error::custom(format!("expected a string, found {other:?}"))),
            },
            "pair" => {
                let (a, b) = <(Value, Value)>::from_content(payload)?;
                Ok(Value::pair(a, b))
            }
            "view" => Ok(Value::view(Vec::<Vertex>::from_content(payload)?)),
            "split" => {
                let (base, copy) = <(Value, i64)>::from_content(payload)?;
                let copy =
                    u32::try_from(copy).map_err(|_| Error::custom("split copy out of range"))?;
                Ok(Value::split(base, copy))
            }
            other => Err(Error::custom(format!("unknown value variant '{other}'"))),
        }
    }
}

impl Serialize for Vertex {
    fn to_content(&self) -> Content {
        Content::object([
            ("color", self.color().index().to_content()),
            ("value", self.value().to_content()),
        ])
    }
}

impl Deserialize for Vertex {
    fn from_content(c: &Content) -> Result<Self, Error> {
        let color = match c.field("color")? {
            Content::Int(i) => {
                u8::try_from(*i).map_err(|_| Error::custom(format!("color {i} out of u8 range")))?
            }
            other => {
                return Err(Error::custom(format!(
                    "expected an integer color, found {other:?}"
                )))
            }
        };
        if usize::from(color) >= Color::MAX_COLORS {
            return Err(Error::custom(format!("color {color} out of range")));
        }
        Ok(Vertex::new(Color::new(color), c.get("value")?))
    }
}

impl Serialize for Simplex {
    fn to_content(&self) -> Content {
        self.vertices().to_content()
    }
}

impl Deserialize for Simplex {
    fn from_content(c: &Content) -> Result<Self, Error> {
        let verts = Vec::<Vertex>::from_content(c)?;
        if verts.is_empty() {
            return Err(Error::custom("a simplex needs at least one vertex"));
        }
        Ok(Simplex::new(verts))
    }
}

impl Serialize for Complex {
    fn to_content(&self) -> Content {
        Content::Array(self.facets().map(Serialize::to_content).collect())
    }
}

impl Deserialize for Complex {
    fn from_content(c: &Content) -> Result<Self, Error> {
        Ok(Complex::from_facets(Vec::<Simplex>::from_content(c)?))
    }
}

impl Serialize for CarrierMap {
    fn to_content(&self) -> Content {
        Content::Array(self.iter().map(|entry| entry.to_content()).collect())
    }
}

impl Deserialize for CarrierMap {
    fn from_content(c: &Content) -> Result<Self, Error> {
        Ok(Vec::<(Simplex, Complex)>::from_content(c)?
            .into_iter()
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T>(v: &T) -> T
    where
        T: Serialize + Deserialize,
    {
        let json = serde_json::to_string(v).expect("serialize");
        serde_json::from_str(&json).expect("deserialize")
    }

    #[test]
    fn value_roundtrips() {
        let deep = Value::split(
            Value::pair(
                Value::Int(-3),
                Value::view([Vertex::of(1, 9), Vertex::of(0, 2)]),
            ),
            2,
        );
        assert_eq!(roundtrip(&deep), deep);
        assert_eq!(roundtrip(&Value::name("x")), Value::name("x"));
    }

    #[test]
    fn simplex_and_complex_roundtrip() {
        let tri = Simplex::from_iter([Vertex::of(0, 0), Vertex::of(1, 1), Vertex::of(2, 2)]);
        assert_eq!(roundtrip(&tri), tri);
        let k = Complex::from_facets([tri]).skeleton(1);
        let k2 = roundtrip(&k);
        assert_eq!(k2, k);
        assert_eq!(k2.simplices().count(), k.simplices().count());
    }

    #[test]
    fn carrier_map_roundtrip() {
        let x = Simplex::vertex(Vertex::of(0, 0));
        let img = Complex::from_facets([Simplex::vertex(Vertex::of(0, 7))]);
        let cm: CarrierMap = [(x, img)].into_iter().collect();
        let cm2 = roundtrip(&cm);
        assert_eq!(cm2, cm);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(serde_json::from_str::<Simplex>("[]").is_err());
        let bad_color = r#"{"color": 99, "value": {"int": 0}}"#;
        assert!(serde_json::from_str::<Vertex>(bad_color).is_err());
        // A vertex inside a view goes through the same range check as a
        // top-level one: an error, never `Color::new`'s panic.
        let nested = r#"{"color":0,"value":{"view":[{"color":99,"value":{"int":0}}]}}"#;
        let err = serde_json::from_str::<Vertex>(nested).unwrap_err();
        assert_eq!(err.to_string(), "color 99 out of range");
    }

    #[test]
    fn format_is_human_readable() {
        let v = Vertex::of(2, 5);
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(json, r#"{"color":2,"value":{"int":5}}"#);
        // One value per tag, pinned byte for byte.
        let pins = [
            (Value::Int(-7), r#"{"int":-7}"#),
            (Value::name("top"), r#"{"name":"top"}"#),
            (
                Value::pair(Value::Int(1), Value::name("x")),
                r#"{"pair":[{"int":1},{"name":"x"}]}"#,
            ),
            (
                Value::view([Vertex::of(1, 4), Vertex::of(0, 3)]),
                r#"{"view":[{"color":0,"value":{"int":3}},{"color":1,"value":{"int":4}}]}"#,
            ),
            (Value::split(Value::Int(2), 1), r#"{"split":[{"int":2},1]}"#),
        ];
        for (value, expected) in pins {
            assert_eq!(serde_json::to_string(&value).unwrap(), expected);
            assert_eq!(roundtrip(&value), value);
        }
    }
}
