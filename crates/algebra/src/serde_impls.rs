//! Serde support for the algebra types the pipeline persists.
//!
//! Same philosophy as `chromata-topology`'s serde layer: explicit mirror
//! shapes built on the vendored [`Content`] tree, with every structural
//! invariant re-established through ordinary constructors on load.
//! Deserialization *validates before constructing* — a corrupt snapshot
//! entry must surface as an `Err`, never as a panic inside `from_rows` or
//! an out-of-range generator index.

use serde::de::Error as DeError;
use serde::{de, ser, Content, Deserialize, Deserializer, Serialize, Serializer};

use chromata_topology::{Graph, Simplex, Vertex};

use crate::edge_path::{EdgePathGroup, PresentationSummary};
use crate::homology::ChainComplex;
use crate::matrix::IntMatrix;
use crate::presentation::Presentation;
use crate::word::Word;

/// Looks up a required field in a deserialized map.
fn field<'a>(entries: &'a [(String, Content)], name: &str) -> Result<&'a Content, String> {
    entries
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field '{name}'"))
}

/// Unwraps a map content node.
fn as_map(c: &Content) -> Result<&[(String, Content)], String> {
    match c {
        Content::Map(entries) => Ok(entries),
        other => Err(format!("expected an object, found {other:?}")),
    }
}

fn to_content<T: Serialize>(v: &T) -> Result<Content, String> {
    ser::to_content(v).map_err(|e| e.0)
}

fn from_content<'de, T: Deserialize<'de>>(c: &Content) -> Result<T, String> {
    de::from_content(c.clone()).map_err(|e| e.0)
}

impl Serialize for Presentation {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let err = |e: String| <S::Error as ser::Error>::custom(e);
        s.serialize_content(serde::map_content(vec![
            (
                "generators",
                to_content(&self.generator_count()).map_err(err)?,
            ),
            (
                "relators",
                to_content(&self.relators().to_vec()).map_err(err)?,
            ),
        ]))
    }
}

impl<'de> Deserialize<'de> for Presentation {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let content = d.deserialize_content()?;
        let entries = as_map(&content).map_err(D::Error::custom)?;
        let generators: usize =
            from_content(field(entries, "generators").map_err(D::Error::custom)?)
                .map_err(D::Error::custom)?;
        let relators: Vec<Word> =
            from_content(field(entries, "relators").map_err(D::Error::custom)?)
                .map_err(D::Error::custom)?;
        // A letter ±k refers to generator k; 0 or |k| > generators would
        // index out of range downstream (e.g. in `relator_matrix`).
        for w in &relators {
            for &letter in w {
                let ok = letter != 0 && letter.unsigned_abs() as usize <= generators;
                if !ok {
                    return Err(D::Error::custom(format!(
                        "relator letter {letter} out of range for {generators} generators"
                    )));
                }
            }
        }
        // `Presentation::new` freely + cyclically reduces; it is idempotent
        // on already-reduced relators, so round-trips are exact.
        Ok(Presentation::new(generators, relators))
    }
}

impl Serialize for IntMatrix {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let err = |e: String| <S::Error as ser::Error>::custom(e);
        s.serialize_content(serde::map_content(vec![
            ("rows", to_content(&self.rows()).map_err(err)?),
            ("cols", to_content(&self.cols()).map_err(err)?),
            ("data", to_content(&self.data().to_vec()).map_err(err)?),
        ]))
    }
}

impl<'de> Deserialize<'de> for IntMatrix {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let content = d.deserialize_content()?;
        let entries = as_map(&content).map_err(D::Error::custom)?;
        let rows: usize = from_content(field(entries, "rows").map_err(D::Error::custom)?)
            .map_err(D::Error::custom)?;
        let cols: usize = from_content(field(entries, "cols").map_err(D::Error::custom)?)
            .map_err(D::Error::custom)?;
        let data: Vec<i64> = from_content(field(entries, "data").map_err(D::Error::custom)?)
            .map_err(D::Error::custom)?;
        let expected = rows
            .checked_mul(cols)
            .ok_or_else(|| D::Error::custom("matrix shape overflows"))?;
        if data.len() != expected {
            return Err(D::Error::custom(format!(
                "matrix data length {} does not match shape {rows}x{cols}",
                data.len()
            )));
        }
        Ok(IntMatrix::from_rows(rows, cols, data))
    }
}

impl Serialize for ChainComplex {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let err = |e: String| <S::Error as ser::Error>::custom(e);
        s.serialize_content(serde::map_content(vec![
            (
                "vertices",
                to_content(&self.vertices().to_vec()).map_err(err)?,
            ),
            ("edges", to_content(&self.edges().to_vec()).map_err(err)?),
            (
                "triangles",
                to_content(&self.triangles().to_vec()).map_err(err)?,
            ),
            ("boundary1", to_content(&self.boundary1).map_err(err)?),
            ("boundary2", to_content(&self.boundary2).map_err(err)?),
        ]))
    }
}

impl<'de> Deserialize<'de> for ChainComplex {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let content = d.deserialize_content()?;
        let entries = as_map(&content).map_err(D::Error::custom)?;
        let get = |name: &str| field(entries, name).map_err(D::Error::custom);
        let vertices: Vec<Vertex> = from_content(get("vertices")?).map_err(D::Error::custom)?;
        let edges: Vec<Simplex> = from_content(get("edges")?).map_err(D::Error::custom)?;
        let triangles: Vec<Simplex> = from_content(get("triangles")?).map_err(D::Error::custom)?;
        let boundary1: IntMatrix = from_content(get("boundary1")?).map_err(D::Error::custom)?;
        let boundary2: IntMatrix = from_content(get("boundary2")?).map_err(D::Error::custom)?;
        if boundary1.rows() != vertices.len() || boundary1.cols() != edges.len() {
            return Err(D::Error::custom("boundary1 shape mismatch"));
        }
        if boundary2.rows() != edges.len() || boundary2.cols() != triangles.len() {
            return Err(D::Error::custom("boundary2 shape mismatch"));
        }
        // `walk_to_chain` binary-searches the edge basis.
        if !edges.is_sorted_by(|a, b| a < b) {
            return Err(D::Error::custom("edge basis is not strictly sorted"));
        }
        Ok(ChainComplex::from_parts(
            vertices, edges, triangles, boundary1, boundary2,
        ))
    }
}

impl Serialize for EdgePathGroup {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let err = |e: String| <S::Error as ser::Error>::custom(e);
        s.serialize_content(serde::map_content(vec![
            (
                "presentation",
                to_content(self.presentation()).map_err(err)?,
            ),
            (
                "generator_edges",
                to_content(&self.generator_edges().to_vec()).map_err(err)?,
            ),
            ("graph", to_content(self.graph()).map_err(err)?),
        ]))
    }
}

impl<'de> Deserialize<'de> for EdgePathGroup {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let content = d.deserialize_content()?;
        let entries = as_map(&content).map_err(D::Error::custom)?;
        let get = |name: &str| field(entries, name).map_err(D::Error::custom);
        let presentation: Presentation =
            from_content(get("presentation")?).map_err(D::Error::custom)?;
        let generator_edges: Vec<(Vertex, Vertex)> =
            from_content(get("generator_edges")?).map_err(D::Error::custom)?;
        let graph: Graph = from_content(get("graph")?).map_err(D::Error::custom)?;
        if presentation.generator_count() != generator_edges.len() {
            return Err(D::Error::custom(format!(
                "presentation has {} generators but {} generator edges",
                presentation.generator_count(),
                generator_edges.len()
            )));
        }
        if generator_edges.len() > i32::MAX as usize {
            return Err(D::Error::custom("generator count out of range"));
        }
        Ok(EdgePathGroup::from_parts(
            presentation,
            generator_edges,
            graph,
        ))
    }
}

impl Serialize for PresentationSummary {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let err = |e: String| <S::Error as ser::Error>::custom(e);
        // The `trivial` / `evidently_abelian` flags are not stored: on load
        // they are re-derived from the simplified presentation.
        s.serialize_content(serde::map_content(vec![
            ("group", to_content(self.group()).map_err(err)?),
            ("simplified", to_content(self.simplified()).map_err(err)?),
        ]))
    }
}

impl<'de> Deserialize<'de> for PresentationSummary {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let content = d.deserialize_content()?;
        let entries = as_map(&content).map_err(D::Error::custom)?;
        let get = |name: &str| field(entries, name).map_err(D::Error::custom);
        let group: EdgePathGroup = from_content(get("group")?).map_err(D::Error::custom)?;
        let simplified: Presentation =
            from_content(get("simplified")?).map_err(D::Error::custom)?;
        Ok(PresentationSummary::from_parts(group, simplified))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chromata_topology::Complex;

    fn roundtrip<T>(v: &T) -> T
    where
        T: Serialize + for<'de> Deserialize<'de>,
    {
        let json = serde_json::to_string(v).expect("serialize");
        serde_json::from_str(&json).expect("deserialize")
    }

    fn bytes<T: Serialize>(v: &T) -> String {
        serde_json::to_string(v).expect("serialize")
    }

    fn hollow_triangle() -> Complex {
        let tri = Simplex::from_iter([Vertex::of(0, 0), Vertex::of(1, 0), Vertex::of(2, 0)]);
        Complex::from_facets([tri]).skeleton(1)
    }

    #[test]
    fn presentation_roundtrips() {
        let p = Presentation::new(2, vec![vec![1, 2, -1, -2], vec![1, 1, 1]]);
        let p2 = roundtrip(&p);
        assert_eq!(p2.generator_count(), p.generator_count());
        assert_eq!(p2.relators(), p.relators());
        assert_eq!(bytes(&p2), bytes(&p));
    }

    #[test]
    fn presentation_rejects_out_of_range_letters() {
        assert!(
            serde_json::from_str::<Presentation>(r#"{"generators":1,"relators":[[2]]}"#).is_err()
        );
        assert!(
            serde_json::from_str::<Presentation>(r#"{"generators":1,"relators":[[0]]}"#).is_err()
        );
    }

    #[test]
    fn matrix_roundtrips_and_rejects_bad_shape() {
        let m = IntMatrix::from_rows(2, 3, vec![1, -2, 3, 0, 5, -6]);
        assert_eq!(roundtrip(&m), m);
        assert!(serde_json::from_str::<IntMatrix>(r#"{"rows":2,"cols":3,"data":[1,2]}"#).is_err());
    }

    #[test]
    fn chain_complex_roundtrips() {
        let cc = ChainComplex::new(&hollow_triangle());
        let cc2 = roundtrip(&cc);
        assert_eq!(cc2.vertices(), cc.vertices());
        assert_eq!(cc2.edges(), cc.edges());
        assert_eq!(cc2.triangles(), cc.triangles());
        assert_eq!(cc2.boundary1, cc.boundary1);
        assert_eq!(cc2.boundary2, cc.boundary2);
        assert_eq!(bytes(&cc2), bytes(&cc));
    }

    #[test]
    fn chain_complex_rejects_shape_mismatch() {
        let cc = ChainComplex::new(&hollow_triangle());
        let json = bytes(&cc);
        // Grow boundary1's claimed width without growing the edge list.
        let broken = json.replacen(r#""edges":["#, r#""edges":[["x"],"#, 1);
        assert!(serde_json::from_str::<ChainComplex>(&broken).is_err());
    }

    #[test]
    fn chain_complex_rejects_unsorted_edges() {
        let cc = ChainComplex::new(&hollow_triangle());
        let mut doc: serde_json::Value = serde_json::from_str(&bytes(&cc)).expect("parse");
        let serde_json::Value::Array(edges) = &mut doc["edges"] else {
            panic!("edge list expected");
        };
        edges.swap(0, 1);
        assert!(serde_json::from_value::<ChainComplex>(doc).is_err());
    }

    #[test]
    fn edge_path_group_roundtrips_with_rebuilt_index() {
        let g = EdgePathGroup::new(&hollow_triangle());
        let g2 = roundtrip(&g);
        assert_eq!(bytes(&g2), bytes(&g));
        // The rebuilt generator index must translate walks identically.
        let walk = [
            Vertex::of(0, 0),
            Vertex::of(1, 0),
            Vertex::of(2, 0),
            Vertex::of(0, 0),
        ];
        assert_eq!(g2.word_of_walk(&walk), g.word_of_walk(&walk));
    }

    #[test]
    fn presentation_summary_recomputes_flags() {
        let s = PresentationSummary::of(&hollow_triangle());
        let s2 = roundtrip(&s);
        assert_eq!(s2.is_trivial(), s.is_trivial());
        assert_eq!(s2.is_evidently_abelian(), s.is_evidently_abelian());
        assert_eq!(bytes(&s2), bytes(&s));
    }

    #[test]
    fn edge_path_group_rejects_generator_mismatch() {
        let g = EdgePathGroup::new(&hollow_triangle());
        let json = bytes(&g);
        let broken = json.replacen(r#""generator_edges":["#, r#""generator_edges":[null,"#, 1);
        assert!(serde_json::from_str::<EdgePathGroup>(&broken).is_err());
    }
}
