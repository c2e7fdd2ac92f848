//! Serde support for the algebra types the pipeline persists.
//!
//! Same philosophy as `chromata-topology`'s serde layer: each type reads
//! and writes its own `Content` tree, with every structural invariant
//! re-established through ordinary constructors on load.
//! Deserialization *validates before constructing* — a corrupt snapshot
//! entry must surface as an `Err`, never as a panic inside `from_rows` or
//! an out-of-range generator index.

use serde::{Content, Deserialize, Error, Serialize};

use chromata_topology::{Graph, Simplex, Vertex};

use crate::edge_path::{EdgePathGroup, PresentationSummary};
use crate::homology::ChainComplex;
use crate::matrix::IntMatrix;
use crate::presentation::Presentation;
use crate::word::Word;

impl Serialize for Presentation {
    fn to_content(&self) -> Content {
        Content::object([
            ("generators", self.generator_count().to_content()),
            ("relators", self.relators().to_content()),
        ])
    }
}

impl Deserialize for Presentation {
    fn from_content(c: &Content) -> Result<Self, Error> {
        let generators: usize = c.get("generators")?;
        let relators: Vec<Word> = c.get("relators")?;
        // A letter ±k refers to generator k; 0 or |k| > generators would
        // index out of range downstream (e.g. in `relator_matrix`).
        for w in &relators {
            for &letter in w {
                let ok = letter != 0 && letter.unsigned_abs() as usize <= generators;
                if !ok {
                    return Err(Error::custom(format!(
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
    fn to_content(&self) -> Content {
        Content::object([
            ("rows", self.rows().to_content()),
            ("cols", self.cols().to_content()),
            ("data", self.data().to_content()),
        ])
    }
}

impl Deserialize for IntMatrix {
    fn from_content(c: &Content) -> Result<Self, Error> {
        let rows: usize = c.get("rows")?;
        let cols: usize = c.get("cols")?;
        let data: Vec<i64> = c.get("data")?;
        let expected = rows
            .checked_mul(cols)
            .ok_or_else(|| Error::custom("matrix shape overflows"))?;
        if data.len() != expected {
            return Err(Error::custom(format!(
                "matrix data length {} does not match shape {rows}x{cols}",
                data.len()
            )));
        }
        Ok(IntMatrix::from_rows(rows, cols, data))
    }
}

impl Serialize for ChainComplex {
    fn to_content(&self) -> Content {
        Content::object([
            ("vertices", self.vertices().to_content()),
            ("edges", self.edges().to_content()),
            ("triangles", self.triangles().to_content()),
            ("boundary1", self.boundary1.to_content()),
            ("boundary2", self.boundary2.to_content()),
        ])
    }
}

impl Deserialize for ChainComplex {
    fn from_content(c: &Content) -> Result<Self, Error> {
        let vertices: Vec<Vertex> = c.get("vertices")?;
        let edges: Vec<Simplex> = c.get("edges")?;
        let triangles: Vec<Simplex> = c.get("triangles")?;
        let boundary1: IntMatrix = c.get("boundary1")?;
        let boundary2: IntMatrix = c.get("boundary2")?;
        if boundary1.rows() != vertices.len() || boundary1.cols() != edges.len() {
            return Err(Error::custom("boundary1 shape mismatch"));
        }
        if boundary2.rows() != edges.len() || boundary2.cols() != triangles.len() {
            return Err(Error::custom("boundary2 shape mismatch"));
        }
        // `walk_to_chain` binary-searches the edge basis.
        if !edges.is_sorted_by(|a, b| a < b) {
            return Err(Error::custom("edge basis is not strictly sorted"));
        }
        Ok(ChainComplex::from_parts(
            vertices, edges, triangles, boundary1, boundary2,
        ))
    }
}

impl Serialize for EdgePathGroup {
    fn to_content(&self) -> Content {
        Content::object([
            ("presentation", self.presentation().to_content()),
            ("generator_edges", self.generator_edges().to_content()),
            ("graph", self.graph().to_content()),
        ])
    }
}

impl Deserialize for EdgePathGroup {
    fn from_content(c: &Content) -> Result<Self, Error> {
        let presentation: Presentation = c.get("presentation")?;
        let generator_edges: Vec<(Vertex, Vertex)> = c.get("generator_edges")?;
        let graph: Graph = c.get("graph")?;
        if presentation.generator_count() != generator_edges.len() {
            return Err(Error::custom(format!(
                "presentation has {} generators but {} generator edges",
                presentation.generator_count(),
                generator_edges.len()
            )));
        }
        if generator_edges.len() > i32::MAX as usize {
            return Err(Error::custom("generator count out of range"));
        }
        Ok(EdgePathGroup::from_parts(
            presentation,
            generator_edges,
            graph,
        ))
    }
}

impl Serialize for PresentationSummary {
    fn to_content(&self) -> Content {
        // The `trivial` / `evidently_abelian` flags are not stored: on load
        // they are re-derived from the simplified presentation.
        Content::object([
            ("group", self.group().to_content()),
            ("simplified", self.simplified().to_content()),
        ])
    }
}

impl Deserialize for PresentationSummary {
    fn from_content(c: &Content) -> Result<Self, Error> {
        Ok(PresentationSummary::from_parts(
            c.get("group")?,
            c.get("simplified")?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chromata_topology::Complex;

    fn roundtrip<T>(v: &T) -> T
    where
        T: Serialize + Deserialize,
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
        assert!(serde_json::from_value::<ChainComplex>(&doc).is_err());
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
