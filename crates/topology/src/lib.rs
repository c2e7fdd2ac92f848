//! Chromatic simplicial topology for distributed task solvability.
//!
//! This crate is the foundational substrate of the `chromata` workspace,
//! which reproduces *"Solvability Characterization for General Three-Process
//! Tasks"* (Attiya, Fraigniaud, Paz, Rajsbaum; PODC 2025). It provides the
//! combinatorial-topology vocabulary of the paper's §2:
//!
//! * [`Color`] / [`ColorSet`] — process identifiers ("colors");
//! * [`Value`] / [`Vertex`] — chromatic vertices `(id, value)`;
//! * [`Simplex`] — non-empty vertex sets in canonical form;
//! * [`Complex`] — face-closed simplicial complexes with links, stars,
//!   skeletons, and connectivity queries;
//! * [`Graph`] — graph utilities over 1-skeletons (shortest paths,
//!   spanning forests, cycle bases);
//! * [`SimplicialMap`] — (chromatic) simplicial maps;
//! * [`CarrierMap`] — monotone simplex-to-subcomplex maps with full
//!   validation;
//! * [`product`] — chromatic products `C × T` used by canonical tasks (§3).
//!
//! # Example: detecting a local articulation point
//!
//! ```
//! use chromata_topology::{Complex, Simplex, Vertex};
//!
//! // Bow-tie: two triangles sharing one vertex.
//! let w = Vertex::of(0, 0);
//! let bowtie = Complex::from_facets([
//!     Simplex::from_iter([w.clone(), Vertex::of(1, 0), Vertex::of(2, 0)]),
//!     Simplex::from_iter([w.clone(), Vertex::of(1, 1), Vertex::of(2, 1)]),
//! ]);
//! assert!(!bowtie.is_link_connected());
//! assert_eq!(bowtie.disconnected_link_vertices(), vec![w]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod carrier;
mod color;
mod complex;
pub mod govern;
mod graph;
pub mod interleave;
mod intern;
mod map;
mod par;
mod product;
mod serde_impls;
mod simplex;
mod value;
mod vertex;

pub use carrier::{CarrierMap, CarrierViolation};
pub use color::{Color, ColorSet};
pub use complex::Complex;
pub use govern::{Budget, CancelToken, Interrupt, Stopwatch};
pub use graph::Graph;
pub use intern::{
    fnv1a, interner_stats, structural_fingerprint, xorshift, BuildStructuralHasher,
    StructuralHasher,
};
pub use map::SimplicialMap;
pub use par::{par_map, try_par_map, WorkerPanic};
pub use product::{product, product_simplex, product_vertex, project_first, project_second};
pub use simplex::Simplex;
pub use value::Value;
pub use vertex::Vertex;
