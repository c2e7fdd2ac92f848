//! Integer linear algebra, homology and combinatorial group theory for the
//! `chromata` workspace.
//!
//! The solvability characterization of *"Solvability Characterization for
//! General Three-Process Tasks"* (PODC 2025) bottoms out, after the
//! splitting deformation, in a continuous-map existence question (§5). Its
//! computational content is:
//!
//! * connected components (handled in `chromata-topology`);
//! * **contractibility of loops** in 2-dimensional output complexes — the
//!   generally undecidable residue (§7), attacked here with a tier of sound
//!   partial deciders: [`homology`] / [`ChainComplex`] (abelianized
//!   obstructions: lattice membership by [`is_feasible`], torsion by
//!   [`smith_normal_form`], explicit solutions by [`solve_integer`]),
//!   [`EdgePathGroup`] presentations simplified by Tietze moves
//!   ([`Presentation::simplified`]), and bounded [`coset_enumeration`].
//!
//! The entry point for "is this loop contractible?" is
//! [`loop_contractible`] (or [`word_triviality`] on a presentation you
//! already hold):
//!
//! ```
//! use chromata_algebra::{homology, loop_contractible, Triviality};
//! use chromata_topology::{Complex, Simplex, Vertex};
//!
//! // A hollow triangle: H1 = Z, its boundary loop does not contract.
//! let tri = Simplex::from_iter([Vertex::of(0, 0), Vertex::of(1, 0), Vertex::of(2, 0)]);
//! let circle = Complex::from_facets([tri]).skeleton(1);
//! assert_eq!(homology(&circle).betti1, 1);
//! let walk = [Vertex::of(0, 0), Vertex::of(1, 0), Vertex::of(2, 0), Vertex::of(0, 0)];
//! assert_eq!(loop_contractible(&circle, &walk), Some(Triviality::Nontrivial));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decide;
mod edge_path;
mod homology;
mod linear;
mod matrix;
mod presentation;
mod smith;
mod todd_coxeter;
mod word;

pub use decide::{word_triviality, word_triviality_with_budget, Triviality, DEFAULT_COSET_BUDGET};
pub use edge_path::{loop_contractible, EdgePathGroup, PresentationSummary};
pub use homology::{homology, ChainComplex, HomologyReport};
pub use linear::{in_column_lattice, is_feasible, solve_integer};
pub use matrix::IntMatrix;
pub use presentation::Presentation;
pub use smith::{smith_normal_form, SmithForm};
pub use todd_coxeter::{coset_enumeration, CosetTable, Enumeration};
pub use word::{
    concat, cyclic_reduce, delete_generator, exponent_vector, free_reduce, invert, substitute, Word,
};
