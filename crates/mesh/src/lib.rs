//! # brainshift-mesh
//!
//! Tetrahedral meshing substrate: the paper's labeled-volume mesh
//! generator ("the volumetric counterpart of a marching tetrahedra surface
//! generation algorithm", Ferrant et al.), the unstructured tet mesh the
//! FEM runs on, boundary-surface extraction for the active-surface stage,
//! and element-quality / connectivity statistics.

#![warn(missing_docs)]
// Library code must not panic on bad input: failures are typed errors or
// documented invariants. Test modules are exempt; descriptive
// `.expect()` on established invariants remains allowed.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod error;
pub mod generator;
pub mod io;
pub mod quality;
pub mod smooth;
pub mod surface_extract;
pub mod tetmesh;
pub mod trisurface;

pub use error::MeshError;
pub use generator::{mesh_labeled_volume, mesh_with_target_nodes, MesherConfig};
pub use io::{write_obj, write_vtk};
pub use smooth::{smooth_interior, SmoothConfig, SmoothStats};
pub use surface_extract::{boundary_nodes, extract_boundary, extract_boundary_of};
pub use tetmesh::TetMesh;
pub use trisurface::TriSurface;
