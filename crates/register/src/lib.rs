//! # brainshift-register
//!
//! Rigid registration by maximization of mutual information (Wells et
//! al.), used in the paper to bring each intraoperative scan into the
//! preoperative coordinate frame before nonrigid correction: 6-DOF rigid
//! transforms, a transform-aware MI metric, and a multi-resolution
//! coordinate-descent optimizer.

#![warn(missing_docs)]
// Library code must not panic on bad input: failures are typed errors or
// documented invariants. Test modules are exempt; descriptive
// `.expect()` on established invariants remains allowed.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod affine;
pub mod mi_metric;
pub mod powell;
pub mod rigid;
pub mod transform;

pub use mi_metric::{mutual_information, MiConfig};
pub use affine::{register_affine, AffineRegConfig, AffineRegResult, AffineTransform};
pub use powell::{powell_minimize, PowellOptions, PowellResult};
pub use rigid::{apply_registration, register_rigid, OptimizerKind, RigidRegConfig, RigidRegResult};
pub use transform::RigidTransform;
