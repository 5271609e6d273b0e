//! # brainshift-imaging
//!
//! Volumetric image substrate for the SC 2000 brain-deformation pipeline
//! (Warfield et al.): dense 3-D volumes, a synthetic intraoperative-MRI
//! brain phantom (the stand-in for patient data), Euclidean/saturated
//! distance transforms, separable filtering, trilinear resampling,
//! displacement fields, and similarity metrics including the mutual
//! information used for rigid registration.

#![warn(missing_docs)]
// Library code must not panic on bad input: failures are typed errors or
// documented invariants. Test modules are exempt; descriptive
// `.expect()` on established invariants remains allowed.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod dtransform;
pub mod field;
pub mod filter;
pub mod geom;
pub mod interp;
pub mod io;
pub mod labels;
pub mod normalize;
pub mod phantom;
pub mod similarity;
pub mod volume;

pub use field::DisplacementField;
pub use geom::{Mat3, Vec3};
pub use volume::{Dims, Spacing, Volume};
