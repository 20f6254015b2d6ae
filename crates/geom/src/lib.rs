#![warn(missing_docs)]
//! Integer geometry primitives for EDA tools.
//!
//! All coordinates are expressed in *database units* (DBU, typically 1 nm) as
//! signed 64-bit integers, following the convention of physical-design
//! databases: integer coordinates make geometric predicates exact, which
//! matters for the convex-hull blocking test at the heart of the
//! placement-aware MBR candidate weighting (Section 3.2 of the DAC'17 paper).
//!
//! The crate provides:
//!
//! * [`Point`] — a 2-D integer point with Manhattan metrics,
//! * [`Rect`] — an axis-aligned rectangle (cell footprints, feasible regions,
//!   bounding boxes),
//! * [`convex_hull`] — Andrew's monotone-chain hull over integer points
//!   ([`monotone_chain`] is the allocation-free core over pre-sorted points,
//!   [`strictly_inside`] its strict containment test),
//! * [`ConvexPolygon`] — a hull with exact point-containment queries,
//! * [`BoundingBox`] — an accumulating bounding box with half-perimeter
//!   wire-length ([`BoundingBox::hpwl`]) used for net-length estimation.
//!
//! # Examples
//!
//! ```
//! use mbr_geom::{convex_hull, Point};
//!
//! let hull = convex_hull(&[
//!     Point::new(0, 0),
//!     Point::new(10, 0),
//!     Point::new(10, 10),
//!     Point::new(0, 10),
//!     Point::new(5, 5), // interior point: dropped
//! ]);
//! assert_eq!(hull.vertices().len(), 4);
//! assert!(hull.contains(Point::new(5, 5)));
//! assert!(!hull.contains_strict(Point::new(0, 5))); // boundary is not strict
//! ```

mod bbox;
mod hull;
mod point;
mod rect;

pub use bbox::{hpwl, BoundingBox};
pub use hull::{convex_hull, monotone_chain, strictly_inside, ConvexPolygon};
pub use point::Point;
pub use rect::Rect;

/// Database-unit coordinate type used throughout the workspace.
///
/// One DBU is interpreted as 1 nm by the workload generator, so a 28 nm-class
/// standard-cell row height of 0.6 µm is `600` DBU.
pub type Dbu = i64;
