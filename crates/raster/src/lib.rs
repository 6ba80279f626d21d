//! Triangle setup and scanline rasterization for the `sortmid` simulator.
//!
//! The texture-mapping engine of the paper draws a triangle by computing its
//! edge slopes (the *setup*, which costs 25 cycles) and then scanning it
//! pixel by pixel, producing one fragment per covered pixel. Each fragment
//! reads 8 texels (trilinear filtering). This crate performs that scan once
//! per scene and materialises the result as a [`stream::FragmentStream`]:
//! an ordered list of triangles, each with its covered fragments and their 8
//! precomputed texel addresses.
//!
//! The machine simulator replays the stream under any screen distribution —
//! the fragments a triangle covers do not depend on which processor owns
//! which pixel, only their *assignment* does, which is what makes sweeping
//! dozens of machine configurations over one scene cheap.
//!
//! * [`setup::TriangleSetup`] — edge functions, the top-left fill rule and
//!   incremental scanline stepping.
//! * [`fragment::Fragment`] / [`fragment::TriangleRecord`] — the compact
//!   stream representation.
//! * [`stream::rasterize`] — scene → [`stream::FragmentStream`].
//!
//! # Examples
//!
//! ```
//! use sortmid_geom::{Rect, Triangle, Vertex};
//! use sortmid_texture::{TextureDesc, TextureRegistry};
//! use sortmid_raster::rasterize;
//!
//! let mut reg = TextureRegistry::new();
//! let tex = reg.register(TextureDesc::new(64, 64)?)?;
//! let tri = Triangle::new(
//!     tex.0,
//!     [
//!         Vertex::new(0.0, 0.0, 0.0, 0.0),
//!         Vertex::new(16.0, 0.0, 16.0, 0.0),
//!         Vertex::new(0.0, 16.0, 0.0, 16.0),
//!     ],
//! );
//! let stream = rasterize(&[tri], &reg, Rect::of_size(64, 64));
//! assert!(stream.fragment_count() > 0);
//! # Ok::<(), sortmid_texture::TextureError>(())
//! ```

pub mod fragment;
pub mod io;
pub mod setup;
pub mod stream;

pub use fragment::{Fragment, TriangleRecord};
pub use io::{read_stream, write_stream, StreamIoError};
pub use setup::TriangleSetup;
pub use stream::{rasterize, FragmentStream, StreamPartsError};
