//! Minimal undirected-graph substrate for the PolarFly allreduce
//! reproduction.
//!
//! Everything downstream (topology construction, spanning-tree embedding,
//! congestion accounting, the network simulator) works in terms of the
//! [`Graph`] type defined here: vertices are dense `u32` indices, edges have
//! stable dense ids, and adjacency is kept sorted for `O(log d)` membership
//! tests.
//!
//! The crate also provides the generic algorithms the paper's constructions
//! lean on: BFS/shortest paths ([`bfs`]), rooted spanning trees with
//! validation ([`tree`]), random-maximal and exact maximum independent sets
//! ([`indset`], used for the edge-disjoint Hamiltonian set search of §7.3),
//! star products of factor graphs ([`product`], the PolarStar/Slim Fly-class
//! substrate family), and a backtracking isomorphism test ([`iso`], used to
//! verify `S_q ≅ ER_q`, Theorem 6.6).

pub mod bfs;
pub mod builders;
pub mod dsu;
pub mod graph;
pub mod indset;
pub mod iso;
pub mod product;
pub mod subgraph;
pub mod tree;

pub use graph::{EdgeId, Graph, VertexId};
pub use product::{cartesian_product, shifted_product, star_product, StarProduct};
pub use subgraph::{surviving, Surviving};
pub use tree::RootedTree;
