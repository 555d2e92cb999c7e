//! # metis-routing — SDN routing substrate (RouteNet*)
//!
//! The global-system side of the Metis reproduction. The original RouteNet
//! is a GNN trained on OMNeT++ packet simulations of NSFNet; this crate
//! rebuilds the stack:
//!
//! * [`topo::Topology`] — directed-link graphs + the NSFNet topology of
//!   the paper's Figure 8,
//! * [`paths`] — BFS shortest paths and the "≤ 1 hop longer" candidate
//!   enumeration of §6.5,
//! * [`demand`] — traffic-matrix sampling (the 50-sample corpus),
//! * [`latency::LatencyModel`] — M/M/1-style queueing ground truth
//!   (substitute for the packet-level dataset; DESIGN.md §1.3),
//! * [`routenet::RouteNetModel`] — a path↔link message-passing latency
//!   predictor with twin f64/tape forwards: the f64 version serves
//!   inference and the §4.2 mask search (with a hand-derived mask
//!   adjoint), the tape version training and the search's test oracle,
//! * [`routenet_star`] — the closed-loop greedy routing optimizer.

pub mod demand;
pub mod latency;
pub mod paths;
pub mod routenet;
pub mod routenet_star;
pub mod topo;

pub use demand::{demand_corpus, generate_demands, Demand, DemandSample};
pub use latency::{LatencyModel, Routing};
pub use paths::{all_paths_within, candidate_paths, shortest_hops};
pub use routenet::{connections, CandidatePass, RouteNetModel, RoutingLinks, MP_ROUNDS};
pub use routenet_star::{candidates_for, optimize_routing, LatencyPredictor};
pub use topo::{Link, Topology};
