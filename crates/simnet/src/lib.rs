//! # simnet — the network substrate
//!
//! Models the paper's testbed network: client NUCs wired to edge server E1
//! (≤1 ms RTT), E1 to E2 over 2–4 LAN hops (≈3 ms RTT), and an AWS cloud
//! machine at ≈15 ms RTT — plus the `tc netem` conditions from appendix
//! A.1.1 (LTE / 5G / WiFi-6 loss and latency with 10 ms delay oscillation
//! at 20 % probability).
//!
//! The model is deliberately packet-level-UDP-shaped: datagrams larger
//! than one MTU fragment, loss of any fragment loses the datagram, there
//! is no retransmission, and deliveries may reorder under jitter — the
//! semantics that produce the frame-drop behaviour the paper measures.
//!
//! `simnet` is a *pure* model: [`UdpNet::send`] maps (src, dst, size) to a
//! [`Delivery`] outcome using the caller's RNG stream. The pipeline layer
//! turns outcomes into simulator events; this keeps the network model
//! trivially unit-testable.

pub mod gilbert;
pub mod link;
pub mod netem;
pub mod sites;
pub mod topology;
pub mod udp;

pub use gilbert::GilbertElliott;
pub use link::{Delivery, Link};
pub use netem::NetemProfile;
pub use sites::SiteMap;
pub use topology::{NodeId, Testbed, Topology};
pub use udp::UdpNet;
