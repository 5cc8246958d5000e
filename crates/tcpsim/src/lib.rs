//! # tcpsim — packet-level TCP Reno endpoints
//!
//! Fig 11 of the paper studies incremental deployment: admission-
//! controlled traffic sharing a legacy drop-tail queue with TCP Reno
//! flows. This crate provides the TCP half: a [`TcpSenderBank`] of
//! long-lived (FTP-style, infinite backlog) Reno senders and a
//! [`TcpSinkBank`] of receivers generating cumulative ACKs.
//!
//! The implementation follows the classic Reno algorithms as implemented
//! in ns-2: slow start, congestion avoidance, fast retransmit on three
//! duplicate ACKs, fast recovery (window inflation, deflation on new
//! ACK), and Jacobson/Karels RTO estimation with exponential backoff and
//! go-back-N after a timeout. Windows are counted in packets, as in ns-2.
//!
//! Each flow keeps one retransmission timer in the calendar. A new ACK
//! moves the flow's deadline and takes a [`simcore::Ticket`], and the
//! timer fires at the deadline in the first such arm's place in line, so
//! runs are the same event for event as with a timer scheduled per ACK,
//! less the stale pops.

pub mod reno;

pub use reno::{TcpSenderBank, TcpSinkBank, TcpStats};
