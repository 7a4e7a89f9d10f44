//! # tip — Temporal Information Processor (facade crate)
//!
//! A from-scratch Rust reproduction of **TIP: A Temporal Extension to
//! Informix** (Yang, Ying, Widom — SIGMOD 2000): temporal datatypes and
//! routines installed *inside* an extensible relational DBMS, plus the
//! client libraries and the TIP Browser around it.
//!
//! This facade re-exports the whole workspace:
//!
//! | module | crate | role (paper Figure 1) |
//! |---|---|---|
//! | [`core`] | `tip-core` | the TIP C library: Chronon/Span/Instant/Period/Element |
//! | [`db`] | `minidb` | the extensible DBMS standing in for Informix |
//! | [`blade`] | `tip-blade` | the TIP DataBlade |
//! | [`client`] | `tip-client` | the C/Java client libraries + JDBC type mapping |
//! | [`layered`] | `tip-layered` | the TimeDB-style layered baseline (paper §5) |
//! | [`browser`] | `tip-browser` | the TIP Browser (paper §4) |
//! | [`workload`] | `tip-workload` | the synthetic medical database |
//!
//! ## Quickstart
//!
//! ```
//! use tip::client::Connection;
//! use tip::core::Chronon;
//!
//! let conn = Connection::open_tip_enabled();
//! conn.set_now(Some(Chronon::from_ymd(1999, 12, 1).unwrap()));
//! conn.execute(
//!     "CREATE TABLE Prescription (patient CHAR(20), drug CHAR(20), valid Element)",
//!     &[],
//! ).unwrap();
//! conn.execute(
//!     "INSERT INTO Prescription VALUES ('Mr.Showbiz', 'Diabeta', '{[1999-10-01, NOW]}')",
//!     &[],
//! ).unwrap();
//! let mut rows = conn.query(
//!     "SELECT patient, length(valid) FROM Prescription WHERE overlaps(valid, \
//!      '{[1999-11-01, 1999-11-30]}'::Element)",
//!     &[],
//! ).unwrap();
//! assert!(rows.next());
//! assert_eq!(rows.get_string(0).unwrap(), "Mr.Showbiz");
//! ```

pub use minidb as db;
pub use tip_blade as blade;
pub use tip_browser as browser;
pub use tip_client as client;
pub use tip_core as core;
pub use tip_layered as layered;
pub use tip_workload as workload;

/// README.md's code blocks, compiled and run by `cargo test` as doctests
/// so the examples cannot drift from the API.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
