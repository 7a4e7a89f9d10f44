//! # tip-blade — the TIP DataBlade
//!
//! The component that "actually brings the temporal support into" the
//! DBMS (paper §3, Figure 1). Installing [`TipBlade`] into a
//! [`minidb::Database`] registers:
//!
//! * the five temporal datatypes — `Chronon`, `Span`, `Instant`,
//!   `Period`, `Element` — with text and binary I/O and comparison
//!   support;
//! * the cast network of paper §2, including implicit string conversion
//!   and the `Chronon → Instant → Period → Element` promotion chain;
//! * arithmetic and comparison operator overloads (`Chronon - Chronon =
//!   Span`, `'7'::Span * :w`, NOW-aware comparisons);
//! * ~50 routines: `start`, `first`, `length`, `union`, `intersect`,
//!   `difference`, `overlaps`, `contains`, Allen's operators, civil
//!   accessors, and more;
//! * the temporal aggregates `group_union` (coalescing) and
//!   `group_intersect`.
//!
//! Like the paper's DataBlade, nothing here touches engine internals —
//! only the public extension registries. Once installed, the types behave
//! "as if they were built into the DBMS".
//!
//! ```
//! use minidb::Database;
//! use tip_blade::TipBlade;
//!
//! let db = Database::new();
//! db.install_blade(&TipBlade).unwrap();
//! let session = db.session();
//! session.execute(
//!     "CREATE TABLE Prescription (doctor CHAR(20), patient CHAR(20), \
//!      patientDOB Chronon, drug CHAR(20), dosage INT, frequency Span, \
//!      valid Element)",
//! ).unwrap();
//! ```

mod aggs;
mod casts;
mod ops;
mod predicates;
mod routines;
pub mod types;

use minidb::catalog::Catalog;
use minidb::{Blade, DbResult};

pub use types::{
    as_chronon, as_element, as_instant, as_period, as_span, chronon_to_unix, now_chronon,
    TipChronon, TipElement, TipInstant, TipPeriod, TipSpan, TipTypes,
};

/// The TIP DataBlade. Install with
/// [`Database::install_blade`](minidb::Database::install_blade).
#[derive(Debug, Default, Clone, Copy)]
pub struct TipBlade;

impl Blade for TipBlade {
    fn name(&self) -> &str {
        "TIP"
    }

    fn version(&self) -> &str {
        env!("CARGO_PKG_VERSION")
    }

    fn register(&self, catalog: &mut Catalog) -> DbResult<()> {
        // Types first — everything else references their ids. Each def
        // captures the id the catalog is about to assign.
        let chronon = catalog.register_type(types::chronon_def(catalog.next_type_id()))?;
        let span = catalog.register_type(types::span_def(catalog.next_type_id()))?;
        let instant = catalog.register_type(types::instant_def(catalog.next_type_id()))?;
        let period = catalog.register_type(types::period_def(catalog.next_type_id()))?;
        let element = catalog.register_type(types::element_def(catalog.next_type_id()))?;
        let t = TipTypes {
            chronon,
            span,
            instant,
            period,
            element,
        };

        // Clone the text-I/O support functions for the string casts.
        let mut entries = Vec::new();
        for id in [chronon, span, instant, period, element] {
            let def = catalog.type_def(id)?;
            entries.push((
                minidb::DataType::Udt(id),
                def.parse.clone(),
                def.display.clone(),
            ));
        }
        let text = casts::TextSupport { entries };

        casts::register(catalog, t, &text)?;
        ops::register(catalog, t)?;
        routines::register(catalog, t)?;
        predicates::register(catalog, t)?;
        aggs::register(catalog, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::Database;

    #[test]
    fn blade_installs_once() {
        let db = Database::new();
        db.install_blade(&TipBlade).unwrap();
        assert!(db.install_blade(&TipBlade).is_err());
        db.with_catalog(|cat| {
            assert_eq!(cat.blades().len(), 1);
            assert_eq!(cat.blades()[0].name, "TIP");
            assert!(cat.lookup_type_name("Element").is_ok());
            assert!(cat.lookup_type_name("chronon").is_ok());
            assert!(cat.has_aggregate("group_union"));
            assert!(cat.has_function("start"));
        });
    }

    #[test]
    fn tip_types_lookup_matches_registration() {
        let db = Database::new();
        db.install_blade(&TipBlade).unwrap();
        db.with_catalog(|cat| {
            let t = TipTypes::from_catalog(cat).unwrap();
            let v = t.chronon(tip_core::Chronon::EPOCH);
            assert_eq!(cat.display_value(&v), "2000-01-01");
        });
    }
}
