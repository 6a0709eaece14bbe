//! Typed identifiers for hosts, streams, operators and queries.
//!
//! All ids are dense indices into the owning [`crate::catalog::Catalog`]
//! arenas; newtypes prevent cross-wiring (e.g. indexing hosts by a stream).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            #[inline]
            pub fn from_index(i: usize) -> Self {
                // Id-space exhaustion past u32::MAX is a caller-contract
                // breach with no recoverable planning answer; catalogs cap
                // out far below this.
                $name(u32::try_from(i).expect("id overflow"))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A processing host in the DSPS (paper: `h ∈ H`).
    HostId,
    "h"
);
id_type!(
    /// A base or composite data stream (paper: `s ∈ S`).
    StreamId,
    "s"
);
id_type!(
    /// A query operator (paper: `o ∈ O`).
    OperatorId,
    "o"
);
id_type!(
    /// A submitted continuous query.
    QueryId,
    "q"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_format() {
        let h = HostId::from_index(3);
        assert_eq!(h.index(), 3);
        assert_eq!(format!("{h}"), "h3");
        assert_eq!(format!("{h:?}"), "h3");
        let s = StreamId(7);
        assert_eq!(format!("{s}"), "s7");
    }

    #[test]
    fn ordering_follows_indices() {
        assert!(HostId(1) < HostId(2));
        assert!(QueryId(0) < QueryId(9));
    }
}
