//! A generated fabric's shape follows from its size: whatever the host
//! count, the defaults describe a fabric `build_fabric` accepts, and
//! `TopoOptions::sized` is those defaults at that count.

// Tests and examples may unwrap: a failed assertion here is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netfi::nftape::TopoOptions;

#[test]
fn a_fabric_shape_follows_from_its_size() {
    for hosts in [10, 48, 49, 448, 449, 1000] {
        let options = TopoOptions {
            hosts,
            ..TopoOptions::default()
        };
        assert!(options.leaves() <= 64, "{hosts} hosts: {} leaves", options.leaves());
        assert!(options.radix() <= 64, "{hosts} hosts: radix {}", options.radix());
        assert_eq!(options, TopoOptions::sized(hosts), "{hosts} hosts");
    }
}
