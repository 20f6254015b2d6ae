//! Stage 6b: the placement grid the new MBRs are legalized onto.

use mbr_liberty::Library;
use mbr_netlist::Design;
use mbr_place::PlacementGrid;

/// Derives the legalization grid from the design die and the register
/// library (row height = shortest cell, site width = GCD of cell widths).
/// This is the grid the flow legalizes — and audits — against.
pub fn infer_grid(design: &Design, lib: &Library) -> PlacementGrid {
    let mut row_height = i64::MAX;
    let mut site = 0i64;
    for (_, cell) in lib.cells() {
        row_height = row_height.min(cell.footprint_h);
        site = gcd(site, cell.footprint_w);
    }
    if row_height == i64::MAX {
        row_height = 600;
    }
    if site == 0 {
        site = 100;
    }
    PlacementGrid::new(design.die(), row_height, site)
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_works() {
        assert_eq!(gcd(0, 100), 100);
        assert_eq!(gcd(1200, 900), 300);
        assert_eq!(gcd(700, 100), 100);
    }
}
