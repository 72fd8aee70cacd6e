//! DESIGN.md §6 documents every cost stage: its `CostModel` price and
//! who charges it. This test holds that table to `Stage::ALL`, row for
//! row, and `Stage::ALL` to name order (the order `CostTracker::stages`
//! and the profile print).

use linuxfp::sim::Stage;

/// The stage column of DESIGN.md's stage catalogue, in table order.
fn documented_stages() -> Vec<String> {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("DESIGN.md is readable");
    let (_, catalogue) = design
        .split_once("**Stage catalogue.**")
        .expect("DESIGN.md has a stage catalogue");
    catalogue
        .lines()
        .skip_while(|line| !line.starts_with("| stage |"))
        .skip(2) // the header and its rule
        .take_while(|line| line.starts_with('|'))
        .map(|row| {
            let cell = row.split('|').nth(1).expect("a row has a stage cell");
            cell.trim().trim_matches('`').to_owned()
        })
        .collect()
}

#[test]
fn the_design_catalogue_lists_every_stage_in_order() {
    let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(documented_stages(), names);
}

#[test]
fn stages_are_declared_in_name_order() {
    for pair in Stage::ALL.windows(2) {
        assert!(
            pair[0].name() < pair[1].name(),
            "{:?} before {:?}",
            pair[0],
            pair[1]
        );
    }
}
