//! Quickstart: build a small DSPS, submit a few join queries through the
//! SQPR planner, and inspect the resulting deployment.
//!
//! Run with: `cargo run --release --example quickstart`

use sqpr_suite::core::{PlannerConfig, PlannerError, SolveBudget, SqprPlanner};
use sqpr_suite::dsps::{Catalog, CostModel, HostId, HostSpec};

fn main() {
    if let Err(e) = run() {
        eprintln!("quickstart failed: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), PlannerError> {
    // A 4-host data centre: 100 CPU units and 100 Mbps per host, 1 Gbps
    // links, full mesh.
    let mut catalog =
        Catalog::uniform(4, HostSpec::new(100.0, 100.0), 1000.0, CostModel::default());

    // Four base streams, two hosts each sourcing two.
    let trades = catalog.add_base_stream(HostId(0), 10.0, 1);
    let quotes = catalog.add_base_stream(HostId(1), 10.0, 2);
    let news = catalog.add_base_stream(HostId(2), 10.0, 3);
    let sentiment = catalog.add_base_stream(HostId(3), 10.0, 4);

    let mut config = PlannerConfig::new(&catalog);
    config.budget = SolveBudget::nodes(100);
    let mut planner = SqprPlanner::new(catalog, config);

    // Submit three overlapping queries.
    for (name, bases) in [
        ("trades ⋈ quotes", vec![trades, quotes]),
        ("trades ⋈ quotes ⋈ news", vec![trades, quotes, news]),
        (
            "trades ⋈ quotes ⋈ sentiment",
            vec![trades, quotes, sentiment],
        ),
    ] {
        let outcome = planner.submit(&bases)?;
        println!(
            "{name}: admitted={} reused_existing={} nodes={}",
            outcome.admitted, outcome.reused_existing, outcome.nodes
        );
    }

    println!("\nDeployment after planning:");
    println!("  admitted queries: {}", planner.num_admitted());
    println!("  operator placements:");
    for &(h, o) in planner.state().placements() {
        let op = planner.catalog().operator(o);
        println!(
            "    {h} runs {o} -> stream {} (cpu {:.1})",
            op.output, op.cpu_cost
        );
    }
    println!("  inter-host flows:");
    for &(from, to, s) in planner.state().flows() {
        println!(
            "    {from} -> {to}: stream {s} ({:.2} Mbps)",
            planner.catalog().stream(s).rate
        );
    }
    assert!(planner.state().is_valid(planner.catalog()));
    println!("\nDeployment validates: every stream is causal and within resources.");
    Ok(())
}
