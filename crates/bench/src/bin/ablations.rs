//! Runs every ablation in `sqpr_bench::ablations`: reuse, relaying, problem
//! reduction, IV.9 replanning, warm start, acyclicity mode, and the λ3/λ4
//! balance sweep (see `crates/bench/README.md`).
//! Usage: `ablations [scale]`.
use sqpr_bench::ablations::*;
use sqpr_bench::harness::{print_figure, scale_arg};

fn main() {
    let scale = scale_arg(1, 0.1);
    println!("Ablations @ scale {scale}");
    print_figure("Ablation: reuse (1=on)", "reuse", &ablation_reuse(scale));
    print_figure(
        "Ablation: relaying (1=all)",
        "relays",
        &ablation_relay(scale),
    );
    print_figure(
        "Ablation: reduction (1=on)",
        "reduction",
        &ablation_reduction(scale),
    );
    print_figure(
        "Ablation: replanning (1=on)",
        "replan",
        &ablation_replan(scale),
    );
    print_figure(
        "Ablation: warm start (1=on)",
        "warmstart",
        &ablation_warmstart(scale),
    );
    print_figure(
        "Ablation: acyclicity (0=lazy, 1=III.7)",
        "mode",
        &ablation_acyclicity(scale),
    );
    print_figure(
        "Ablation: balance mix (0=min-resource, 1=balance)",
        "mix",
        &ablation_weights(scale),
    );
}
