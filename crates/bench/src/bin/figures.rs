//! Reproduces the paper's evaluation figures (§V, Figs. 4–7), one table
//! per figure. Usage: `figures [<id>|all] [scale]` — `<id>` is one of
//! `4a` … `7c` (default `all`); `scale` (1.0 = paper size) defaults to
//! each figure's own laptop-friendly fraction.
use std::process::ExitCode;

use sqpr_bench::cluster::{cluster_distributions, fig7a, print_cdfs, ClusterDistributions};
use sqpr_bench::figures::{fig4a, fig4b, fig4c, fig5a, fig5b, fig5c, fig6a, fig6b};
use sqpr_bench::harness::{print_figure, scale_arg, Series};
use sqpr_dsps::Cdf;

enum Plot {
    /// One column per series over a swept x axis.
    Lines(fn(f64) -> Vec<Series>),
    /// CDF of one per-host measurement taken by the execution engine after
    /// deploying 50 and 150 (scaled) input queries with SQPR and SODA.
    ClusterCdf(fn(ClusterDistributions) -> Cdf),
}

struct Figure {
    id: &'static str,
    title: &'static str,
    axis: &'static str,
    default_scale: f64,
    /// The paper-size parameters `scale` multiplies.
    paper: &'static str,
    plot: Plot,
}

#[rustfmt::skip]
const FIGURES: &[Figure] = &[
    Figure { id: "4a", title: "Fig 4(a): planning efficiency", axis: "input queries", default_scale: 0.15,
             paper: "50 hosts, 500 base streams, 500 input queries", plot: Plot::Lines(fig4a) },
    Figure { id: "4b", title: "Fig 4(b): efficiency with batching", axis: "input queries", default_scale: 0.15,
             paper: "batches of 2-5 queries planned jointly", plot: Plot::Lines(fig4b) },
    Figure { id: "4c", title: "Fig 4(c): efficiency with overlap", axis: "zipf factor", default_scale: 0.1,
             paper: "100/500/1000 base streams, Zipf 0-2", plot: Plot::Lines(fig4c) },
    Figure { id: "5a", title: "Fig 5(a): scalability in hosts", axis: "hosts", default_scale: 0.1,
             paper: "25/50/100/150 hosts", plot: Plot::Lines(fig5a) },
    Figure { id: "5b", title: "Fig 5(b): scalability in resources", axis: "CPU cores", default_scale: 0.1,
             paper: "1/2/4/8 cores, 10 Gbps", plot: Plot::Lines(fig5b) },
    Figure { id: "5c", title: "Fig 5(c): scalability in query complexity", axis: "join arity", default_scale: 0.1,
             paper: "2-w..5-w joins", plot: Plot::Lines(fig5c) },
    Figure { id: "6a", title: "Fig 6(a): planning time vs hosts (ms)", axis: "hosts", default_scale: 0.1,
             paper: "25/50/100/150 hosts at 75-95% utilisation, 100 s cap", plot: Plot::Lines(fig6a) },
    Figure { id: "6b", title: "Fig 6(b): planning time vs query type (ms)", axis: "join arity", default_scale: 0.1,
             paper: "2-w..5-w joins at 50 hosts", plot: Plot::Lines(fig6b) },
    Figure { id: "7a", title: "Fig 7(a): cluster planning efficiency", axis: "input queries", default_scale: 0.5,
             paper: "15 hosts, 300 base streams, waves of 50", plot: Plot::Lines(fig7a) },
    Figure { id: "7b", title: "Fig 7(b): CPU utilisation distribution", axis: "CPU %", default_scale: 0.5,
             paper: "50 & 150 input queries", plot: Plot::ClusterCdf(|d| d.cpu_percent) },
    Figure { id: "7c", title: "Fig 7(c): network usage distribution", axis: "Mbps (in+out)", default_scale: 0.5,
             paper: "50 & 150 input queries", plot: Plot::ClusterCdf(|d| d.net_usage) },
];

fn print(fig: &Figure) {
    let scale = scale_arg(2, fig.default_scale);
    println!("\n{} @ scale {scale} (paper: {})", fig.title, fig.paper);
    match fig.plot {
        Plot::Lines(series) => print_figure(fig.title, fig.axis, &series(scale)),
        Plot::ClusterCdf(pick) => {
            let mut cdfs = Vec::new();
            for n in [(50.0 * scale) as usize, (150.0 * scale) as usize] {
                for d in cluster_distributions(scale, n.max(5)) {
                    cdfs.push((d.label.clone(), pick(d)));
                }
            }
            print_cdfs(fig.title, fig.axis, &cdfs);
        }
    }
}

fn main() -> ExitCode {
    let id = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if id == "all" {
        FIGURES.iter().for_each(print);
        return ExitCode::SUCCESS;
    }
    match FIGURES.iter().find(|f| f.id == id) {
        Some(fig) => {
            print(fig);
            ExitCode::SUCCESS
        }
        None => {
            let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
            eprintln!("unknown figure `{id}`; expected `all` or one of {ids:?}");
            ExitCode::from(2)
        }
    }
}
