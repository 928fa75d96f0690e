//! Runs every experiment of the paper and prints the full paper-vs-measured
//! report (the source of `EXPERIMENTS.md`), plus the cluster-layer fleet
//! experiments.
//!
//! Independent experiments run concurrently on scoped threads; reports are
//! collected per section and printed in a fixed order, so the output is
//! deterministic regardless of scheduling.
//!
//! `--only <section>` runs one section and prints exactly what the full run
//! prints for it, e.g. `reproduce_all --only fig4_resnet18`. An unknown name
//! exits non-zero and lists the valid names.
//!
//! Control the per-configuration simulated horizon with `DARIS_HORIZON_MS`
//! (default 1500 ms).

use std::process::ExitCode;

type Section = Box<dyn FnOnce() -> String + Send>;

/// The report sections, in print order, each with its `--only` name. Each
/// closure regenerates one experiment and formats it as a string; they
/// share no mutable state, so they can run on independent threads.
fn sections() -> Vec<(&'static str, Section)> {
    fn one(table: impl FnOnce() -> daris_metrics::report::Table + Send + 'static) -> Section {
        Box::new(move || format!("{}\n", table()))
    }
    fn many(
        tables: impl FnOnce() -> Vec<daris_metrics::report::Table> + Send + 'static,
    ) -> Section {
        Box::new(move || {
            tables().into_iter().map(|t| format!("{t}\n")).collect::<Vec<_>>().concat()
        })
    }
    vec![
        ("table1_batching", one(daris_bench::table1)),
        ("table2_tasksets", one(daris_bench::table2)),
        ("fig4_resnet18", one(daris_bench::figure4_resnet18)),
        ("fig5_unet", one(daris_bench::figure5_unet)),
        ("fig6_inception", one(daris_bench::figure6_inception)),
        ("fig7_mixed", one(daris_bench::figure7_mixed)),
        ("fig8_ablation", one(daris_bench::figure8_ablation)),
        ("fig9_mret", many(daris_bench::figure9_mret)),
        ("fig10_batching", many(daris_bench::figure10_batching)),
        ("fig11_overload", one(daris_bench::figure11_overload)),
        ("gslice_comparison", one(daris_bench::gslice_comparison)),
        ("cluster_scaling", one(daris_bench::cluster_scaling)),
        ("cluster_fleets", many(daris_bench::cluster_fleets)),
        // The scheduler shoot-out (trimmed to fleets 1 and 8 here; the full
        // 1/8/64 grid is the `scheduler_comparison` binary / COMPARISON.md).
        (
            "comparison",
            many(|| {
                daris_bench::comparison::comparison_tables(
                    &daris_bench::comparison::comparison_grid(&[1, 8], 1, daris_bench::horizon()),
                )
            }),
        ),
    ]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sections = sections();
    match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        [] => {}
        ["--only", name] => {
            let Some(index) = sections.iter().position(|(n, _)| n == name) else {
                let names: Vec<&str> = sections.iter().map(|(n, _)| *n).collect();
                eprintln!("reproduce_all: unknown section {name:?}; valid: {}", names.join(", "));
                return ExitCode::FAILURE;
            };
            print!("{}", (sections.swap_remove(index).1)());
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("usage: reproduce_all [--only <section>]");
            return ExitCode::FAILURE;
        }
    }

    println!("# DARIS reproduction — measured results\n");
    println!(
        "Simulated horizon per configuration: {:.1} s\n",
        daris_bench::horizon().as_secs_f64()
    );
    #[allow(clippy::disallowed_methods)] // independent sections, printed in a fixed order
    let reports: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = sections.into_iter().map(|(_, f)| scope.spawn(f)).collect();
        handles.into_iter().map(|h| h.join().expect("experiment section panicked")).collect()
    });
    for report in reports {
        print!("{report}");
    }
    ExitCode::SUCCESS
}
