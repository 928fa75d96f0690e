//! The DARIS-vs-baselines shoot-out: every `Scheduler` implementation in
//! the workspace × every workload scenario (periodic, bursty, diurnal,
//! correlated) × fleet sizes, all through the same cluster dispatcher, so
//! row differences are policy differences.
//!
//! Usage:
//!
//! ```sh
//! scheduler_comparison [--quick] [--threads N] [--fleets 1,8,64] [--markdown]
//! ```
//!
//! * `--quick`    — CI smoke mode: fleets 1 and 2 only (combine with a short
//!   `DARIS_HORIZON_MS` for sub-minute runs).
//! * `--threads`  — dispatcher worker threads per cluster run (`0` uses the
//!   machine's available parallelism; default 1). Results are byte-identical
//!   at any thread count.
//! * `--fleets`   — comma-separated fleet sizes (default `1,8,64`).
//! * `--markdown` — print the grid as the `COMPARISON.md` markdown document
//!   instead of plain tables (regenerate the committed file with
//!   `cargo run --release --bin scheduler_comparison -- --markdown > COMPARISON.md`).
//!
//! Control the per-cell simulated horizon with `DARIS_HORIZON_MS`
//! (default 1500 ms).

use daris_bench::cli::Args;
use daris_bench::comparison::{comparison_grid, comparison_markdown, comparison_tables};

const USAGE: &str = "\
usage: scheduler_comparison [--quick] [--threads N] [--fleets 1,8,64] [--markdown]
  --quick       fleets 1 and 2 only
  --threads N   dispatcher worker threads per cluster run (0 = one per core; default 1)
  --fleets LIST comma-separated fleet sizes (default 1,8,64)
  --markdown    print the grid as the COMPARISON.md document
The per-cell horizon comes from DARIS_HORIZON_MS (default 1500 ms).
";

fn main() {
    let mut quick = false;
    let mut markdown = false;
    let mut threads = 1usize;
    let mut fleets: Vec<usize> = vec![1, 8, 64];
    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--markdown" => markdown = true,
            "--threads" => threads = args.threads(),
            "--fleets" => {
                let raw: String = args.value("--fleets");
                let parsed: Result<Vec<usize>, _> =
                    raw.split(',').map(|s| s.trim().parse()).collect();
                fleets = parsed.unwrap_or_else(|_| {
                    args.fail(format!("--fleets must be comma-separated numbers, got {raw:?}"))
                });
            }
            other => args.fail(format!("unknown argument {other:?}")),
        }
    }
    if quick {
        fleets = vec![1, 2];
    }

    let horizon = daris_bench::horizon();
    let cells = comparison_grid(&fleets, threads, horizon);
    if markdown {
        print!("{}", comparison_markdown(&cells, horizon));
    } else {
        for table in comparison_tables(&cells) {
            println!("{table}");
        }
    }
}
