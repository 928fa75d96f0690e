//! Fleet-scaling experiments.
//!
//! Prints the classic fixed-workload 1→8 homogeneous sweep and fleet
//! comparisons, then the wide 1→64 sweeps (homogeneous RTX 2080 Ti and the
//! heterogeneous a100/h100/orin mix) with the workload scaled per fleet size.
//!
//! Usage:
//!
//! ```sh
//! cluster_scaling [--threads N] [--max-devices M] [--racks R]
//! ```
//!
//! * `--threads`     — dispatcher worker threads for the wide sweeps (`0`
//!   uses the machine's available parallelism; default 1). Scheduling
//!   results are byte-identical at any thread count — threads only change
//!   wall-clock.
//! * `--max-devices` — cap the wide sweeps (default 64).
//! * `--racks`       — partition the wide-sweep fleets into this many racks
//!   (default 1 = flat dispatch; clamped per fleet to the device count).
//!   Rack-local boundary work is what keeps the 256–1024-device sweeps
//!   affordable.
//!
//! Control the per-configuration simulated horizon with `DARIS_HORIZON_MS`
//! (default 1500 ms).

use daris_bench::cli::Args;

const USAGE: &str = "\
usage: cluster_scaling [--threads N] [--max-devices M] [--racks R]
  --threads N      dispatcher worker threads for the wide sweeps (0 = one per core; default 1)
  --max-devices M  cap the wide sweeps (default 64)
  --racks R        racks per wide-sweep fleet (default 1 = flat dispatch)
The per-configuration horizon comes from DARIS_HORIZON_MS (default 1500 ms).
";

fn main() {
    let mut threads = 1usize;
    let mut max_devices = 64usize;
    let mut racks = 1usize;
    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--threads" => threads = args.threads(),
            "--max-devices" => max_devices = args.value("--max-devices"),
            "--racks" => racks = args.value("--racks"),
            other => args.fail(format!("unknown argument {other:?}")),
        }
    }

    println!("{}", daris_bench::cluster_scaling());
    for table in daris_bench::cluster_fleets() {
        println!("{table}");
    }
    for table in daris_bench::cluster_scaling_wide(max_devices, threads, racks) {
        println!("{table}");
    }
}
