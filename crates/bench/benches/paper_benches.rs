//! Criterion benchmarks covering every table/figure of the paper: each bench
//! runs the corresponding experiment at a short simulated horizon so that
//! `cargo bench` exercises the full reproduction pipeline end to end. The
//! full-length numbers (the ones recorded in `EXPERIMENTS.md`) come from the
//! `reproduce_all` binary.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use daris_bench::{run_daris_until, str_partitions};
use daris_core::{AblationFlags, DarisConfig, GpuPartition, RunSpec, Scheduler};
use daris_gpu::SimTime;
use daris_models::{DnnKind, ModelProfile};
use daris_workload::{RatioScenario, TaskSet};

/// Short horizon for benchmark iterations.
fn bench_horizon() -> SimTime {
    SimTime::from_millis(120)
}

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("table1_batching_sweep", |b| {
        b.iter(|| {
            for kind in DnnKind::all() {
                let profile = ModelProfile::calibrated(kind);
                std::hint::black_box(profile.best_batched_jps());
            }
        })
    });
    group.finish();
}

fn bench_fig4_to_6_tasksets(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_5_6_tasksets");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for kind in DnnKind::task_set_kinds() {
        let taskset = TaskSet::table2(kind);
        group.bench_function(format!("{kind}_mps_6x1_os6"), |b| {
            b.iter(|| {
                run_daris_until(
                    &taskset,
                    DarisConfig::new(GpuPartition::mps(6, 6.0)),
                    bench_horizon(),
                )
            })
        });
        group.bench_function(format!("{kind}_str_1x6"), |b| {
            b.iter(|| {
                run_daris_until(&taskset, DarisConfig::new(str_partitions()[2]), bench_horizon())
            })
        });
    }
    group.finish();
}

fn bench_fig7_mixed(c: &mut Criterion) {
    let taskset = TaskSet::mixed();
    let mut group = c.benchmark_group("fig7_mixed");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("mps_6x1_os6", |b| {
        b.iter(|| {
            run_daris_until(&taskset, DarisConfig::new(GpuPartition::mps(6, 6.0)), bench_horizon())
        })
    });
    group.finish();
}

fn bench_fig8_ablations(c: &mut Criterion) {
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let mut group = c.benchmark_group("fig8_ablation");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for (name, flags) in AblationFlags::figure8_scenarios() {
        let label = name.replace(' ', "_").to_lowercase();
        group.bench_function(label, |b| {
            b.iter(|| {
                let config = DarisConfig::new(GpuPartition::mps(6, 6.0)).with_ablation(flags);
                run_daris_until(&taskset, config, bench_horizon())
            })
        });
    }
    group.finish();
}

fn bench_fig9_mret_trace(c: &mut Criterion) {
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    let mut group = c.benchmark_group("fig9_mret");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("trace_6x1_os6", |b| {
        b.iter(|| {
            let config = DarisConfig::new(GpuPartition::mps(6, 6.0)).with_mret_trace();
            run_daris_until(&taskset, config, bench_horizon())
        })
    });
    group.finish();
}

fn bench_fig10_batched(c: &mut Criterion) {
    let taskset = TaskSet::table2(DnnKind::InceptionV3).with_paper_batch_sizes();
    let mut group = c.benchmark_group("fig10_batched");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("inception_batched_mps_6x1_os6", |b| {
        b.iter(|| {
            run_daris_until(&taskset, DarisConfig::new(GpuPartition::mps(6, 6.0)), bench_horizon())
        })
    });
    group.finish();
}

fn bench_fig11_overload(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_overload");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let taskset = TaskSet::with_ratio(DnnKind::ResNet18, RatioScenario::Overload, 0.75);
    group.bench_function("resnet18_hp75_overload_hpa", |b| {
        b.iter(|| {
            let config = DarisConfig::new(GpuPartition::mps(6, 6.0)).with_hp_admission();
            run_daris_until(&taskset, config, bench_horizon())
        })
    });
    group.finish();
}

fn bench_gslice_comparison(c: &mut Criterion) {
    let taskset = TaskSet::resnet50_comparison();
    let mut group = c.benchmark_group("sec6b_gslice");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("daris_resnet50_mps_6x1_os6", |b| {
        b.iter(|| {
            run_daris_until(&taskset, DarisConfig::new(GpuPartition::mps(6, 6.0)), bench_horizon())
        })
    });
    group.bench_function("gslice_resnet50", |b| {
        b.iter(|| {
            let mut gslice = daris_baselines::GsliceServer::new(2)
                .scheduler(&taskset)
                .expect("gslice baseline builds");
            gslice.run(&RunSpec::periodic().until(bench_horizon())).expect("gslice baseline runs")
        })
    });
    group.finish();
}

criterion_group!(
    paper,
    bench_table1,
    bench_fig4_to_6_tasksets,
    bench_fig7_mixed,
    bench_fig8_ablations,
    bench_fig9_mret_trace,
    bench_fig10_batched,
    bench_fig11_overload,
    bench_gslice_comparison
);
criterion_main!(paper);
