//! Figure 1 regeneration benchmark, and the summary fold behind Tables 1,
//! 3, 4 and Figures 4–5 (trace characterization).

use ssd_bench::{criterion_group, criterion_main, Criterion};
use ssd_bench::bench_trace;
use ssd_field_study_core::characterize::trace_coverage;
use ssd_field_study_core::streaming::summarize;

fn bench_fig1(c: &mut Criterion) {
    let trace = bench_trace();
    c.benchmark_group("fig1_trace_coverage")
        .sample_size(20)
        .bench_function("max_age_and_data_count_cdfs", |b| {
            b.iter(|| trace_coverage(trace))
        });
}

fn bench_summary_fold(c: &mut Criterion) {
    let trace = bench_trace();
    c.benchmark_group("summary_fold")
        .sample_size(20)
        .bench_function("tab1_tab3_tab4_fig4_fig5", |b| b.iter(|| summarize(trace)));
}

criterion_group!(benches, bench_fig1, bench_summary_fold);
criterion_main!(benches);
