//! Table 5 and Figure 3 regeneration benchmarks (swap/repair lifecycle
//! analyses outside the summary fold, which `bench_characterize` times).

use ssd_bench::{criterion_group, criterion_main, Criterion};
use ssd_bench::bench_trace;
use ssd_field_study_core::lifecycle::{repair_reentry, time_to_failure_ecdf};

fn bench_lifecycle(c: &mut Criterion) {
    let trace = bench_trace();
    let mut g = c.benchmark_group("lifecycle");
    g.sample_size(20);
    g.bench_function("tab5_repair_reentry", |b| b.iter(|| repair_reentry(trace)));
    g.bench_function("fig3_time_to_failure", |b| {
        b.iter(|| time_to_failure_ecdf(trace))
    });
    g.finish();
}

criterion_group!(benches, bench_lifecycle);
criterion_main!(benches);
