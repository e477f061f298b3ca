//! Fig. 9 — Monte-Carlo WL_crit under write-assist sizing (β = 2) with
//! ±5 % gate-oxide-thickness variation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tfet_bench::experiments as exp;
use tfet_sram::montecarlo::{mc_wl_crit_with, McConfig};
use tfet_sram::prelude::*;

fn bench(c: &mut Criterion) {
    println!("{}", exp::fig09(40, 2011).render());

    let params = exp::fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(2.0));
    let mut g = c.benchmark_group("fig09_mc_write");
    g.sample_size(10);
    g.bench_function("mc_wl_crit_4_samples", |b| {
        b.iter(|| {
            black_box(
                mc_wl_crit_with(&params, Some(WriteAssist::GndRaising), 4, McConfig::new(7))
                    .unwrap(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
