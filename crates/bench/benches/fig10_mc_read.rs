//! Fig. 10 — Monte-Carlo DRNM under read-assist sizing (β = 0.6) with
//! ±5 % gate-oxide-thickness variation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tfet_bench::experiments as exp;
use tfet_sram::montecarlo::{mc_drnm_with, McConfig};
use tfet_sram::prelude::*;

fn bench(c: &mut Criterion) {
    println!("{}", exp::fig10(40, 2011).render());

    let params = exp::fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
    let mut g = c.benchmark_group("fig10_mc_read");
    g.sample_size(10);
    g.bench_function("mc_drnm_8_samples", |b| {
        b.iter(|| {
            black_box(
                mc_drnm_with(&params, Some(ReadAssist::GndLowering), 8, McConfig::new(7)).unwrap(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
