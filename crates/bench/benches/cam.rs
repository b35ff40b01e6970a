//! Micro-benchmarks of the CAM, load queue and GPU cache-simulation
//! structures — per-access costs on the simulator's critical path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use spacea_gpu::cache::CacheSim;
use spacea_sim::cam::{Cam, CamConfig};
use spacea_sim::ldq::LoadQueue;

fn bench_cam(c: &mut Criterion) {
    let mut g = c.benchmark_group("cam");
    g.sample_size(15);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    const N: u64 = 100_000;
    g.throughput(Throughput::Elements(N));

    g.bench_function("l1_lookup_insert_mixed", |b| {
        b.iter_batched(
            || Cam::<[f64; 4]>::new(CamConfig::l1_default()),
            |mut cam| {
                for i in 0..N {
                    // ~75% re-reference locality, like a banded workload.
                    let key = if i % 4 == 0 { i } else { i / 4 };
                    if cam.lookup(key).is_none() {
                        cam.insert(key, [1.0, 2.0, 3.0, 4.0]);
                    }
                }
                cam
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("l2_lookup_insert_mixed", |b| {
        b.iter_batched(
            || Cam::<[f64; 4]>::new(CamConfig::l2_default()),
            |mut cam| {
                for i in 0..N {
                    let key = i % 10_000;
                    if cam.lookup(key).is_none() {
                        cam.insert(key, [0.0; 4]);
                    }
                }
                cam
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("ldq_push_complete", |b| {
        b.iter_batched(
            || LoadQueue::<u32>::new(512),
            |mut ldq| {
                let mut woken = Vec::new();
                for i in 0..N {
                    let key = i % 400;
                    ldq.push_forced_at(key, i as u32, i);
                    if i % 3 == 0 {
                        woken.clear();
                        ldq.complete(key, &mut woken);
                    }
                }
                ldq
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("gpu_l2_cache_sim", |b| {
        b.iter_batched(
            || CacheSim::new(3 * 1024 * 1024, 16, 32),
            |mut cache| {
                for i in 0..N {
                    cache.access((i * 2654435761) % (1 << 22));
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_cam);
criterion_main!(benches);
