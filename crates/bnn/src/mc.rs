//! The deterministic parallel harness: ordered fan-out over
//! `std::thread::scope` workers with fork-per-unit ε streams.
//!
//! Three layers, each built on the one below:
//!
//! - [`parallel_ordered_tasks`] — run `units` closures across workers and
//!   return their results **in unit order**, independent of scheduling.
//! - [`parallel_fork_map`] — the same, with unit `u` handed the forked
//!   substream `eps_src.fork(u)` (the [`StreamFork`] seam).
//! - [`parallel_mc_reduce`] — fork-per-sample Monte Carlo with an
//!   order-deterministic matrix reduction.
//!
//! Both the float BNN (`Bnn::predict_proba_mc_parallel`, the training
//! engine in [`crate::Bnn::train_batch_mc`]) and the fixed-point datapath
//! (`vibnn_hw`'s parallel inference) run through these helpers, so the
//! bit-identity contract — thread count never changes the result — lives
//! in exactly one place.

use vibnn_grng::StreamFork;
use vibnn_nn::{Matrix, LANES};

use crate::threads::available_cores;
use crate::vibnn_threads;

/// Fixed chunk width (in elements) for the parallel step-tail passes
/// (σ/σ′ precompute, KL gradients, Adam): flat tensors are partitioned at
/// multiples of `TAIL_CHUNK` — a function of the tensor shape only, never
/// of the thread count — and any per-chunk partial sums are folded in
/// ascending chunk order, so tail results are bit-identical at every
/// thread count. A multiple of both [`LANES`] and the `Σ ln σ` 16-element
/// grouping so chunk boundaries never split a lane strip or an ln group.
pub(crate) const TAIL_CHUNK: usize = 16_384;

/// The worker count the harnesses actually use for `units` tasks:
/// `requested` (0 ⇒ [`vibnn_threads`]) capped at `units` and at the
/// machine's available parallelism. More workers than units only adds
/// idle threads, and more than cores only adds context switches; by the
/// determinism contract neither can change the result.
pub(crate) fn effective_threads(requested: usize, units: usize) -> usize {
    let requested = if requested == 0 {
        vibnn_threads()
    } else {
        requested
    };
    requested.min(units).min(available_cores()).max(1)
}

/// Folds `f` over a sequence of fixed-boundary work items (normally
/// [`TAIL_CHUNK`]-element tensor chunks) across `threads` scoped workers,
/// returning the per-item partials summed in **ascending item order**.
///
/// The mutable-view sibling of [`parallel_ordered_tasks`] for the step
/// tail: each item owns disjoint `&mut` tensor chunks, `f` mutates them
/// in place and returns an `f64` partial (0.0 when the pass has no
/// reduction). Because item boundaries are fixed by the caller and the
/// partial fold order is ascending, the result is independent of the
/// thread count. `threads <= 1` runs inline without collecting or
/// spawning — the training engine's allocation-free steady-state path.
pub(crate) fn chunked_fold<T, I, F>(threads: usize, items: I, f: F) -> f64
where
    T: Send,
    I: Iterator<Item = T>,
    F: Fn(&mut T) -> f64 + Sync,
{
    if threads <= 1 {
        let mut acc = 0.0f64;
        for mut item in items {
            acc += f(&mut item);
        }
        return acc;
    }
    let mut collected: Vec<T> = items.collect();
    let n = collected.len();
    let threads = effective_threads(threads, n);
    if threads <= 1 {
        let mut acc = 0.0f64;
        for item in &mut collected {
            acc += f(item);
        }
        return acc;
    }
    let chunk = n.div_ceil(threads);
    let mut partials = vec![0.0f64; n];
    std::thread::scope(|scope| {
        for (group, pgroup) in collected.chunks_mut(chunk).zip(partials.chunks_mut(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (item, p) in group.iter_mut().zip(pgroup.iter_mut()) {
                    *p = f(item);
                }
            });
        }
    });
    // Same ascending fold as the inline path: 0.0 + p₀ + p₁ + …
    let mut acc = 0.0f64;
    for p in partials {
        acc += p;
    }
    acc
}

/// [`parallel_ordered_tasks`] over caller-owned slots and worker
/// workspaces: unit `u` mutates `slots[u]` in place instead of returning a
/// value, and each worker borrows one entry of `workspaces` instead of
/// building a fresh `W::default()`.
///
/// This is the training engine's pooled variant — with warm slots and
/// workspaces a steady-state step performs no allocation at
/// `threads == 1`, and the same unit→slot assignment keeps every
/// order-sensitive downstream reduction schedule-independent.
///
/// # Panics
///
/// Panics if `workspaces` holds fewer entries than the effective worker
/// count (see [`effective_threads`]).
pub(crate) fn parallel_ordered_mut<S, W, F>(
    slots: &mut [S],
    threads: usize,
    workspaces: &mut [W],
    f: F,
) where
    S: Send,
    W: Send,
    F: Fn(usize, &mut S, &mut W) + Sync,
{
    if slots.is_empty() {
        return;
    }
    let threads = effective_threads(threads, slots.len());
    assert!(
        workspaces.len() >= threads,
        "need {threads} workspaces, have {}",
        workspaces.len()
    );
    if threads == 1 {
        let ws = &mut workspaces[0];
        for (u, slot) in slots.iter_mut().enumerate() {
            f(u, slot, ws);
        }
    } else {
        let chunk = slots.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for ((t, group), ws) in slots
                .chunks_mut(chunk)
                .enumerate()
                .zip(workspaces.iter_mut())
            {
                let f = &f;
                scope.spawn(move || {
                    for (off, slot) in group.iter_mut().enumerate() {
                        f(t * chunk + off, slot, ws);
                    }
                });
            }
        });
    }
}

/// Runs `units` independent tasks across `threads` `std::thread::scope`
/// workers and returns the per-unit results in ascending unit order.
///
/// Units are split into contiguous chunks, one per worker; each worker
/// owns one `W::default()` of reusable scratch state for its whole chunk.
/// Because every unit writes its own slot and the returned `Vec` is in
/// unit order, any *order-sensitive* reduction the caller performs is
/// independent of how units were scheduled — the foundation of the
/// bit-identical-at-any-thread-count contract. `threads == 0` resolves
/// through [`vibnn_threads`]; `threads == 1` runs inline without spawning.
///
/// The pool is capped at `units` and at the machine's available
/// parallelism: neither an idle worker nor an oversubscribed core could
/// change the result.
pub fn parallel_ordered_tasks<W, T, F>(units: usize, threads: usize, f: F) -> Vec<T>
where
    W: Default,
    T: Send,
    F: Fn(usize, &mut W) -> T + Sync,
{
    if units == 0 {
        return Vec::new();
    }
    let threads = effective_threads(threads, units);
    let mut slots: Vec<Option<T>> = (0..units).map(|_| None).collect();
    if threads == 1 {
        let mut worker_state = W::default();
        for (u, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(u, &mut worker_state));
        }
    } else {
        let chunk = units.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, chunk_slots) in slots.chunks_mut(chunk).enumerate() {
                let base = t * chunk;
                let f = &f;
                scope.spawn(move || {
                    let mut worker_state = W::default();
                    for (off, slot) in chunk_slots.iter_mut().enumerate() {
                        *slot = Some(f(base + off, &mut worker_state));
                    }
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|s| s.expect("worker filled every slot"))
        .collect()
}

/// [`parallel_ordered_tasks`] where unit `u` draws its ε from
/// `eps_src.fork(u)` — never from a shared stream — so each unit's random
/// draws are independent of scheduling.
pub fn parallel_fork_map<S, W, T, F>(units: usize, threads: usize, eps_src: &S, f: F) -> Vec<T>
where
    S: StreamFork + Sync,
    W: Default,
    T: Send,
    F: Fn(usize, &mut S, &mut W) -> T + Sync,
{
    parallel_ordered_tasks(units, threads, |u, worker_state: &mut W| {
        let mut src = eps_src.fork(u as u64);
        f(u, &mut src, worker_state)
    })
}

/// Runs `samples` Monte Carlo draws of `sample_fn` across `threads`
/// `std::thread::scope` workers and averages the resulting matrices.
///
/// The contract that makes results **bit-identical for every thread
/// count**:
///
/// - sample `s` always draws its ε from `eps_src.fork(s)`, never from a
///   shared stream, so its value is independent of scheduling;
/// - the per-sample outputs are accumulated in ascending sample order
///   after all workers finish, so the float reduction order is fixed.
///
/// `threads == 0` resolves through [`vibnn_threads`] (the `VIBNN_THREADS`
/// environment knob). Each worker gets one `W::default()` as reusable
/// per-worker state (scratch buffers; use `()` if none is needed).
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn parallel_mc_reduce<S, W, F>(
    samples: usize,
    threads: usize,
    eps_src: &S,
    sample_fn: F,
) -> Matrix
where
    S: StreamFork + Sync,
    W: Default,
    F: Fn(&mut S, &mut W) -> Matrix + Sync,
{
    assert!(samples > 0, "need at least one Monte Carlo sample");
    let per_sample = parallel_fork_map(samples, threads, eps_src, |_, src, worker: &mut W| {
        sample_fn(src, worker)
    });
    reduce_mean(&per_sample)
}

/// Domain tag separating serving-replica ε substreams from the Monte
/// Carlo sample ids (`fork(0..samples)`) the inference engines consume.
const REPLICA_STREAM: u64 = 0x5EED_C105_7E12;

/// Derives the dispatcher ε source for one serving replica from a shared
/// cluster source.
///
/// Every replica receives the **same** substream (an independently owned
/// generator instance of an identical stream), deliberately *not* one
/// keyed by replica id: a replica's result for a feature row depends only
/// on the row, its parameters, and its ε source, so replicas loaded from
/// the same checkpoint become interchangeable — any of them can serve any
/// request with bit-identical output, which is what lets a cluster route
/// (and spill) requests freely while staying bit-identical to a single
/// engine. Per-replica-id derivation would silently tie results to the
/// router's placement decisions and break that contract.
///
/// The substream is forked under a dedicated domain tag so it can never
/// collide with the per-sample forks (`fork(s)` for `s < mc_samples`)
/// the serving engines draw from.
pub fn replica_source<S: StreamFork>(cluster_eps: &S) -> S {
    cluster_eps.fork(REPLICA_STREAM)
}

/// The engine's order-deterministic mean reduction, following the
/// fixed-lane accumulation contract ([`vibnn_nn::LANES`]): draw `k`
/// belongs to lane `k % LANES`, each lane folds its draws in ascending
/// `k`, and the lane totals are combined in ascending lane order before
/// scaling by `1/n`.
///
/// For `n ≤ LANES` each lane holds at most one draw, so the lane fold
/// degenerates to the plain ascending chain `draws[0] + draws[1] + …` —
/// the default `mc_samples = 8` ensemble reduces exactly as it always
/// has. Lane membership depends only on the draw index, never on
/// scheduling, so the result is bit-identical at every thread count.
///
/// This is the *only* reduction used by the parallel Monte Carlo paths —
/// callers that need the per-sample members (e.g. the serving engine's
/// uncertainty estimates) fetch them via
/// [`parallel_fork_map`] and re-derive the mean through this function,
/// which guarantees bit-identity with [`parallel_mc_reduce`].
///
/// # Panics
///
/// Panics if `draws` is empty.
pub fn reduce_mean(draws: &[Matrix]) -> Matrix {
    assert!(!draws.is_empty(), "need at least one Monte Carlo sample");
    let n = draws.len();
    let mut acc = draws[0].clone();
    if n <= LANES {
        for m in &draws[1..] {
            acc.axpy(1.0, m);
        }
    } else {
        // Lane 0 accumulates directly into `acc` (seeded with draws[0]);
        // lanes 1.. build in one reusable temp and fold in ascending lane
        // order.
        let mut k = LANES;
        while k < n {
            acc.axpy(1.0, &draws[k]);
            k += LANES;
        }
        let mut lane = Matrix::zeros(0, 0);
        for l in 1..LANES {
            lane.resize(draws[0].rows(), draws[0].cols());
            lane.data_mut().copy_from_slice(draws[l].data());
            let mut k = l + LANES;
            while k < n {
                lane.axpy(1.0, &draws[k]);
                k += LANES;
            }
            acc.axpy(1.0, &lane);
        }
    }
    acc.scale(1.0 / n as f32);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibnn_grng::{BoxMullerGrng, GaussianSource};

    #[test]
    fn reduction_is_schedule_independent() {
        let eps = BoxMullerGrng::new(7);
        let run = |threads| {
            parallel_mc_reduce(10, threads, &eps, |src: &mut BoxMullerGrng, _: &mut ()| {
                let mut m = Matrix::zeros(2, 3);
                src.fill_f32(m.data_mut());
                m
            })
        };
        let one = run(1);
        for threads in [2usize, 3, 7, 32] {
            assert_eq!(run(threads).data(), one.data(), "{threads} threads");
        }
    }

    #[test]
    fn ordered_tasks_return_results_in_unit_order() {
        for threads in [1usize, 2, 3, 8] {
            let out = parallel_ordered_tasks(17, threads, |u, _: &mut ()| u * u);
            assert_eq!(out, (0..17).map(|u| u * u).collect::<Vec<_>>());
        }
        assert!(parallel_ordered_tasks(0, 4, |u, _: &mut ()| u).is_empty());
    }

    #[test]
    fn fork_map_assigns_substreams_by_unit_not_schedule() {
        let eps = BoxMullerGrng::new(11);
        let run = |threads| {
            parallel_fork_map(9, threads, &eps, |_, src: &mut BoxMullerGrng, _: &mut ()| {
                src.next_gaussian()
            })
        };
        let one = run(1);
        for threads in [2usize, 4, 9] {
            assert_eq!(run(threads), one, "{threads} threads");
        }
    }

    #[test]
    fn replica_sources_are_identical_and_disjoint_from_sample_forks() {
        let cluster = BoxMullerGrng::new(23);
        let mut a = replica_source(&cluster);
        let mut b = replica_source(&cluster);
        let draws_a: Vec<u64> = (0..32).map(|_| a.next_gaussian().to_bits()).collect();
        let draws_b: Vec<u64> = (0..32).map(|_| b.next_gaussian().to_bits()).collect();
        // Independently owned instances of the same stream …
        assert_eq!(draws_a, draws_b);
        // … that never alias the Monte Carlo sample substreams.
        for s in 0..64u64 {
            let mut sample = cluster.fork(s);
            let first = sample.next_gaussian().to_bits();
            assert_ne!(first, draws_a[0], "replica stream collides with fork({s})");
        }
    }

    #[test]
    fn worker_spawn_is_capped_by_unit_count() {
        // Oversubscribing (threads ≫ units) must not spawn idle workers:
        // with 3 units and 16 requested threads at most 3 distinct threads
        // may run tasks, and no more than the machine's cores.
        use std::collections::HashSet;
        use std::sync::Mutex;
        let cores = available_cores();
        assert_eq!(effective_threads(16, 3), 3.min(cores));
        assert_eq!(effective_threads(16, 1), 1);
        assert_eq!(effective_threads(usize::MAX, usize::MAX), cores);
        let ids = Mutex::new(HashSet::new());
        let out = parallel_ordered_tasks(3, 16, |u, _: &mut ()| {
            ids.lock().unwrap().insert(std::thread::current().id());
            u
        });
        assert_eq!(out, vec![0, 1, 2]);
        assert!(
            ids.lock().unwrap().len() <= 3,
            "spawned more workers than units"
        );
    }

    #[test]
    fn reduce_mean_follows_lane_rule_beyond_lane_count() {
        // 11 draws > LANES: lane l folds draws l, l+8, … and lanes combine
        // in ascending order.
        let draws: Vec<Matrix> = (0..11)
            .map(|k| {
                let mut m = Matrix::zeros(2, 2);
                for (i, v) in m.data_mut().iter_mut().enumerate() {
                    *v = ((k * 7 + i * 3) as f32).sin();
                }
                m
            })
            .collect();
        let got = reduce_mean(&draws);
        for i in 0..4 {
            let mut lanes = [0.0f32; LANES];
            for (k, d) in draws.iter().enumerate() {
                lanes[k % LANES] += d.data()[i];
            }
            let mut want = lanes[0];
            for &l in &lanes[1..] {
                want += l;
            }
            want *= 1.0 / draws.len() as f32;
            assert_eq!(got.data()[i].to_bits(), want.to_bits(), "element {i}");
        }
    }

    #[test]
    fn chunked_fold_is_thread_count_independent() {
        let data: Vec<f32> = (0..70_000).map(|i| (i as f32 * 0.37).sin()).collect();
        let run = |threads: usize| {
            let mut out = vec![0.0f32; data.len()];
            let partial = chunked_fold(
                threads,
                data.chunks(TAIL_CHUNK).zip(out.chunks_mut(TAIL_CHUNK)),
                |(src, dst)| {
                    let mut s = 0.0f64;
                    for (d, &v) in dst.iter_mut().zip(src.iter()) {
                        *d = v * v;
                        s += f64::from(v);
                    }
                    s
                },
            );
            (partial, out)
        };
        let (p1, o1) = run(1);
        for threads in [2usize, 3, 8] {
            let (p, o) = run(threads);
            assert_eq!(p.to_bits(), p1.to_bits(), "{threads} threads partial");
            assert_eq!(o, o1, "{threads} threads output");
        }
    }

    #[test]
    fn ordered_mut_fills_slots_in_unit_order() {
        for threads in [1usize, 2, 5] {
            let mut slots = vec![0usize; 13];
            let mut workspaces = vec![0u32; 8];
            parallel_ordered_mut(&mut slots, threads, &mut workspaces, |u, slot, ws| {
                *slot = u * 3;
                *ws += 1;
            });
            assert_eq!(slots, (0..13).map(|u| u * 3).collect::<Vec<_>>());
            let done: u32 = workspaces.iter().sum();
            assert_eq!(done, 13, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "at least one Monte Carlo sample")]
    fn zero_samples_panics() {
        let eps = BoxMullerGrng::new(1);
        let _ = parallel_mc_reduce(0, 1, &eps, |_: &mut BoxMullerGrng, _: &mut ()| {
            Matrix::zeros(1, 1)
        });
    }
}
