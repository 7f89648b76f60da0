//! Ablation: Monte Carlo sample count vs accuracy and latency (eq. 6),
//! plus the adaptive operating curve — the same deployment served under
//! `EarlyExit` with the stability threshold `k` swept, reporting
//! accuracy against the mean `samples_used` each threshold actually
//! spends (compare against the static-N rows: the adaptive points sit
//! on or above the static curve at a fraction of the samples).
use vibnn::sampler::PolicySpec;
use vibnn::serve::{ServeConfig, ServeEngine};
use vibnn::VibnnBuilder;
use vibnn_bench::{pct, print_table, RunScale};
use vibnn_bnn::{Bnn, BnnConfig};
use vibnn_datasets::{mnist_like_with, MnistLikeSpec};
use vibnn_grng::{BnnWallaceGrng, ZigguratGrng};
use vibnn_hw::{AcceleratorConfig, QuantizedBnn, Schedule};

fn main() {
    let scale = RunScale::from_env().learn();
    let ds = mnist_like_with(
        MnistLikeSpec {
            train_size: scale.mnist_train,
            test_size: scale.mnist_test,
            ..Default::default()
        },
        31,
    );
    let arch = [ds.features(), scale.hidden, scale.hidden, ds.classes];
    let batch = 64;
    let batches = ds.train_len().div_ceil(batch);
    let mut bnn = Bnn::new(
        BnnConfig::new(&arch)
            .with_lr(2e-3)
            .with_kl_weight((1.0 / batches as f32).min(2e-3)),
        33,
    );
    for _ in 0..scale.epochs {
        bnn.train_epoch(&ds.train_x, &ds.train_y, batch);
    }
    let calib = ds.train_x.rows_slice(0, 128);
    let q = QuantizedBnn::from_params(&bnn.params(), 8, &calib);
    let mut rows = Vec::new();
    for mc in [1usize, 2, 4, 8, 16] {
        let eps = BnnWallaceGrng::new(8, 256, 35);
        let acc = q.evaluate_mc_parallel(&ds.test_x, &ds.test_y, mc, &eps, 1);
        let cfg = AcceleratorConfig {
            mc_samples: mc,
            ..AcceleratorConfig::paper()
        };
        let sched = Schedule::new(&cfg, &[784, 200, 200, 10]);
        rows.push(vec![
            mc.to_string(),
            pct(acc),
            format!("{}", sched.cycles_per_image()),
            format!("{:.0}", sched.images_per_second()),
        ]);
    }
    print_table(
        "Ablation: MC samples vs accuracy and modelled throughput",
        &["MC samples", "HW accuracy", "Cycles/image", "Images/s"],
        &rows,
    );

    // Adaptive operating curve: the identical parameters deployed with a
    // fixed 16-sample budget, served under `EarlyExit{k, min_samples: 2}`
    // as `k` sweeps. Accuracy is measured the same way as above; "mean
    // samples" is what the requests actually cost under that threshold
    // (the static rows effectively pin mean samples = N).
    let budget = 16usize;
    let vibnn = VibnnBuilder::new(bnn.params())
        .mc_samples(budget)
        .calibration(calib)
        .build()
        .expect("valid deployment");
    let serve = |policy: PolicySpec| {
        ServeEngine::with_eps(
            vibnn.clone(),
            ServeConfig {
                max_batch: 128,
                workers: 1,
                policy: Some(policy),
                ..ServeConfig::default()
            },
            ZigguratGrng::new(35),
        )
        .expect("valid serve config")
        .submit_batch(&ds.test_x)
        .expect("serve test set")
    };
    let mut curve = Vec::new();
    for (label, policy) in std::iter::once(("exact N".to_owned(), PolicySpec::ExactN)).chain(
        [1u32, 2, 3, 4].into_iter().map(|k| {
            (
                format!("early-exit k={k}"),
                PolicySpec::EarlyExit { k, min_samples: 2 },
            )
        }),
    ) {
        let results = serve(policy);
        let correct = results
            .iter()
            .zip(&ds.test_y)
            .filter(|(res, &label)| res.argmax == label)
            .count();
        let acc = correct as f64 / ds.test_y.len().max(1) as f64;
        let mean = results
            .iter()
            .map(|r| u64::from(r.samples_used))
            .sum::<u64>() as f64
            / results.len().max(1) as f64;
        curve.push(vec![
            label,
            pct(acc),
            format!("{mean:.2}"),
            budget.to_string(),
        ]);
    }
    print_table(
        "Ablation: EarlyExit stability threshold vs accuracy and mean samples used",
        &["Policy", "Accuracy", "Mean samples", "Budget"],
        &curve,
    );
}
