//! Timing one layer's call alone, on the inputs a run observed, so its
//! cost can be set against the share of the run it accounts for.

use crate::stats::median;
use metis_dt::{DecisionTree, Prediction};
use metis_serve::ServedModel;
use std::time::{Duration, Instant};

/// Nanoseconds per item of `call`, which handles `items` items each
/// time: the median over seven windows of at least 20 ms.
pub fn ns_per_item(items: usize, mut call: impl FnMut()) -> f64 {
    let mut per_item = Vec::with_capacity(7);
    for _ in 0..7 {
        let t0 = Instant::now();
        let mut done = 0usize;
        while t0.elapsed() < Duration::from_millis(20) {
            call();
            done += items;
        }
        per_item.push(t0.elapsed().as_nanos() as f64 / done.max(1) as f64);
    }
    median(&per_item)
}

/// `ServedModel::predict_batch_into` on `tree` alone over `rows`
/// (row-major, `n_features` wide), in batches of the size a fabric
/// flushed (`batch_mean`, rounded).
pub fn kernel_ns_per_row(
    tree: &DecisionTree,
    rows: &[f64],
    n_features: usize,
    batch_mean: f64,
) -> f64 {
    let n_rows = rows.len() / n_features;
    if n_rows == 0 {
        return 0.0;
    }
    let model = ServedModel::from_tree(tree.clone());
    let batch = (batch_mean.round() as usize).clamp(1, n_rows);
    let mut out = vec![Prediction::Class(0); batch];
    ns_per_item(n_rows / batch * batch, || {
        for chunk in rows.chunks_exact(batch * n_features) {
            model.predict_batch_into(chunk, &mut out);
        }
        std::hint::black_box(&mut out);
    })
}
