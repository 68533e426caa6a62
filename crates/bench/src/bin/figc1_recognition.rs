//! Fig. C-1 (Appendix C): recognition study — RingCNN versus LeGR-style
//! structured filter pruning on a ResNet-mini classifier over the
//! synthetic pattern dataset (CIFAR-100 stand-in).

use ringcnn::prelude::*;
use ringcnn_bench::{f2, f3, flags, print_table, save_json};
use ringcnn_nn::models::resnet::{resnet_mini, ResNetConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Entry {
    method: String,
    compute_efficiency: f64,
    accuracy: f64,
}

fn main() {
    let fl = flags();
    let (classes, per_class, size) = if fl.standard {
        (10, 24, 12)
    } else {
        (5, 10, 8)
    };
    let steps = if fl.standard { 800 } else { 250 };
    let (xs, labels) = classification_set(classes, per_class, size, 5);
    let (xs_test, labels_test) = classification_set(classes, per_class / 2, size, 9_999);
    let cfg = TrainConfig {
        steps,
        batch: 16,
        lr: 2e-3,
        decay_after: 0.7,
        seed: 3,
    };
    let rcfg = ResNetConfig {
        classes,
        ..ResNetConfig::tiny()
    };

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let record = |label: &str,
                  model: &mut Sequential,
                  base_mults: f64,
                  rows: &mut Vec<Vec<String>>,
                  json: &mut Vec<Entry>| {
        let acc = accuracy(model, &xs_test, &labels_test);
        let eff = base_mults / mults_per_input_pixel(model);
        rows.push(vec![label.to_string(), f2(eff), f3(acc)]);
        json.push(Entry {
            method: label.into(),
            compute_efficiency: eff,
            accuracy: acc,
        });
    };

    // Dense real baseline.
    let mut base = resnet_mini(&Algebra::real(), rcfg, 1, 41);
    let base_mults = mults_per_input_pixel(&base);
    let _ = train_classifier(&mut base, &xs, &labels, &cfg);
    record(
        "ResNet (dense)",
        &mut base,
        base_mults,
        &mut rows,
        &mut json,
    );

    // LeGR-style structured pruning at several fractions.
    for fraction in [0.25f64, 0.5, 0.75] {
        let mut m = resnet_mini(&Algebra::real(), rcfg, 1, 41);
        let _ = train_classifier(&mut m, &xs, &labels, &cfg);
        let _ = structured_filter_prune(&mut m, fraction);
        let fine = TrainConfig {
            steps: steps / 2,
            ..cfg
        };
        let _ = train_classifier(&mut m, &xs, &labels, &fine);
        record(
            &format!("LeGR-style prune {:.0}%", fraction * 100.0),
            &mut m,
            base_mults,
            &mut rows,
            &mut json,
        );
    }

    // RingCNN classifiers.
    for n in [2usize, 4] {
        let mut m = resnet_mini(&Algebra::ri_fh(n), rcfg, 1, 41);
        let _ = train_classifier(&mut m, &xs, &labels, &cfg);
        let fine = TrainConfig {
            steps: steps / 2,
            ..cfg
        };
        let _ = train_classifier(&mut m, &xs, &labels, &fine);
        record(
            &format!("RingCNN (RI{n},fH)"),
            &mut m,
            base_mults,
            &mut rows,
            &mut json,
        );
    }

    print_table(
        "Fig. C-1 — recognition: compute efficiency vs test accuracy",
        &["method", "compute efficiency (×)", "accuracy"],
        &rows,
    );
    println!(
        "Shape target: RingCNN holds accuracy at high compute efficiency better\n\
         than structured filter pruning."
    );
    save_json(&fl, "figc1_recognition", &json);
}
