//! The benchmark's vocabulary: workload names, the end-to-end metrics
//! with their bounds, and the per-layer metrics. `BENCHMARK.json` at the
//! repository root restates these tables; the integration test holds the
//! two in agreement.

use std::collections::BTreeMap;

/// One workload: its name and (in at most 200 characters, the limit of
/// `BENCHMARK.json`) why it exists. The README has the long form.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "frame_dn_rh4",
        why: "Float DnERNet over (RH4, fcw) on 256x256 noisy frames, tiled: the transform-domain engine (Tx, m component GEMMs, Tz) does nearly all the work; serve, quant and fH do none.",
    },
    Workload {
        name: "frame_sr4_ri4fh",
        why: "Float SR4ERNet + bicubic skip over (RI4, fH), 64x64 to 256x256: diagonal-ring im2col path, directional ReLU, pixel shuffle; a transform-engine gain predicts no change here.",
    },
    Workload {
        name: "frame_dn_ri4fh_q8",
        why: "The DnERNet over (RI4, fH) calibrated to 8 bits and run as QuantizedModel: quant, gemm_i64 and QDRelu do the work, f32 GEMM none; bit-exact, so outputs compare exactly.",
    },
    Workload {
        name: "serve_open_tiles",
        why: "Open loop: 2 connections, seeded Poisson arrivals at 60 req/s each, binary wire, 64x64 tiles over two models; latency from intended send time, so queueing and stalls cannot hide.",
    },
    Workload {
        name: "serve_closed_json",
        why: "Closed loop: 2 connections, line-JSON wire, tiny real-field FFDNet on 64x64 tiles: JSON codec, reactor and dispatch do most of the work, the kernel little; kernel work predicts no change.",
    },
];

/// One metric of either table.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// End-to-end metrics only: the share of the reference value by
    /// which the metric may get worse before it counts as a regression;
    /// also the A/A tolerance.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, lower_is_better: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
        bound: Some(bound),
    }
}

/// Measured with tracing off, on every workload, and bounded: these are
/// the issue's end-to-end numbers that hold a bound on the shared 2-core
/// host (README, "Noise"). `peak_rss_mb` and `oracle_psnr_db` keep the
/// issue's bounds. `setup_s` is the one exception: the PR driver makes
/// it mandatory, so it cannot be demoted, and an unchanged tree moved
/// its median by 20.1 % while the host slowed down under it — it takes
/// the widest bound the driver allows, as the driver's contract advises,
/// in place of the issue's 0.20. The others are not lost: `fail_share`,
/// always 0 on a healthy tree, travels as `failed / attempted` in the
/// result line, and the six wall-clock and CPU-time numbers
/// (`mpixels_per_s`, `frame_ms_p50`, `throughput_rps`,
/// `latency_p50_ms`, `latency_p90_ms`, `cpu_ms_per_op`) could not hold
/// a tenth — the host itself drifts by 20–40 % over minutes — and head
/// [`PER_LAYER`] as unbounded diagnostics, demoted as the issue
/// prescribes instead of widening their bounds.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", true, 0.25),
    e2e("peak_rss_mb", "MiB", true, 0.10),
    e2e("oracle_psnr_db", "dB", false, 0.02),
];

const fn low(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: true,
        bound: None,
    }
}

const fn high(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: false,
        bound: None,
    }
}

/// Reported by the `--trace 1` pass; layer = crate/module. A metric that
/// does not apply to a workload reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // The demoted end-to-end numbers, each on the workloads it is
    // defined on; always from a pass with tracing off.
    high("mpixels_per_s", "Mpx/s"),
    low("frame_ms_p50", "ms"),
    high("throughput_rps", "1/s"),
    low("latency_p50_ms", "ms"),
    low("latency_p90_ms", "ms"),
    low("cpu_ms_per_op", "ms"),
    low("tensor.gemm.f32_ms", "ms"),
    high("tensor.gemm.f32_gmults_per_s", "G/s"),
    high("tensor.gemm.f32_ideal_gmults_per_s", "G/s"),
    high("tensor.gemm.f32_shape_efficiency", "ratio"),
    low("tensor.gemm.i64_ms", "ms"),
    high("tensor.gemm.i64_gmults_per_s", "G/s"),
    low("tensor.gemm.tiles_per_op", "count"),
    low("tensor.gemm.panel_packs_per_op", "count"),
    low("tensor.gemm.dispatches_per_op", "count"),
    high("tensor.gemm.panel_reuse_share", "ratio"),
    low("tensor.im2col.pack_ms", "ms"),
    low("tensor.im2col.conv_ms", "ms"),
    low("tensor.im2col.pack_share", "ratio"),
    low("tensor.im2col.i64_pack_ms", "ms"),
    low("tensor.tile.extract_paste_ms", "ms"),
    low("nn.ring_conv.forward_ms", "ms"),
    high("nn.ring_conv.gmults_per_s", "G/s"),
    low("nn.ring_conv.mults_m_per_px", "count"),
    low("nn.ring_conv.mults_n2_per_px", "count"),
    low("nn.fast_ring_conv.forward_ms", "ms"),
    low("nn.fast_ring_conv.transform_share", "ratio"),
    low("nn.activation.forward_ms", "ms"),
    low("nn.model.forward_ms", "ms"),
    low("nn.model.conv_ms", "ms"),
    low("nn.model.activation_ms", "ms"),
    low("nn.model.shuffle_ms", "ms"),
    low("nn.model.other_ms", "ms"),
    high("nn.model.walk_coverage", "ratio"),
    low("nn.model.mults_per_px", "count"),
    high("nn.model.gmults_per_s", "G/s"),
    low("nn.runtime.tiles_per_frame", "count"),
    low("nn.runtime.halo_overhead", "ratio"),
    low("nn.runtime.tiled_vs_whole", "ratio"),
    high("nn.runtime.speedup_t2", "ratio"),
    low("nn.runtime.prepare_ms", "ms"),
    low("nn.runtime.frame_ms_p90", "ms"),
    low("nn.runtime.frame_ms_max", "ms"),
    low("quant.calibrate_ms", "ms"),
    low("quant.model.forward_ms", "ms"),
    low("quant.model.conv_ms", "ms"),
    low("quant.model.drelu_ms", "ms"),
    low("quant.model.other_ms", "ms"),
    low("quant.vs_float", "ratio"),
    high("quant.psnr_vs_float_db", "dB"),
    low("serve.decode_ms", "ms"),
    low("serve.queue_wait_ms", "ms"),
    low("serve.batch_ms", "ms"),
    low("serve.kernel_ms", "ms"),
    low("serve.encode_ms", "ms"),
    low("serve.request_ms", "ms"),
    high("serve.kernel_share", "ratio"),
    low("serve.unattributed_ms", "ms"),
    high("serve.scheduler.mean_batch", "count"),
    high("serve.scheduler.max_batch", "count"),
    low("serve.scheduler.queue_wait_p50_ms", "ms"),
    low("serve.scheduler.rejected", "count"),
    low("serve.frame.encode_request_us", "us"),
    low("serve.frame.decode_request_us", "us"),
    low("serve.frame.encode_response_us", "us"),
    low("serve.protocol.request_to_json_us", "us"),
    low("serve.protocol.request_parse_us", "us"),
    low("serve.protocol.response_to_json_us", "us"),
    low("serve.wire.bytes_per_request", "count"),
    low("serve.client.send_lag_p90_ms", "ms"),
    low("serve.client.backlog_growth_ms", "ms"),
    low("serve.client.latency_p99_ms", "ms"),
    low("serve.client.latency_max_ms", "ms"),
    low("trace.overhead_share", "ratio"),
    low("trace.span_loss_share", "ratio"),
    low("loc.total", "count"),
    low("loc.algebra", "count"),
    low("loc.tensor", "count"),
    low("loc.imaging", "count"),
    low("loc.nn", "count"),
    low("loc.quant", "count"),
    low("loc.core", "count"),
    low("loc.hw", "count"),
    low("loc.esim", "count"),
    low("loc.serve", "count"),
    low("loc.trace", "count"),
    low("loc.bench", "count"),
    low("loc.lint", "count"),
];

/// The values of one pass, keyed by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records a value. Each metric is set at most once per pass, and a
    /// non-finite measurement is a bug in the benchmark, not a result.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} measured {value}");
        let prev = self.0.insert(name, value);
        assert!(prev.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }
}

/// What one pass of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// Prints every metric of `table` by name with its unit and direction,
/// then the machine-readable result line the driver reads (last line of
/// stdout). A per-layer metric the workload did not measure reads 0; an
/// end-to-end metric must have been measured. What the measured pass
/// recorded beyond its table — the demoted speed numbers — is printed
/// as `diagnostic` lines and stays out of the result line.
pub fn print_outcome(outcome: &Outcome, table: &[Metric]) {
    let mut fields = Vec::new();
    for m in table {
        let value = match (outcome.values.get(m.name), m.bound) {
            (Some(v), _) => v,
            (None, None) => 0.0,
            (None, Some(_)) => panic!("end-to-end metric {} was not measured", m.name),
        };
        let better = if m.lower_is_better { "lower" } else { "higher" };
        let bound = m.bound.map_or(String::new(), |b| format!(" bound={b}"));
        println!(
            "metric {} = {value} {} better={better}{bound}",
            m.name, m.unit
        );
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    for name in outcome.values.names() {
        if table.iter().any(|m| m.name == name) {
            continue;
        }
        let m = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is in neither table"));
        let value = outcome.values.get(name).expect("listed by names()");
        println!("diagnostic {name} = {value} {}", m.unit);
    }
    let succeeded = outcome.attempted - outcome.failed;
    println!(
        "ops attempted={} succeeded={succeeded} failed={} fail_share={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
}
