//! End-to-end quantized serving: calibrate a model, export both the
//! `ringcnn-model/v1` and `ringcnn-qmodel/v1` files, load them through
//! the registry, and serve `precision: "quant"` requests over real TCP —
//! asserting bit-exactness against the local integer pipeline and the
//! documented fidelity floor against the fp64 path.

use ringcnn_imaging::metrics::psnr;
use ringcnn_nn::prelude::*;
use ringcnn_quant::prelude::*;
use ringcnn_serve::prelude::*;
use ringcnn_tensor::prelude::*;
use std::sync::Arc;

fn ffdnet_spec() -> ModelSpec {
    ModelSpec::Ffdnet {
        depth: 3,
        width: 8,
        channels_io: 1,
    }
}

/// Writes a float + quantized model pair to a fresh temp dir and returns
/// (dir, calibrated pipeline, float reference model).
fn export_pair(tag: &str) -> (std::path::PathBuf, QuantizedModel, Sequential) {
    let dir =
        std::env::temp_dir().join(format!("ringcnn_quant_serve_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let alg = Algebra::real();
    let spec = ffdnet_spec();
    let mut model = spec.build(&alg, 41);
    let file =
        ringcnn_nn::serialize::export_model("ffdnet_real", spec, AlgebraSpec::of(&alg), &mut model)
            .unwrap();
    std::fs::write(
        dir.join("ffdnet_real.json"),
        ringcnn_nn::serialize::model_to_json(&file),
    )
    .unwrap();
    let batch = Tensor::random_uniform(Shape4::new(4, 1, 16, 16), 0.0, 1.0, 43);
    let qfile = calibrate_to_qmodel(
        "ffdnet_real",
        &spec.label(),
        &alg.label(),
        &mut model,
        &batch,
        QuantOptions::default(),
    )
    .unwrap();
    std::fs::write(dir.join("ffdnet_real.q.json"), qmodel_to_json(&qfile)).unwrap();
    let mut reference = spec.build(&alg, 41);
    reference.prepare_inference();
    (dir, qfile.model, reference)
}

#[test]
fn quantized_model_served_over_tcp_is_bit_exact_and_tracks_fp64() {
    let (dir, qmodel, fp_model) = export_pair("tcp");
    let reg = ModelRegistry::new();
    reg.load_dir(&dir).unwrap();
    let server = Server::start(Arc::new(reg), ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // list_models advertises both precisions and the calibration PSNR.
    let infos = client.list_models().unwrap();
    assert_eq!(infos.len(), 1);
    assert_eq!(infos[0].precisions, vec!["fp64", "quant"]);
    assert!(
        infos[0].quant_psnr.unwrap() > 20.0,
        "{:?}",
        infos[0].quant_psnr
    );

    let x = Tensor::random_uniform(Shape4::new(1, 1, 32, 32), 0.0, 1.0, 47);
    let quant_reply = client
        .infer_with("ffdnet_real", &x, Precision::Quant)
        .unwrap();
    let fp_reply = client.infer("ffdnet_real", &x).unwrap();

    // The served quantized output IS the local integer pipeline, bit for
    // bit (JSON carries f32 losslessly; the pipeline is deterministic).
    assert_eq!(
        quant_reply.output.as_slice(),
        qmodel.forward(&x).as_slice(),
        "TCP quant path must match the local integer pipeline exactly"
    );
    // The fp64 path is the float model, bit for bit.
    assert_eq!(
        fp_reply.output.as_slice(),
        fp_model.forward_infer(&x).as_slice()
    );
    // And the two precisions agree within the documented real-field
    // floor (25 dB on untrained weights; trained models sit far higher).
    let fidelity = psnr(&fp_reply.output, &quant_reply.output);
    assert!(
        fidelity > 25.0,
        "served fp64-vs-quant PSNR {fidelity:.1} dB below the 25 dB floor"
    );

    // Repeatability across connections: the integer pipeline is
    // deterministic under the batching scheduler too.
    let mut client2 = Client::connect(&addr).unwrap();
    let again = client2
        .infer_with("ffdnet_real", &x, Precision::Quant)
        .unwrap();
    assert_eq!(again.output.as_slice(), quant_reply.output.as_slice());

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn precision_error_paths_keep_the_connection_alive() {
    // A registry whose model has NO quantized attachment.
    let reg = ModelRegistry::new();
    let alg = Algebra::real();
    reg.register(
        "plain",
        ffdnet_spec(),
        AlgebraSpec::of(&alg),
        ffdnet_spec().build(&alg, 3),
    )
    .unwrap();
    let server = Server::start(Arc::new(reg), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr().to_string()).unwrap();

    let x = Tensor::zeros(Shape4::new(1, 1, 8, 8));
    // quant without an attachment → bad_request, connection stays up.
    let err = client
        .infer_with("plain", &x, Precision::Quant)
        .unwrap_err();
    assert_eq!(err.code(), "bad_request", "{err}");
    // An unknown precision string → bad_request (raw line: the typed
    // client cannot produce it).
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer
        .write_all(
            b"{\"verb\":\"infer\",\"model\":\"plain\",\"precision\":\"int3\",\
              \"shape\":[1,1,1,1],\"data\":[0.5]}\n",
        )
        .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("bad_request"), "{line}");
    // The same connection still serves good requests afterwards.
    writer.write_all(b"{\"verb\":\"health\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"healthy\":true"), "{line}");
    // …and the typed client still works too.
    assert!(client.infer("plain", &x).is_ok());

    server.shutdown();
}

#[test]
fn loadgen_drives_the_quant_path_cleanly() {
    let (dir, _qm, _fp) = export_pair("loadgen");
    let reg = ModelRegistry::new();
    reg.load_dir(&dir).unwrap();
    let server = Server::start(Arc::new(reg), ServerConfig::default()).unwrap();
    let report = ringcnn_serve::loadgen::run(&LoadgenConfig {
        addr: server.addr().to_string(),
        connections: 4,
        requests: 32,
        models: vec!["ffdnet_real".into()],
        hw: (16, 16),
        seed: 9,
        warmup: 1,
        precision: Precision::Quant,
        wire: Wire::Json,
        ..LoadgenConfig::default()
    })
    .unwrap();
    assert_eq!(report.errors, 0, "quant loadgen must complete cleanly");
    assert_eq!(report.completed, 32);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A qmodel file whose first conv's accumulator reaches 2^23 — channel
/// 0's bias moved to that integer — is a model the modelled accelerator
/// cannot run: `load_dir` refuses the directory, and a reload that
/// brings the file in is refused too, the old version serving on
/// unchanged. Both errors name the stage.
#[test]
fn a_qmodel_past_the_accumulator_is_refused_at_load_and_at_reload() {
    let (dir, qmodel, _fp) = export_pair("widths");
    let qpath = dir.join("ffdnet_real.q.json");
    let good = std::fs::read_to_string(&qpath).unwrap();
    let [QLayer::Unshuffle(_), QLayer::Conv(c), ..] = qmodel.layers() else {
        panic!("an FFDNet starts with an unshuffle and a conv");
    };
    let acc_frac = qmodel.input_format().frac + c.w_format().frac;
    let bias = 2f64.powi(23 - acc_frac);
    let start = good.find("\"bias\":[").unwrap() + "\"bias\":[".len();
    let end = start + good[start..].find([',', ']']).unwrap();
    let wide = format!(
        "{}{}{}",
        &good[..start],
        bias.to_bits() as i64,
        &good[end..]
    );
    let refused = |e: ServeError| match e {
        ServeError::Load(why) => assert!(
            why.contains("1 conv: worst case 2^23.")
                && why.ends_with("exceeds the 24-bit accumulator"),
            "{why}"
        ),
        other => panic!("expected a load error, got {other}"),
    };
    std::fs::write(&qpath, &wide).unwrap();
    refused(ModelRegistry::new().load_dir(&dir).unwrap_err());

    std::fs::write(&qpath, &good).unwrap();
    let reg = ModelRegistry::new();
    reg.load_dir(&dir).unwrap();
    std::fs::write(&qpath, &wide).unwrap();
    refused(reg.reload_pass().unwrap_err());
    let entry = reg.get("ffdnet_real").unwrap();
    assert_eq!(entry.version(), 1);
    let x = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 53);
    let served = entry.infer_precision(&x, Precision::Quant).unwrap();
    assert_eq!(served.as_slice(), qmodel.forward(&x).as_slice());
    std::fs::remove_dir_all(&dir).ok();
}

/// A qmodel file that parses but has no proof — a chain of one ReLU,
/// whose channels and topology match the float model beside it — is
/// refused at load, naming the file and why, instead of loading and
/// panicking on its first `quant` request.
#[test]
fn a_qmodel_without_a_convolution_is_refused_at_load() {
    let dir = std::env::temp_dir().join(format!("ringcnn_quant_serve_relu_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let alg = Algebra::real();
    let spec = ModelSpec::Vdsr {
        depth: 2,
        width: 8,
        channels_io: 1,
    };
    let mut model = spec.build(&alg, 7);
    let file = ringcnn_nn::serialize::export_model("vdsr", spec, AlgebraSpec::of(&alg), &mut model)
        .unwrap();
    let float = ringcnn_nn::serialize::model_to_json(&file);
    std::fs::write(dir.join("vdsr.json"), float).unwrap();
    let relu = r#"{"format":"ringcnn-qmodel/v1","name":"vdsr","arch":"relu","algebra":"-","channels_io":1,"calibration_psnr":0.0,"model":{"input_format":{"bits":8,"frac":6},"layers":["Relu"],"opts":{"component_wise":true,"on_the_fly_drelu":true}}}"#;
    std::fs::write(dir.join("vdsr.q.json"), relu).unwrap();
    let reg = ModelRegistry::new();
    match reg.load_dir(&dir).unwrap_err() {
        ServeError::Load(why) => assert!(
            why.contains("vdsr.q.json") && why.contains("no convolution fixes the channel count"),
            "{why}"
        ),
        other => panic!("expected a load error, got {other}"),
    }
    assert!(reg.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
