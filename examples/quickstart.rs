//! Quickstart: rings, ring convolution, and the directional ReLU in a
//! dozen lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ringcnn::prelude::*;

fn main() {
    // 1. A ring is ordinary arithmetic over n-tuples. The paper's
    //    proposed ring RI multiplies component-wise…
    let ri4 = Ring::from_kind(RingKind::Ri(4));
    let g = [0.5f32, -1.0, 2.0, 0.25];
    let x = [1.0f32, 1.0, 1.0, 1.0];
    let mut z = [0.0f32; 4];
    ri4.mac_f32(&g, &x, &mut z);
    println!("RI4:  {g:?} · {x:?} = {z:?}");

    // …while e.g. the complex field mixes components with signs.
    let c = Ring::from_kind(RingKind::Complex);
    let mut zc = [0.0f32; 2];
    c.mac_f32(&[1.0, 2.0], &[3.0, 4.0], &mut zc);
    println!("C:    (1+2i)(3+4i) = {zc:?}  (expect [-5, 10])");

    // 2. Every proper ring has a fast algorithm: m real multiplications
    //    instead of n². The circulant ring (CirCNN-alike) needs 5:
    let circ = Ring::from_kind(RingKind::Rh4I);
    println!(
        "RH4-I: n² = 16 → m = {} multiplications (Winograd/CRT), verified: {}",
        circ.fast().m(),
        circ.fast().tensor().distance(&circ.indexing_tensor()) < 1e-9,
    );

    // 3. The directional ReLU fH(y) = H·fcw(H·y) mixes tuple components
    //    only at the non-linearity (the paper's key idea):
    let fh = DirectionalRelu::fh(4);
    let mut y = [1.0f32, -3.0, 0.5, 0.25];
    fh.forward(&mut y);
    println!("fH([1, -3, 0.5, 0.25]) = {y:?}");

    // 4. Build a tiny (RI4, fH) denoiser and run one forward pass.
    let algebra = Algebra::ri_fh(4);
    let mut model = build_model(
        Scenario::Denoise { sigma: 25.0 },
        ThroughputTarget::Uhd30,
        &algebra,
        42,
    );
    let image = generate(PatternKind::ValueNoise, 32, 32, 7);
    let noisy = add_gaussian_noise(&image, 25.0, 1);
    let denoised = predict(&mut model, &noisy);
    println!(
        "untrained {} model: noisy {:.2} dB → output {:.2} dB (train it to improve!)",
        algebra.label(),
        psnr(&noisy, &image),
        psnr(&denoised, &image),
    );
    println!(
        "model: {} stored weights, {:.0} real mults/pixel (the real-valued\n\
         version would need ~{}× more weights)",
        model.num_params(),
        mults_per_input_pixel(&model),
        algebra.n(),
    );
}
