//! Every number the hardware tables print: the layouts and breakdowns
//! of Tables V/VI, the engines' multiplier counts, the Fig. 12 engine
//! estimates, the Fig. 14 efficiencies and the `hw_sweep` points. The
//! rows pin the reports, not the configurations, so a change to how an
//! accelerator is described cannot move a printed number unseen. A row
//! that moves means the model drifted (the failure prints the row).
//! `Debug` prints each `f64` in the shortest form that reads back to the
//! same bits, so the strings are exact.

use ringcnn_hw::prelude::*;

const PINNED: [(&str, &str); 25] = [
    ("layout eCNN", "LayoutReport { name: \"eCNN\", area_mm2: 55.667904, power_w: 7.0177248, tops_equivalent: 40.96, tops_per_watt: 5.83664950782909, breakdown: [BreakdownRow { component: \"convolution engines\", area_mm2: 40.239104, power_w: 6.5077248 }, BreakdownRow { component: \"weight memory\", area_mm2: 4.4288, power_w: 0.12 }, BreakdownRow { component: \"block buffer + datapath + control\", area_mm2: 11.0, power_w: 0.39 }] }"),
    ("multipliers eCNN", "(81920, 81920)"),
    ("efficiency eCNN", "EfficiencyVsEcnn { name: \"eCNN\", engine_area: 1.0, engine_energy: 1.0, chip_area: 1.0, chip_energy: 1.0 }"),
    ("layout eRingCNN-n2", "LayoutReport { name: \"eRingCNN-n2\", area_mm2: 35.093952, power_w: 3.8605024000000006, tops_equivalent: 40.96, tops_per_watt: 10.61001801216339, breakdown: [BreakdownRow { component: \"convolution engines\", area_mm2: 20.772352, power_w: 3.3505024000000003 }, BreakdownRow { component: \"weight memory\", area_mm2: 3.3216, power_w: 0.12 }, BreakdownRow { component: \"block buffer + datapath + control\", area_mm2: 11.0, power_w: 0.39 }] }"),
    ("multipliers eRingCNN-n2", "(40960, 81920)"),
    ("efficiency eRingCNN-n2", "EfficiencyVsEcnn { name: \"eRingCNN-n2\", engine_area: 1.9371472233861622, engine_energy: 1.942313128920606, chip_area: 1.5862534946192437, chip_energy: 1.8178268196388114 }"),
    ("layout eRingCNN-n4", "LayoutReport { name: \"eRingCNN-n4\", area_mm2: 23.571491555555554, power_w: 2.2658912, tops_equivalent: 40.96, tops_per_watt: 18.076772618208675, breakdown: [BreakdownRow { component: \"convolution engines\", area_mm2: 10.910691555555555, power_w: 1.7558912 }, BreakdownRow { component: \"weight memory\", area_mm2: 1.6608, power_w: 0.12 }, BreakdownRow { component: \"block buffer + datapath + control\", area_mm2: 11.0, power_w: 0.39 }] }"),
    ("multipliers eRingCNN-n4", "(20480, 81920)"),
    ("efficiency eRingCNN-n4", "EfficiencyVsEcnn { name: \"eRingCNN-n4\", engine_area: 3.6880434017503565, engine_energy: 3.706223255746142, chip_area: 2.3616623440564437, chip_energy: 3.0971146363956046 }"),
    ("fig12 Ri(1) ComponentWise", "EngineEstimate { ring: Ri(1), nonlinearity: ComponentWise, multipliers: 73728, area_mm2: 36.2151936, power_w: 5.85695232, area_efficiency: 1.0 }"),
    ("fig12 Rh(2) ComponentWise", "EngineEstimate { ring: Rh(2), nonlinearity: ComponentWise, multipliers: 36864, area_mm2: 21.0395136, power_w: 3.4066022400000002, area_efficiency: 1.7212942413269479 }"),
    ("fig12 Complex ComponentWise", "EngineEstimate { ring: Complex, nonlinearity: ComponentWise, multipliers: 55296, area_mm2: 31.5346944, power_w: 5.105848320000001, area_efficiency: 1.1484238008027121 }"),
    ("fig12 Ri(2) DirectionalH", "EngineEstimate { ring: Ri(2), nonlinearity: DirectionalH, multipliers: 36864, area_mm2: 18.6951168, power_w: 3.01545216, area_efficiency: 1.9371472233861624 }"),
    ("fig12 Rh(4) ComponentWise", "EngineEstimate { ring: Rh(4), nonlinearity: ComponentWise, multipliers: 18432, area_mm2: 12.2535936, power_w: 1.98623232, area_efficiency: 2.9554753309265944 }"),
    ("fig12 Ro4 ComponentWise", "EngineEstimate { ring: Ro4, nonlinearity: ComponentWise, multipliers: 18432, area_mm2: 12.2535936, power_w: 1.98623232, area_efficiency: 2.9554753309265944 }"),
    ("fig12 Rh4I ComponentWise", "EngineEstimate { ring: Rh4I, nonlinearity: ComponentWise, multipliers: 23040, area_mm2: 15.286271999999999, power_w: 2.4777216, area_efficiency: 2.369131832797428 }"),
    ("fig12 Rh4II ComponentWise", "EngineEstimate { ring: Rh4II, nonlinearity: ComponentWise, multipliers: 23040, area_mm2: 15.286271999999999, power_w: 2.4777216, area_efficiency: 2.369131832797428 }"),
    ("fig12 Ro4I ComponentWise", "EngineEstimate { ring: Ro4I, nonlinearity: ComponentWise, multipliers: 23040, area_mm2: 15.286271999999999, power_w: 2.4777216, area_efficiency: 2.369131832797428 }"),
    ("fig12 Ro4II ComponentWise", "EngineEstimate { ring: Ro4II, nonlinearity: ComponentWise, multipliers: 23040, area_mm2: 15.286271999999999, power_w: 2.4777216, area_efficiency: 2.369131832797428 }"),
    ("fig12 Ri(4) DirectionalH", "EngineEstimate { ring: Ri(4), nonlinearity: DirectionalH, multipliers: 18432, area_mm2: 9.8196224, power_w: 1.58030208, area_efficiency: 3.6880434017503565 }"),
    ("sweep n=1", "SweepPoint { n: 1, clock_mhz: 250.0, area_mm2: 55.667904, power_w: 7.0177248, tops: 40.96, tops_per_watt: 5.83664950782909, overhead_fraction: 0.27715791131636647 }"),
    ("sweep n=2", "SweepPoint { n: 2, clock_mhz: 250.0, area_mm2: 35.093952, power_w: 3.8605024000000006, tops: 40.96, tops_per_watt: 10.61001801216339, overhead_fraction: 0.40809310960475464 }"),
    ("sweep n=4", "SweepPoint { n: 4, clock_mhz: 250.0, area_mm2: 23.571491555555554, power_w: 2.2658912, tops: 40.96, tops_per_watt: 18.076772618208675, overhead_fraction: 0.5371234132621523 }"),
    ("sweep n=8", "SweepPoint { n: 8, clock_mhz: 250.0, area_mm2: 17.92069688888889, power_w: 1.4866229333333334, tops: 40.96, tops_per_watt: 27.552380016201372, overhead_fraction: 0.6601528988158397 }"),
    ("sweep n=16", "SweepPoint { n: 16, clock_mhz: 250.0, area_mm2: 15.211424000000001, power_w: 1.1159648, tops: 40.96, tops_per_watt: 36.70366663894775, overhead_fraction: 0.7504359881099889 }"),
];

/// The three built configurations: eCNN and the two eRingCNNs.
fn configs() -> [AcceleratorConfig; 3] {
    [
        AcceleratorConfig::ecnn(),
        AcceleratorConfig::eringcnn_n2(),
        AcceleratorConfig::eringcnn_n4(),
    ]
}

/// The reports, one row each.
fn reports() -> Vec<(String, String)> {
    let t = TechParams::tsmc40();
    let mut rows = Vec::new();
    for cfg in configs() {
        let name = &cfg.name;
        rows.push((
            format!("layout {name}"),
            format!("{:?}", layout_report(&cfg, &t)),
        ));
        let mults = (cfg.physical_multipliers(), cfg.equivalent_macs_per_cycle());
        rows.push((format!("multipliers {name}"), format!("{mults:?}")));
        let e = efficiency_vs_ecnn(&cfg, &t);
        rows.push((format!("efficiency {name}"), format!("{e:?}")));
    }
    for e in fig12_engines(8) {
        let label = format!("fig12 {:?} {:?}", e.ring, e.nonlinearity);
        rows.push((label, format!("{e:?}")));
    }
    for p in sweep_n(&[1, 2, 4, 8, 16], &t) {
        rows.push((format!("sweep n={}", p.n), format!("{p:?}")));
    }
    rows
}

#[test]
fn every_table_number_is_pinned() {
    let rows = reports();
    let got: Vec<(&str, &str)> = rows.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    for (got, want) in got.iter().zip(PINNED) {
        assert_eq!(*got, want, "row as it stands: {got:?}");
    }
    assert_eq!(got.len(), PINNED.len());
}
