//! Figure 7: classification accuracy vs per-flow storage for the three
//! CNN-L variants (28 / 44 / 72 stateful bits), with the SRAM cost of
//! supporting 1 M concurrent flows.
//!
//! Run: `cargo run -p pegasus-bench --bin fig7 --release [-- --quick]`

use pegasus_bench::harness::prepare;
use pegasus_bench::{parse_args, write_report};
use pegasus_core::compile::CompileOptions;
use pegasus_core::models::cnn_l::{CnnL, CnnLVariant};
use pegasus_core::models::ModelData;
use pegasus_core::pipeline::Pegasus;
use pegasus_datasets::all_datasets;
use pegasus_switch::SwitchConfig;

fn main() {
    let cfg = parse_args();
    let switch = SwitchConfig::tofino2();
    let variants = [
        ("28-bit", CnnLVariant::v28()),
        ("44-bit", CnnLVariant::v44()),
        ("72-bit", CnnLVariant::v72()),
    ];

    let mut out = String::new();
    out.push_str("Figure 7: accuracy vs per-flow storage (CNN-L variants)\n\n");
    out.push_str(&format!(
        "{:<8} {:>13} {:>16} | {:>9} {:>9} {:>9}\n",
        "Variant", "bits/flow", "SRAM @1M flows", "PeerRush", "CICIOT", "ISCXVPN"
    ));
    out.push_str(&"-".repeat(72));
    out.push('\n');

    let datasets: Vec<_> = all_datasets().iter().map(|s| prepare(s, &cfg)).collect();
    let settings = cfg.train_settings();
    let opts =
        CompileOptions { clustering_depth: if cfg.quick { 5 } else { 6 }, ..Default::default() };

    for (name, variant) in variants {
        let mut f1s = Vec::new();
        for data in &datasets {
            eprintln!("[fig7] CNN-L {name} on {} ...", data.name);
            let m = CnnL::fit(&data.train.raw, &data.train.seq, variant, &settings);
            let bundle = ModelData::new().with_raw(&data.train.raw).with_seq(&data.train.seq);
            let dp = Pegasus::new(m)
                .options(opts.clone())
                .compile(&bundle)
                .expect("compiles")
                .deploy(&switch)
                .expect("CNN-L variant deploys");
            let f1 = CnnL::evaluate_on_trace(dp.flow().expect("per-flow"), &data.test_trace)
                .expect("replays")
                .f1;
            f1s.push(f1);
        }
        // Physical register bits at 1M flows (packing per footnote 2).
        let physical = switch.physical_register_bits(variant.stateful_bits()) * 1_000_000;
        let frac = physical as f64 / switch.register_bits_total as f64 * 100.0;
        out.push_str(&format!(
            "{:<8} {:>13} {:>14.1}% | {:>9.4} {:>9.4} {:>9.4}\n",
            name,
            variant.stateful_bits(),
            frac,
            f1s[0],
            f1s[1],
            f1s[2]
        ));
    }
    println!("{out}");
    if let Some(p) = write_report("fig7", &out) {
        eprintln!("[fig7] written to {}", p.display());
    }
}
