//! Live serving with hot model reload — the paper's production story.
//!
//! One long-lived [`EngineServer`] serves two tenants at once, the way a
//! switch pipeline serves multiple models behind one program:
//!
//! * **vpn** — the CNN-L per-flow windowed pipeline (44 stateful bits per
//!   flow) classifying encrypted VPN traffic on dst port 443;
//! * **p2p** — the MLP-B statistical-feature pipeline classifying P2P
//!   traffic on everything else.
//!
//! Mid-run, the control plane hot-swaps the **vpn** tenant onto a
//! retrained CNN-L artifact — the paper's table-entry rewrite: no
//! recompile, no traffic drain. The apply is an epoch/RCU publication
//! each shard adopts at its next packet boundary, the other tenant's
//! packets keep flowing (none dropped), and the swapped tenant's
//! per-flow register files stay exactly where they are — only the program
//! each shard runs changes — so its established flows keep classifying
//! without re-warming.
//!
//! Run: `cargo run --example live_reload --release`

use pegasus::core::compile::CompileOptions;
use pegasus::core::models::cnn_l::{CnnL, CnnLVariant};
use pegasus::core::models::mlp_b::MlpB;
use pegasus::core::models::{ModelData, TrainSettings};
use pegasus::core::{EngineBuilder, EngineStats, Pegasus, PegasusError, TenantConfig};
use pegasus::datasets::{extract_views, generate_trace, iscxvpn, peerrush, GenConfig};
use pegasus::net::RoutePredicate;
use pegasus::switch::SwitchConfig;

fn print_stats(label: &str, stats: &EngineStats) {
    println!("[{label}] live stats:");
    for t in &stats.tenants {
        println!(
            "  tenant '{}' (epoch {}): {} pkts over {} flows at {:.0} pps, \
             {} classified / {} warm-up, p99 {} ns",
            t.name,
            t.epoch,
            t.report.packets,
            t.report.flows,
            t.report.pps(),
            t.report.classified,
            t.report.warmup,
            t.report.latency.quantile_nanos(0.99),
        );
        let table = &t.report.table;
        println!(
            "    flow table: occupancy {}/{} slots, evictions {} idle + {} capacity, \
             {} alias collisions, {} state bytes",
            table.occupancy,
            table.capacity,
            table.evictions_idle,
            table.evictions_capacity,
            table.alias_collisions,
            table.state_bytes,
        );
        // The per-tenant occupancy/eviction counters must be coherent —
        // CI runs this example as an assertion harness.
        assert!(table.capacity > 0, "tenant '{}' reports no flow-table capacity", t.name);
        assert!(table.occupancy <= table.capacity, "occupancy cannot exceed capacity");
        assert_eq!(table.occupancy, t.report.flows, "flows metric IS table occupancy");
    }
    println!("  unrouted: {}", stats.unrouted);
}

fn main() -> Result<(), PegasusError> {
    // --- Two workloads, one wire. -------------------------------------
    // ISCXVPN-like traffic lives on dst port 443; peerrush-like P2P on
    // high ports. Merged and re-sorted, they form one packet stream.
    let vpn_spec = iscxvpn();
    let p2p_spec = peerrush();
    let vpn_trace = generate_trace(&vpn_spec, &GenConfig { flows_per_class: 10, seed: 31 });
    let p2p_trace = generate_trace(&p2p_spec, &GenConfig { flows_per_class: 14, seed: 32 });
    let mut wire = vpn_trace.clone();
    wire.merge(p2p_trace.clone());
    println!(
        "wire: {} packets ({} vpn + {} p2p) over {} flows",
        wire.len(),
        vpn_trace.len(),
        p2p_trace.len(),
        wire.flow_count()
    );

    // --- Train + compile + deploy both tenants' models. ---------------
    let settings = TrainSettings::quick();
    let vpn_views = extract_views(&vpn_trace);
    let vpn_data = ModelData::new().with_raw(&vpn_views.raw).with_seq(&vpn_views.seq);
    let opts = CompileOptions { clustering_depth: 6, ..Default::default() };
    let vpn_v1 =
        Pegasus::new(CnnL::fit(&vpn_views.raw, &vpn_views.seq, CnnLVariant::v44(), &settings))
            .options(opts.clone())
            .compile(&vpn_data)?
            .deploy(&SwitchConfig::tofino2())?;

    let p2p_views = extract_views(&p2p_trace);
    let p2p_data = ModelData::new().with_stat(&p2p_views.stat);
    let p2p = Pegasus::<MlpB>::train(&p2p_data, &settings)?
        .options(CompileOptions { clustering_depth: 5, ..Default::default() })
        .compile(&p2p_data)?
        .deploy(&SwitchConfig::tofino2())?;

    // The artifact the control plane will swap in mid-run: a retrained
    // CNN-L of the same pipeline shape (fresh seed, same variant).
    let retrain_settings = TrainSettings { seed: 99, ..settings };
    let vpn_v2 = Pegasus::new(CnnL::fit(
        &vpn_views.raw,
        &vpn_views.seq,
        CnnLVariant::v44(),
        &retrain_settings,
    ))
    .options(opts)
    .compile(&vpn_data)?
    .deploy(&SwitchConfig::tofino2())?;

    // --- Build the long-lived engine and attach both tenants. ---------
    let server = EngineBuilder::new().shards(2).batch(128).build()?;
    let control = server.control();
    let ingress = server.ingress();
    let vpn_tenant = control.attach(
        vpn_v1.engine_artifact()?,
        TenantConfig::new().name("vpn").route(RoutePredicate::DstPort(443)),
    )?;
    // The p2p tenant runs under an explicit per-tenant state budget: 512
    // host flow-table slots per shard, idle flows aged out after 100k
    // packets without traffic. attach() validates the budget against the
    // switch model's stateful SRAM before any shard allocates a slab.
    let p2p_tenant = control.attach(
        p2p.engine_artifact()?,
        TenantConfig::new()
            .name("p2p")
            .route(RoutePredicate::Any)
            .flow_capacity(512)
            .idle_timeout_packets(100_000),
    )?;
    println!(
        "attached tenants: vpn (#{}, CNN-L, dst-port 443) and p2p (#{}, MLP-B, catch-all, \
         512-slot budget)",
        vpn_tenant.id(),
        p2p_tenant.id()
    );

    // --- Serve: first half, swap, second half. -------------------------
    let split = wire.len() / 2;
    for pkt in &wire.packets[..split] {
        ingress.push(pkt.clone())?;
    }
    ingress.flush()?;
    // Stats are worker-published (every 1024 packets and on idle), not
    // polled from the workers — give the shards a beat to drain the queue
    // so the snapshot reflects the first half.
    let mut stats = control.stats()?;
    for _ in 0..100 {
        if stats.tenants.iter().all(|t| t.report.packets > 0) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        stats = control.stats()?;
    }
    print_stats("pre-swap", &stats);
    let flows_before = stats.tenant(vpn_tenant).map(|t| t.report.flows).unwrap_or(0);

    let swap = control.swap(vpn_tenant, vpn_v2.engine_artifact()?)?;
    println!(
        "hot-swapped 'vpn' to the retrained artifact: epoch {}, per-flow state retained: {}",
        swap.epoch, swap.state_retained
    );
    assert!(swap.state_retained, "same-shape CNN-L swap must keep register files");

    for pkt in &wire.packets[split..] {
        ingress.push(pkt.clone())?;
    }
    ingress.flush()?;
    print_stats("post-swap", &control.stats()?);

    // --- Drain and verify no one lost a packet or its flow state. -----
    let mut report = server.shutdown()?;
    let vpn_final = report.take_tenant(vpn_tenant).expect("vpn report");
    let p2p_final = report.take_tenant(p2p_tenant).expect("p2p report");
    let vpn_report = vpn_final.result?;
    let p2p_report = p2p_final.result?;
    assert_eq!(
        p2p_final.routed_packets, p2p_report.packets,
        "the untouched tenant must not drop packets across the neighbor's swap"
    );
    assert_eq!(vpn_final.routed_packets, vpn_report.packets);
    assert!(
        vpn_report.flows >= flows_before,
        "swap must not reset the vpn tenant's flow table ({} -> {})",
        flows_before,
        vpn_report.flows
    );
    // Per-tenant flow tables carry their configured bounds all the way to
    // the terminal report: p2p's 512-slot budget times 2 shards, and vpn's
    // capacity fixed by CNN-L's register file (2^flow_slots_log2 per
    // shard) — with its hash-collision count surfaced.
    assert_eq!(p2p_report.table.capacity, 512 * 2, "p2p capacity is the configured budget");
    let vpn_slots = vpn_v2.flow().expect("flow plane").flow_slots() as u64;
    assert_eq!(vpn_report.table.capacity, vpn_slots * 2, "vpn capacity is the register file");
    println!(
        "final: vpn {} pkts / {} flows (epoch {}, {} alias collisions), \
         p2p {} pkts / {} flows ({} evictions) — no drops, state kept",
        vpn_report.packets,
        vpn_report.flows,
        vpn_final.epoch,
        vpn_report.table.alias_collisions,
        p2p_report.packets,
        p2p_report.flows,
        p2p_report.table.evictions(),
    );
    Ok(())
}
