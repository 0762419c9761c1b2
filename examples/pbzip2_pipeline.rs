//! The paper's flagship workload: a Pbzip2-style compression pipeline
//! (read → compress × N → write, Figure 6) running on the real GPRS
//! runtime under fault injection, with byte-exact output verified by
//! decompression — and the same program run on the coordinated-CPR
//! baseline executor for comparison.
//!
//! ```sh
//! cargo run --release -p gprs-workloads --example pbzip2_pipeline
//! ```

use gprs_core::exception::ExceptionKind;
use gprs_runtime::cpr::CprBuilder;
use gprs_runtime::GprsBuilder;
use gprs_workloads::kernels::compress::generate_corpus;
use gprs_workloads::programs::{build_pbzip_pipeline, decode_pbzip_output};
use std::time::Instant;

const INPUT_BYTES: usize = 4 * 1024 * 1024;
const BLOCK: usize = 4096;
const COMPRESSORS: u64 = 4;

fn main() {
    let input = generate_corpus(INPUT_BYTES, 2024);
    println!("Pbzip2 pipeline: {INPUT_BYTES} bytes, {COMPRESSORS} compressors\n");

    // ---- Fault-free GPRS reference: its retired-order hash is the
    // determinism yardstick the recovered run must reproduce.
    let mut rb = GprsBuilder::new().workers(4);
    build_pbzip_pipeline(&mut rb, input.clone(), BLOCK, COMPRESSORS);
    let reference = rb.build().run().expect("fault-free run completes");

    // ---- GPRS with selective restart under continuous fault injection.
    let mut b = GprsBuilder::new().workers(4);
    let (file, _) = build_pbzip_pipeline(&mut b, input.clone(), BLOCK, COMPRESSORS);
    let gprs = b.build();
    let ctl = gprs.controller();
    let injector = std::thread::spawn(move || {
        let mut n = 0;
        while !ctl.is_finished() {
            if ctl.inject_on_busy(ExceptionKind::VoltageEmergency) {
                n += 1;
            }
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        n
    });
    let t0 = Instant::now();
    let report = gprs.run().expect("GPRS run completes");
    let gprs_time = t0.elapsed();
    let injected = injector.join().unwrap();
    let compressed = report.file_contents(file.index()).to_vec();
    let decoded = decode_pbzip_output(&compressed).expect("valid archive");
    assert_eq!(decoded, input, "GPRS output must decompress byte-exact");

    println!("GPRS   (selective restart):");
    println!("  wall time:            {gprs_time:?}");
    println!(
        "  compressed:           {} -> {} bytes ({:.1}%)",
        input.len(),
        compressed.len(),
        100.0 * compressed.len() as f64 / input.len() as f64
    );
    println!("  exceptions injected:  {injected}");
    println!("  recoveries:           {}", report.stats.recoveries);
    println!("  sub-threads squashed: {}", report.stats.squashed);
    println!("  sub-threads total:    {}", report.stats.subthreads);
    println!("  ✓ decompressed output identical to input");
    println!(
        "  retired hash:         {:#018x} (fault-free {:#018x})",
        report.telemetry.retired_hash, reference.telemetry.retired_hash
    );
    assert_eq!(
        report.telemetry.retired_hash, reference.telemetry.retired_hash,
        "recovered run must retire in the fault-free order"
    );
    println!("  ✓ retired order identical to the fault-free run\n");

    // ---- The same program on the CPR baseline, same injection pressure.
    let mut cb = CprBuilder::new().workers(4).checkpoint_every(64);
    let (cfile, _) = build_pbzip_pipeline(&mut cb, input.clone(), BLOCK, COMPRESSORS);
    let cpr = cb.build();
    let cctl = cpr.controller();
    let injector = std::thread::spawn(move || {
        let mut n = 0;
        while !cctl.is_finished() {
            cctl.inject();
            n += 1;
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        n
    });
    let t0 = Instant::now();
    let creport = cpr.run().expect("CPR run completes");
    let cpr_time = t0.elapsed();
    let cinjected = injector.join().unwrap();
    let cdecoded =
        decode_pbzip_output(&creport.files[&cfile.index()].1).expect("valid archive");
    assert_eq!(cdecoded, input, "CPR output must decompress byte-exact");

    println!("P-CPR  (coordinated checkpoint-and-recovery):");
    println!("  wall time:            {cpr_time:?}");
    println!("  exceptions injected:  {cinjected}");
    println!("  global rollbacks:     {}", creport.rollbacks);
    println!("  checkpoints taken:    {}", creport.checkpoints);
    println!("  ✓ decompressed output identical to input\n");

    println!(
        "Note the asymmetry: each CPR exception rolled the WHOLE pipeline back \
         to the last coordinated checkpoint, while each GPRS exception squashed \
         only the affected sub-threads ({} squashed across {} recoveries).",
        report.stats.squashed, report.stats.recoveries
    );
}
