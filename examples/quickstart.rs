//! Quickstart: characterize one training workload end-to-end.
//!
//! Builds a feature record for a PS/Worker job, predicts its per-step
//! breakdown with the paper's analytical model (Sec. II-B), asks the
//! what-if question of Sec. III-C ("what if this ran on AllReduce-Local
//! with NVLink?") and prints both.
//!
//! Run with: `cargo run --example quickstart`

use alibaba_pai_workloads::core::project::{project, ProjectionTarget};
use alibaba_pai_workloads::core::{Architecture, PerfModel, WorkloadFeatures};
use alibaba_pai_workloads::hw::{Bytes, Flops};

fn main() {
    // A mid-size recommendation job: 32 workers, 2 GB of weights,
    // modest compute, heavy memory access.
    let job = WorkloadFeatures::builder(Architecture::PsWorker)
        .cnodes(32)
        .batch_size(512)
        .input_bytes(Bytes::from_mb(20.0))
        .weight_bytes(Bytes::from_gb(2.0))
        .flops(Flops::from_tera(0.6))
        .mem_access_bytes(Bytes::from_gb(40.0))
        .build();

    let model = PerfModel::paper_default();
    let ct = model.component_times(&job);
    let [data, weights, compute, memory] = ct.fractions();

    println!("workload: {job}");
    println!("predicted step breakdown ({}):", model.overlap());
    println!("  input data I/O : {}  ({:.1}%)", ct.data_io, data * 100.0);
    println!(
        "  weight traffic : {}  ({:.1}%)",
        ct.weight_traffic,
        weights * 100.0
    );
    println!(
        "  compute-bound  : {}  ({:.1}%)",
        ct.compute_bound,
        compute * 100.0
    );
    println!(
        "  memory-bound   : {}  ({:.1}%)",
        ct.memory_bound,
        memory * 100.0
    );
    println!("  total          : {}", ct.total);
    println!(
        "  throughput     : {:.0} samples/s (Eq. 2)",
        model.throughput(&job)
    );

    match project(&model, &job, ProjectionTarget::AllReduceLocal) {
        Some(out) => {
            println!(
                "\nprojected to AllReduce-Local ({} cNodes):",
                out.projected.cnodes()
            );
            println!("  step-time speedup : {:.2}x", out.single_cnode_speedup);
            println!("  throughput ratio  : {:.2}x", out.throughput_speedup);
            println!(
                "  verdict           : {}",
                if out.improves_throughput() {
                    "port it — NVLink pays off"
                } else {
                    "keep PS/Worker — the cNode cap costs more than NVLink saves"
                }
            );
        }
        None => println!("\nnot eligible for AllReduce (weights exceed GPU memory)"),
    }
}
