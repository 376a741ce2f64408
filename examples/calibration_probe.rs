//! Calibration probe: print every paper experiment's normalized
//! energy-delay series next to nothing but the raw model — the tool used
//! to fit the power-model constants (see DESIGN.md and EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release --example calibration_probe
//! ```

use powerpack::{CommMicroConfig, MicroConfig};
use pwrperf::{cpuspeed_point, dynamic_crescendo, static_crescendo, Workload};

fn show(name: &str, c: &edp_metrics::Crescendo) {
    print!("{name:14}");
    for (mhz, e, d) in c.normalized() {
        print!("  {mhz}: E={e:.3} D={d:.3}");
    }
    println!();
}

#[expect(
    clippy::disallowed_methods,
    reason = "times each probe section on the host clock; no timing feeds a modelled number"
)]
fn main() {
    let t0 = std::time::Instant::now();
    let mem = static_crescendo(&Workload::MemoryMicro(MicroConfig { passes: 100 }));
    show("memory", &mem);
    let cpu = static_crescendo(&Workload::CpuMicro(MicroConfig { passes: 100 }));
    show("cpu(L2)", &cpu);
    let reg = static_crescendo(&Workload::RegisterMicro(MicroConfig { passes: 100 }));
    show("register", &reg);
    let c256 = static_crescendo(&Workload::Comm(CommMicroConfig {
        round_trips: 50,
        ..CommMicroConfig::paper_256k()
    }));
    show("comm256k", &c256);
    let c4k = static_crescendo(&Workload::Comm(CommMicroConfig {
        round_trips: 200,
        ..CommMicroConfig::paper_4k_strided()
    }));
    show("comm4k", &c4k);
    println!("micro took {:?}", t0.elapsed());

    let t1 = std::time::Instant::now();
    let ftb = static_crescendo(&Workload::ft_b8());
    show("FT.B stat", &ftb);
    let (e, d) = cpuspeed_point(&Workload::ft_b8());
    let r = ftb.points().iter().find(|p| p.mhz == 1400).unwrap();
    println!(
        "FT.B cpuspeed: E={:.3} D={:.3}",
        e / r.energy_j,
        d / r.delay_s
    );
    println!("FT.B took {:?}", t1.elapsed());

    let t2 = std::time::Instant::now();
    let ftc = static_crescendo(&Workload::ft_c8());
    show("FT.C stat", &ftc);
    let ftcd = dynamic_crescendo(&Workload::ft_c8());
    let rc = ftc.points().iter().find(|p| p.mhz == 1400).unwrap();
    print!("FT.C dyn    ");
    for p in ftcd.points() {
        print!(
            "  {}: E={:.3} D={:.3}",
            p.mhz,
            p.energy_j / rc.energy_j,
            p.delay_s / rc.delay_s
        );
    }
    println!();
    let (e, d) = cpuspeed_point(&Workload::ft_c8());
    println!(
        "FT.C cpuspeed: E={:.3} D={:.3}",
        e / rc.energy_j,
        d / rc.delay_s
    );
    println!("FT.C took {:?}", t2.elapsed());

    let t3 = std::time::Instant::now();
    let tr = static_crescendo(&Workload::transpose_paper());
    show("transp stat", &tr);
    let trd = dynamic_crescendo(&Workload::transpose_paper());
    let rt = tr.points().iter().find(|p| p.mhz == 1400).unwrap();
    print!("transp dyn  ");
    for p in trd.points() {
        print!(
            "  {}: E={:.3} D={:.3}",
            p.mhz,
            p.energy_j / rt.energy_j,
            p.delay_s / rt.delay_s
        );
    }
    println!();
    let (e, d) = cpuspeed_point(&Workload::transpose_paper());
    println!(
        "transp cpuspeed: E={:.3} D={:.3}",
        e / rt.energy_j,
        d / rt.delay_s
    );
    println!("transpose took {:?}", t3.elapsed());

    let sw = static_crescendo(&Workload::Swim);
    show("swim", &sw);
    let mg = static_crescendo(&Workload::Mgrid);
    show("mgrid", &mg);
}
