//! The registry of workloads the paper evaluates.

use mpi_sim::Program;
use powerpack::{
    comm_roundtrip_programs, cpu_bound_program, memory_bound_program, register_program,
    CommMicroConfig, MicroConfig,
};
use workloads::{
    cg_programs, ft_programs, mg_programs, mgrid_program, swim_program, transpose_programs,
    CgClass, CgConfig, FtClass, FtConfig, MgClass, MgConfig, SpecConfig, TransposeConfig,
};

/// A runnable workload with a fixed rank count.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// NAS FT, a class on a power-of-two rank count.
    Ft {
        /// NPB class.
        class: FtClass,
        /// Rank (= node) count.
        ranks: usize,
    },
    /// Scale benchmark: one iteration of class-C FT on a large
    /// power-of-two rank count (`ft-scale-256`/`-1024`/`-4096`).
    FtScale {
        /// Rank (= node) count.
        ranks: usize,
    },
    /// The 12K×12K parallel matrix transpose on 15 processors.
    Transpose {
        /// Transpose iterations.
        iterations: u32,
    },
    /// NAS CG (beyond-the-paper third application).
    Cg {
        /// NPB class.
        class: CgClass,
        /// Rank count.
        ranks: usize,
    },
    /// NAS MG (beyond-the-paper: nearest-neighbour halo pattern).
    Mg {
        /// NPB class.
        class: MgClass,
        /// Rank count.
        ranks: usize,
    },
    /// SPEC CFP2000 swim proxy (1 node).
    Swim,
    /// SPEC CFP2000 mgrid proxy (1 node).
    Mgrid,
    /// PowerPack memory-bound microbenchmark (1 node).
    MemoryMicro(MicroConfig),
    /// PowerPack CPU-bound (L2) microbenchmark (1 node).
    CpuMicro(MicroConfig),
    /// PowerPack register-only microbenchmark (1 node).
    RegisterMicro(MicroConfig),
    /// PowerPack communication ping-pong (2 nodes).
    Comm(CommMicroConfig),
}

impl Workload {
    /// The paper's FT class B on 8 nodes (Figure 3).
    pub fn ft_b8() -> Self {
        Workload::Ft {
            class: FtClass::B,
            ranks: 8,
        }
    }

    /// The paper's FT class C on 8 processors (Figure 4).
    pub fn ft_c8() -> Self {
        Workload::Ft {
            class: FtClass::C,
            ranks: 8,
        }
    }

    /// A tiny FT for tests and doc examples.
    pub fn ft_test(ranks: usize) -> Self {
        Workload::Ft {
            class: FtClass::Test,
            ranks,
        }
    }

    /// One class-C FT iteration on `ranks` nodes (scale benchmarking).
    pub fn ft_scale(ranks: usize) -> Self {
        Workload::FtScale { ranks }
    }

    /// NAS CG class B on 8 nodes (the extension workload).
    pub fn cg_b8() -> Self {
        Workload::Cg {
            class: CgClass::B,
            ranks: 8,
        }
    }

    /// NAS MG class B on 8 nodes (the halo-exchange extension workload).
    pub fn mg_b8() -> Self {
        Workload::Mg {
            class: MgClass::B,
            ranks: 8,
        }
    }

    /// The paper's transpose experiment (Figure 5).
    pub fn transpose_paper() -> Self {
        Workload::Transpose { iterations: 2 }
    }

    /// Number of ranks (and nodes) this workload needs.
    pub fn ranks(&self) -> usize {
        match self {
            Workload::Ft { ranks, .. } => *ranks,
            Workload::FtScale { ranks } => *ranks,
            Workload::Transpose { .. } => TransposeConfig::paper().ranks(),
            Workload::Cg { ranks, .. } => *ranks,
            Workload::Mg { ranks, .. } => *ranks,
            Workload::Swim | Workload::Mgrid => 1,
            Workload::MemoryMicro(_) | Workload::CpuMicro(_) | Workload::RegisterMicro(_) => 1,
            Workload::Comm(_) => 2,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            Workload::Ft { class, ranks } => format!("FT.{class:?} on {ranks} nodes"),
            Workload::FtScale { ranks } => format!("FT.C x1 iter on {ranks} nodes"),
            Workload::Transpose { .. } => "12Kx12K transpose on 15 nodes".to_string(),
            Workload::Cg { class, ranks } => format!("CG.{class:?} on {ranks} nodes"),
            Workload::Mg { class, ranks } => format!("MG.{class:?} on {ranks} nodes"),
            Workload::Swim => "swim (sequential)".to_string(),
            Workload::Mgrid => "mgrid (sequential)".to_string(),
            Workload::MemoryMicro(_) => "memory microbenchmark".to_string(),
            Workload::CpuMicro(_) => "CPU (L2) microbenchmark".to_string(),
            Workload::RegisterMicro(_) => "register microbenchmark".to_string(),
            Workload::Comm(c) => format!("comm microbenchmark ({}B)", c.message_bytes),
        }
    }

    /// Parse a CLI/wire workload name (`ft-test4`, `ft-scale-1024`,
    /// `mem-micro`, ...). This is the single name registry: the CLI and
    /// the sweep-service protocol — which carries workloads by name so a
    /// client and daemon agree on fingerprints by construction — both
    /// resolve through it.
    pub fn parse_name(name: &str) -> Result<Workload, String> {
        // `ft-scale-<ranks>`: one class-C FT iteration on a large
        // power-of-two rank count (the scale benchmark family).
        if let Some(ranks) = name.strip_prefix("ft-scale-") {
            let ranks: usize = ranks
                .parse()
                .map_err(|_| format!("bad rank count in '{name}'"))?;
            if !ranks.is_power_of_two() {
                return Err(format!("'{name}': FT needs a power-of-two rank count"));
            }
            return Ok(Workload::ft_scale(ranks));
        }
        let w = match name {
            "ft-a8" => Workload::Ft {
                class: FtClass::A,
                ranks: 8,
            },
            "ft-b8" => Workload::ft_b8(),
            "ft-c8" => Workload::ft_c8(),
            "ft-test4" => Workload::ft_test(4),
            "cg-a8" => Workload::Cg {
                class: CgClass::A,
                ranks: 8,
            },
            "cg-b8" => Workload::cg_b8(),
            "mg-a8" => Workload::Mg {
                class: MgClass::A,
                ranks: 8,
            },
            "mg-b8" => Workload::mg_b8(),
            "transpose" => Workload::transpose_paper(),
            "swim" => Workload::Swim,
            "mgrid" => Workload::Mgrid,
            "mem-micro" => Workload::MemoryMicro(MicroConfig::default()),
            "cpu-micro" => Workload::CpuMicro(MicroConfig { passes: 400_000 }),
            "comm-256k" => Workload::Comm(CommMicroConfig::paper_256k()),
            "comm-4k" => Workload::Comm(CommMicroConfig::paper_4k_strided()),
            other => return Err(format!("unknown workload '{other}' (try `pwrperf list`)")),
        };
        Ok(w)
    }

    /// Known workload names (for `pwrperf list` and error hints).
    pub fn names() -> &'static [&'static str] {
        &[
            "ft-a8",
            "ft-b8",
            "ft-c8",
            "ft-test4",
            "ft-scale-256",
            "ft-scale-1024",
            "ft-scale-4096",
            "cg-a8",
            "cg-b8",
            "mg-a8",
            "mg-b8",
            "transpose",
            "swim",
            "mgrid",
            "mem-micro",
            "cpu-micro",
            "comm-256k",
            "comm-4k",
        ]
    }

    /// Build per-rank programs, with dynamic-DVS instrumentation when the
    /// strategy calls for it (ignored by workloads the paper never
    /// instrumented).
    pub fn programs(&self, dynamic_instrumentation: bool) -> Vec<Program> {
        match self {
            Workload::Ft { class, ranks } => {
                let mut cfg = FtConfig::paper(*class, *ranks);
                cfg.dynamic_dvs = dynamic_instrumentation;
                ft_programs(&cfg)
            }
            Workload::FtScale { ranks } => {
                let mut cfg = FtConfig::scale(*ranks);
                cfg.dynamic_dvs = dynamic_instrumentation;
                ft_programs(&cfg)
            }
            Workload::Transpose { iterations } => {
                let mut cfg = TransposeConfig::paper();
                cfg.iterations = *iterations;
                cfg.dynamic_dvs = dynamic_instrumentation;
                transpose_programs(&cfg)
            }
            Workload::Cg { class, ranks } => {
                let mut cfg = CgConfig::paper_style(*class, *ranks);
                cfg.dynamic_dvs = dynamic_instrumentation;
                cg_programs(&cfg)
            }
            Workload::Mg { class, ranks } => {
                let mut cfg = MgConfig::paper_style(*class, *ranks);
                cfg.dynamic_dvs = dynamic_instrumentation;
                mg_programs(&cfg)
            }
            Workload::Swim => vec![swim_program(&SpecConfig::paper())],
            Workload::Mgrid => vec![mgrid_program(&SpecConfig::paper())],
            Workload::MemoryMicro(cfg) => vec![memory_bound_program(cfg)],
            Workload::CpuMicro(cfg) => vec![cpu_bound_program(cfg)],
            Workload::RegisterMicro(cfg) => vec![register_program(cfg)],
            Workload::Comm(cfg) => comm_roundtrip_programs(cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_counts_match_paper_experiments() {
        assert_eq!(Workload::ft_b8().ranks(), 8);
        assert_eq!(Workload::ft_c8().ranks(), 8);
        assert_eq!(Workload::transpose_paper().ranks(), 15);
        assert_eq!(Workload::Swim.ranks(), 1);
        assert_eq!(Workload::Comm(CommMicroConfig::paper_256k()).ranks(), 2);
    }

    #[test]
    fn programs_match_rank_count() {
        for w in [
            Workload::ft_test(4),
            Workload::Swim,
            Workload::Comm(CommMicroConfig::paper_4k_strided()),
        ] {
            assert_eq!(w.programs(false).len(), w.ranks(), "{}", w.label());
        }
    }

    #[test]
    fn instrumentation_flag_reaches_ft() {
        let plain = Workload::ft_test(2).programs(false);
        let inst = Workload::ft_test(2).programs(true);
        assert!(inst[0].len() > plain[0].len());
    }

    #[test]
    fn every_listed_name_parses() {
        for name in Workload::names() {
            assert!(Workload::parse_name(name).is_ok(), "{name}");
        }
        assert!(Workload::parse_name("ft-scale-512").is_ok());
        assert!(
            Workload::parse_name("ft-scale-100").is_err(),
            "not a power of two"
        );
        assert!(Workload::parse_name("no-such-workload").is_err());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = [
            Workload::ft_b8(),
            Workload::ft_c8(),
            Workload::transpose_paper(),
            Workload::Swim,
            Workload::Mgrid,
        ]
        .iter()
        .map(|w| w.label())
        .collect();
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len());
    }
}
