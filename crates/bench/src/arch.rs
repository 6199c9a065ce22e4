//! The four architectures of the paper's study.

use racc_core::Context;

/// One of the four platforms the paper evaluates (its §V hardware table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// AMD EPYC 7742 Rome, 64 cores (`Base.Threads` back end).
    CpuRome,
    /// AMD MI100 (AMDGPU back end).
    Mi100,
    /// NVIDIA A100 (CUDA back end).
    A100,
    /// Intel Data Center Max 1550 (oneAPI back end).
    Max1550,
}

impl Arch {
    /// All four, in the paper's presentation order.
    pub fn all() -> [Arch; 4] {
        [Arch::CpuRome, Arch::Mi100, Arch::A100, Arch::Max1550]
    }

    /// Short column label.
    pub fn label(&self) -> &'static str {
        match self {
            Arch::CpuRome => "rome-cpu",
            Arch::Mi100 => "mi100",
            Arch::A100 => "a100",
            Arch::Max1550 => "max1550",
        }
    }

    /// The RACC backend key for this architecture.
    pub fn backend_key(&self) -> &'static str {
        match self {
            Arch::CpuRome => "threads",
            Arch::Mi100 => "hipsim",
            Arch::A100 => "cudasim",
            Arch::Max1550 => "oneapisim",
        }
    }

    /// Build a RACC context on this architecture.
    pub fn context(&self) -> Context<racc::AnyBackend> {
        racc::context_for(self.backend_key()).expect("known backend key")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_keys_are_consistent() {
        for arch in Arch::all() {
            let ctx = arch.context();
            assert_eq!(ctx.key(), arch.backend_key());
            assert!(!arch.label().is_empty());
        }
    }

    #[test]
    fn gpu_archs_are_accelerators() {
        assert!(!Arch::CpuRome.context().is_accelerator());
        assert!(Arch::Mi100.context().is_accelerator());
        assert!(Arch::A100.context().is_accelerator());
        assert!(Arch::Max1550.context().is_accelerator());
    }
}
