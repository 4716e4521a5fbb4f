//! Instruction-mix measurement, for validating that each kernel's
//! microarchitectural signature resembles its SPEC95 counterpart.

use reese_cpu::Emulator;
use reese_isa::{OpKind, Program};
use std::fmt;

/// Dynamic instruction mix of a program run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MixReport {
    /// Total dynamic instructions.
    pub total: u64,
    /// Plain integer ALU operations.
    pub int_alu: u64,
    /// Integer multiplies/divides.
    pub int_muldiv: u64,
    /// Floating-point operations.
    pub fp: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Taken conditional branches.
    pub branches_taken: u64,
    /// Unconditional jumps.
    pub jumps: u64,
}

impl MixReport {
    /// Fraction of loads + stores.
    pub fn mem_fraction(&self) -> f64 {
        self.frac(self.loads + self.stores)
    }

    /// Fraction of conditional branches.
    pub fn branch_fraction(&self) -> f64 {
        self.frac(self.branches)
    }

    /// Fraction of integer multiplies/divides.
    pub fn muldiv_fraction(&self) -> f64 {
        self.frac(self.int_muldiv)
    }

    /// Fraction of taken branches among conditional branches.
    pub fn taken_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.branches_taken as f64 / self.branches as f64
        }
    }

    fn frac(&self, n: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            n as f64 / self.total as f64
        }
    }
}

impl fmt::Display for MixReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} insns: {:.1}% mem ({:.1}% ld / {:.1}% st), {:.1}% branch ({:.0}% taken), {:.1}% mul/div, {:.1}% fp",
            self.total,
            self.mem_fraction() * 100.0,
            self.frac(self.loads) * 100.0,
            self.frac(self.stores) * 100.0,
            self.branch_fraction() * 100.0,
            self.taken_rate() * 100.0,
            self.muldiv_fraction() * 100.0,
            self.frac(self.fp) * 100.0,
        )
    }
}

/// Measures the dynamic instruction mix of `program` by functional
/// execution (up to `max_instructions`).
///
/// # Example
///
/// ```
/// let prog = reese_isa::assemble("  li t0, 4\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n")?;
/// let mix = reese_workloads::measure_mix(&prog, 1_000);
/// assert_eq!(mix.total, 10);
/// assert_eq!(mix.branches, 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn measure_mix(program: &Program, max_instructions: u64) -> MixReport {
    let mut emu = Emulator::new(program);
    let mut mix = MixReport::default();
    for _ in 0..max_instructions {
        let Ok(info) = emu.step() else { break };
        mix.total += 1;
        let op = info.instr.op;
        match op.kind() {
            OpKind::Load => mix.loads += 1,
            OpKind::Store => mix.stores += 1,
            OpKind::Branch => {
                mix.branches += 1;
                if info.taken {
                    mix.branches_taken += 1;
                }
            }
            OpKind::Jump => mix.jumps += 1,
            OpKind::Alu | OpKind::System => match op.fu_class() {
                reese_isa::FuClass::IntMulDiv => mix.int_muldiv += 1,
                reese_isa::FuClass::FpAlu | reese_isa::FuClass::FpMulDiv => mix.fp += 1,
                _ => mix.int_alu += 1,
            },
        }
        // Stop where the emulator halts: a native `halt` or an rv32i
        // exit `ecall`.
        if emu.exit_code().is_some() {
            break;
        }
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_isa::assemble;

    #[test]
    fn counts_kinds() {
        let prog = assemble(
            "  li t0, 2\n  sd t0, -8(sp)\n  ld t1, -8(sp)\n  mul t2, t1, t1\n  beqz x0, next\nnext: halt\n",
        )
        .unwrap();
        let m = measure_mix(&prog, 100);
        assert_eq!(m.total, 6);
        assert_eq!(m.loads, 1);
        assert_eq!(m.stores, 1);
        assert_eq!(m.int_muldiv, 1);
        assert_eq!(m.branches, 1);
        assert_eq!(m.branches_taken, 1);
        assert!((m.mem_fraction() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn limit_respected() {
        let prog = assemble("loop: j loop\n  halt\n").unwrap();
        let m = measure_mix(&prog, 25);
        assert_eq!(m.total, 25);
        assert_eq!(m.jumps, 25);
    }

    #[test]
    fn rv32_mix_stops_at_the_exit_ecall() {
        for kernel in crate::rv32::Rv32Kernel::ALL {
            let prog = kernel.build(1);
            let run = Emulator::new(&prog).run(10_000_000).unwrap();
            assert!(run.halted(), "{kernel} must exit");
            let m = measure_mix(&prog, 10_000_000);
            assert_eq!(m.total, run.instructions, "{kernel}");
        }
    }

    #[test]
    fn display_nonempty() {
        let m = MixReport {
            total: 10,
            loads: 3,
            ..Default::default()
        };
        assert!(m.to_string().contains("30.0% ld"));
    }
}
