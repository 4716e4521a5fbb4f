//! The mini RISC instruction set used by the REESE reproduction.
//!
//! This crate plays the role SimpleScalar's PISA definition and
//! assembler toolchain play for the original paper: it defines a small
//! 64-bit load/store ISA (32 integer + 32 floating-point registers),
//! a fixed-width binary encoding, a text assembler, a disassembler, and
//! a programmatic [`ProgramBuilder`] the synthetic workloads are written
//! against.
//!
//! # Quick tour
//!
//! ```
//! use reese_isa::{abi::*, assemble, ProgramBuilder};
//!
//! // Text assembly…
//! let prog = assemble("  li a0, 3\n  halt\n")?;
//! assert_eq!(prog.len(), 2);
//!
//! // …or programmatic code generation.
//! let mut b = ProgramBuilder::new();
//! b.li(A0, 3);
//! b.halt();
//! let prog2 = b.build().unwrap();
//! assert_eq!(prog.text(), prog2.text());
//! # Ok::<(), reese_isa::AsmError>(())
//! ```

mod asm;
mod builder;
mod disasm;
mod encode;
mod instr;
mod isa;
mod opcode;
mod program;
mod reg;
pub mod rv32i;

pub use asm::{assemble, AsmError};
pub use builder::{BuildError, Label, ProgramBuilder};
pub use disasm::{disassemble, disassemble_text};
pub use encode::{decode, decode_text, encode, encode_text, DecodeError, EncodeError};
pub use instr::Instr;
pub use isa::{Isa, IsaId, NativeIsa, Rv32iIsa};
pub use opcode::{FuClass, MemWidth, OpKind, Opcode};
pub use program::{Program, DATA_BASE, MAX_DATA_BYTES, STACK_TOP, TEXT_BASE};
pub use reg::{abi, Reg, NUM_FP_REGS, NUM_INT_REGS, NUM_REGS};
