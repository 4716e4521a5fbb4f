//! Binary instruction encoding.
//!
//! Each instruction is one little-endian 64-bit word:
//!
//! ```text
//! bits  0..8    opcode byte (stable discriminant from [`Opcode`])
//! bits  8..16   rd   (unified register index, 0..64)
//! bits 16..24   rs1
//! bits 24..32   rs2
//! bits 32..64   imm  (two's-complement i32)
//! ```
//!
//! The fixed-width format keeps fetch and decode trivial while still
//! giving the simulators a real binary representation to load, and it
//! round-trips exactly: `decode(encode(i)) == i.canonical()`.

use crate::{Instr, Opcode, Reg};
use std::fmt;

/// Error produced when decoding a malformed instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode byte does not name any instruction.
    BadOpcode(u8),
    /// A register field is out of the 64-entry architectural space.
    BadRegister(u8),
    /// A flat text image of this many bytes, which is not a whole
    /// number of instructions.
    Truncated(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode(b) => write!(f, "unknown opcode byte {b:#04x}"),
            DecodeError::BadRegister(r) => write!(f, "register index {r} out of range"),
            DecodeError::Truncated(len) => {
                write!(f, "text image of {len} bytes ends mid-instruction")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Error produced when encoding an instruction the target encoding
/// cannot represent (immediate out of field range, or — for RV32I — an
/// opcode with no RISC-V encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeError {
    /// The instruction's immediate, for the error message.
    pub imm: i64,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instruction not representable (immediate {} out of field range, or no encoding)",
            self.imm
        )
    }
}

impl std::error::Error for EncodeError {}

/// Encodes an instruction into its 64-bit word.
///
/// Unused fields are canonicalised to zero first, so semantically equal
/// instructions encode identically.
///
/// # Errors
///
/// Returns [`EncodeError`] if the immediate does not fit in `i32`.
pub fn encode(instr: &Instr) -> Result<u64, EncodeError> {
    let i = instr.canonical();
    let imm32 = i32::try_from(i.imm).map_err(|_| EncodeError { imm: i.imm })?;
    Ok(u64::from(i.op as u8)
        | (u64::from(i.rd.raw()) << 8)
        | (u64::from(i.rs1.raw()) << 16)
        | (u64::from(i.rs2.raw()) << 24)
        | ((imm32 as u32 as u64) << 32))
}

/// Decodes a 64-bit word into an instruction.
///
/// # Errors
///
/// Returns [`DecodeError`] on an unknown opcode byte or out-of-range
/// register index.
pub fn decode(word: u64) -> Result<Instr, DecodeError> {
    let op_byte = (word & 0xFF) as u8;
    let op = Opcode::from_code(op_byte).ok_or(DecodeError::BadOpcode(op_byte))?;
    let reg = |b: u8| Reg::from_raw(b).ok_or(DecodeError::BadRegister(b));
    let rd = reg((word >> 8) as u8)?;
    let rs1 = reg((word >> 16) as u8)?;
    let rs2 = reg((word >> 24) as u8)?;
    let imm = (word >> 32) as u32 as i32 as i64;
    Ok(Instr {
        op,
        rd,
        rs1,
        rs2,
        imm,
    }
    .canonical())
}

/// Encodes a full text segment into bytes (little-endian words).
///
/// # Errors
///
/// Returns the index of the offending instruction alongside the
/// [`EncodeError`].
pub fn encode_text(text: &[Instr]) -> Result<Vec<u8>, (usize, EncodeError)> {
    let mut out = Vec::with_capacity(text.len() * Instr::SIZE as usize);
    for (idx, i) in text.iter().enumerate() {
        let w = encode(i).map_err(|e| (idx, e))?;
        out.extend_from_slice(&w.to_le_bytes());
    }
    Ok(out)
}

/// Decodes a byte slice produced by [`encode_text`].
///
/// # Errors
///
/// Returns the word index of the first malformed instruction. Trailing
/// bytes that do not fill a word are a [`DecodeError::Truncated`] at
/// index `len / 8`.
pub fn decode_text(bytes: &[u8]) -> Result<Vec<Instr>, (usize, DecodeError)> {
    if !bytes.len().is_multiple_of(Instr::SIZE as usize) {
        let len = bytes.len();
        return Err((len / Instr::SIZE as usize, DecodeError::Truncated(len)));
    }
    bytes
        .chunks_exact(Instr::SIZE as usize)
        .enumerate()
        .map(|(idx, chunk)| {
            let w = u64::from_le_bytes(chunk.try_into().expect("chunks_exact"));
            decode(w).map_err(|e| (idx, e))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_simple() {
        let i = Instr::rrr(Opcode::Add, Reg::x(1), Reg::x(2), Reg::x(3));
        let w = encode(&i).unwrap();
        assert_eq!(decode(w).unwrap(), i);
    }

    #[test]
    fn round_trip_negative_imm() {
        let i = Instr::rri(Opcode::Addi, Reg::x(5), Reg::x(5), -123456);
        assert_eq!(decode(encode(&i).unwrap()).unwrap(), i);
    }

    #[test]
    fn round_trip_extreme_imm() {
        for imm in [i32::MIN as i64, i32::MAX as i64, 0, -1] {
            let i = Instr::rri(Opcode::Li, Reg::x(9), Reg::ZERO, imm);
            assert_eq!(decode(encode(&i).unwrap()).unwrap().imm, imm);
        }
    }

    #[test]
    fn imm_overflow_rejected() {
        let i = Instr::rri(Opcode::Addi, Reg::x(1), Reg::x(1), 1 << 40);
        assert_eq!(encode(&i), Err(EncodeError { imm: 1 << 40 }));
        let i = Instr::rri(Opcode::Addi, Reg::x(1), Reg::x(1), i64::from(i32::MIN) - 1);
        assert!(encode(&i).is_err());
    }

    #[test]
    fn bad_opcode_rejected() {
        assert_eq!(decode(0x00), Err(DecodeError::BadOpcode(0)));
        assert_eq!(decode(0xFF), Err(DecodeError::BadOpcode(0xFF)));
    }

    #[test]
    fn bad_register_rejected() {
        // add with rd = 200
        let w = u64::from(Opcode::Add as u8) | (200u64 << 8);
        assert_eq!(decode(w), Err(DecodeError::BadRegister(200)));
    }

    #[test]
    fn canonicalisation_makes_encoding_unique() {
        let a = Instr {
            op: Opcode::Jal,
            rd: Reg::x(1),
            rs1: Reg::x(7),
            rs2: Reg::x(8),
            imm: 32,
        };
        let b = Instr {
            op: Opcode::Jal,
            rd: Reg::x(1),
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm: 32,
        };
        assert_eq!(encode(&a).unwrap(), encode(&b).unwrap());
    }

    #[test]
    fn text_round_trip() {
        let prog = vec![
            Instr::rri(Opcode::Li, Reg::x(1), Reg::ZERO, 10),
            Instr::rrr(Opcode::Add, Reg::x(2), Reg::x(1), Reg::x(1)),
            Instr::branch(Opcode::Bne, Reg::x(2), Reg::ZERO, -8),
            Instr::rri(Opcode::Halt, Reg::ZERO, Reg::ZERO, 0).canonical(),
        ];
        let bytes = encode_text(&prog).unwrap();
        assert_eq!(bytes.len(), prog.len() * 8);
        let back = decode_text(&bytes).unwrap();
        let canon: Vec<Instr> = prog.iter().map(|i| i.canonical()).collect();
        assert_eq!(back, canon);
    }

    #[test]
    fn ragged_text_rejected() {
        assert_eq!(decode_text(&[1, 2, 3]), Err((0, DecodeError::Truncated(3))));
        let mut bytes = encode_text(&[Instr::nop(), Instr::nop()]).unwrap();
        bytes.push(0);
        assert_eq!(decode_text(&bytes), Err((2, DecodeError::Truncated(17))));
    }

    #[test]
    fn every_opcode_round_trips() {
        for &op in Opcode::ALL {
            let i = Instr {
                op,
                rd: Reg::x(1),
                rs1: Reg::x(2),
                rs2: Reg::x(3),
                imm: 12,
            }
            .canonical();
            let back = decode(encode(&i).unwrap()).unwrap();
            assert_eq!(back, i, "opcode {op}");
        }
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!DecodeError::BadOpcode(3).to_string().is_empty());
        assert!(DecodeError::Truncated(9).to_string().contains("9 bytes"));
        assert!(!EncodeError { imm: 1 << 40 }.to_string().is_empty());
    }
}
