//! A two-pass text assembler built on [`ProgramBuilder`].
//!
//! Supported syntax (one statement per line):
//!
//! ```text
//! # comment                      ; '#' or '//' start a comment
//!         .text                  ; switch to the text segment (default)
//! main:   li   a0, 100           ; labels end with ':'
//! loop:   addi a0, a0, -1
//!         bnez a0, loop          ; branch targets: label or numeric offset
//!         sd   a0, 8(sp)         ; memory operands: off(base)
//!         halt
//!         .data                  ; switch to the data segment
//! arr:    .dword 1, 2, 3         ; also .byte .half .word .space .align .asciz
//! msg:    .asciz "hello"
//! ```
//!
//! Pseudo-instructions: `nop li la mv neg not seqz snez beqz bnez bltz
//! bgez ble bgt j jr call ret halt print`.

use crate::{BuildError, Opcode, Program, ProgramBuilder, Reg};
use std::collections::HashMap;
use std::fmt;

/// Error produced by [`assemble`], with a 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number of the offending statement (0 for link-time
    /// errors with no single source line).
    pub line: usize,
    /// 1-based column of the offending token (0 when the whole line is
    /// at fault or the column is unknown).
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl AsmError {
    pub(crate) fn new(line: usize, message: String) -> AsmError {
        AsmError {
            line,
            col: 0,
            message,
        }
    }

    pub(crate) fn at(line: usize, col: usize, message: String) -> AsmError {
        AsmError { line, col, message }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(f, "line {}:{}: {}", self.line, self.col, self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for AsmError {}

impl From<BuildError> for AsmError {
    fn from(e: BuildError) -> Self {
        AsmError::new(0, e.to_string())
    }
}

/// 1-based column of `token` within `raw` (0 if `token` is not a
/// subslice of `raw`). Tokens are always subslices of their source
/// line, so this recovers the column without tracking offsets.
pub(crate) fn col_in(raw: &str, token: &str) -> usize {
    let raw_start = raw.as_ptr() as usize;
    let tok_start = token.as_ptr() as usize;
    if tok_start >= raw_start && tok_start + token.len() <= raw_start + raw.len() {
        tok_start - raw_start + 1
    } else {
        0
    }
}

/// Strips a trailing comment (`#`, `//`, or `;`) outside string
/// literals, so `.asciz "a#b"` keeps its hash.
pub(crate) fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'#' | b';' => return &line[..i],
            b'/' if bytes.get(i + 1) == Some(&b'/') => return &line[..i],
            _ => {}
        }
    }
    line
}

/// The line and column of each label's first reference, so a label
/// that is never bound is reported where it was first used.
type LabelUses = HashMap<String, (usize, usize)>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Text,
    Data,
}

/// Assembles source text into a [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] naming the first offending line for syntax
/// errors, unknown mnemonics/registers, malformed operands, or unbound
/// labels.
///
/// # Example
///
/// ```
/// let prog = reese_isa::assemble(
///     "        li   t0, 5\n\
///      loop:   addi t0, t0, -1\n\
///              bnez t0, loop\n\
///              halt\n",
/// )?;
/// assert_eq!(prog.len(), 4);
/// # Ok::<(), reese_isa::AsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut b = ProgramBuilder::new();
    let mut uses = LabelUses::new();
    let mut segment = Segment::Text;

    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;

        // Strip comments (string-literal aware) and surrounding space.
        let mut code = strip_comment(raw).trim();

        // Peel off any leading labels.
        while let Some(colon) = code.find(':') {
            let (name, rest) = code.split_at(colon);
            let name = name.trim();
            if name.is_empty() || !is_ident(name) {
                return Err(AsmError::at(
                    line,
                    col_in(raw, name),
                    format!("bad label `{name}`"),
                ));
            }
            let l = b.label(name);
            if b.is_bound(l) {
                return Err(AsmError::at(
                    line,
                    col_in(raw, name),
                    format!("label `{name}` defined twice"),
                ));
            }
            match segment {
                Segment::Text => {
                    b.bind(l);
                }
                Segment::Data => {
                    // `data_label` binds by name; re-resolve in data space.
                    b.bind_data(l);
                }
            }
            code = rest[1..].trim();
        }
        if code.is_empty() {
            continue;
        }

        if let Some(directive) = code.strip_prefix('.') {
            parse_directive(&mut b, &mut uses, &mut segment, directive, raw, line)?;
            continue;
        }

        if segment == Segment::Data {
            return Err(AsmError::at(
                line,
                col_in(raw, code),
                "instructions are not allowed in .data".to_string(),
            ));
        }
        parse_instruction(&mut b, &mut uses, code, raw, line)?;
    }

    b.build().map_err(|e| match &e {
        BuildError::UnboundLabel(name) => {
            let (line, col) = uses.get(name).copied().unwrap_or_default();
            AsmError::at(line, col, e.to_string())
        }
        _ => AsmError::from(e),
    })
}

pub(crate) fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '.' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

pub(crate) fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

fn parse_directive(
    b: &mut ProgramBuilder,
    uses: &mut LabelUses,
    segment: &mut Segment,
    directive: &str,
    raw: &str,
    line: usize,
) -> Result<(), AsmError> {
    let err = |tok: &str, message: String| AsmError::at(line, col_in(raw, tok), message);
    let (name, args) = match directive.find(char::is_whitespace) {
        Some(pos) => (&directive[..pos], directive[pos..].trim()),
        None => (directive, ""),
    };
    let ints = |args: &str| -> Result<Vec<i64>, AsmError> {
        args.split(',')
            .map(|a| {
                parse_int(a).ok_or_else(|| err(a.trim(), format!("bad integer `{}`", a.trim())))
            })
            .collect()
    };
    // `.word`/`.dword` accept labels alongside integers; label slots
    // are patched with the final address at build time, so forward
    // references inside data are safe.
    let words = |b: &mut ProgramBuilder,
                 uses: &mut LabelUses,
                 args: &str,
                 wide: bool|
     -> Result<(), AsmError> {
        for a in args.split(',') {
            let a = a.trim();
            if let Some(v) = parse_int(a) {
                if wide {
                    b.dword(v as u64);
                } else {
                    b.word(v as u32);
                }
            } else if is_ident(a) {
                let l = label_ref(b, uses, a, raw, line)?;
                if wide {
                    b.dword_label(l);
                } else {
                    b.word_label(l);
                }
            } else {
                return Err(err(a, format!("bad integer or label `{a}`")));
            }
        }
        Ok(())
    };
    match name {
        "text" => *segment = Segment::Text,
        "data" => *segment = Segment::Data,
        "globl" | "global" => {} // accepted and ignored
        "entry" => {
            if !is_ident(args) {
                return Err(err(args, format!("bad entry label `{args}`")));
            }
            let l = label_ref(b, uses, args, raw, line)?;
            b.entry(l);
        }
        "byte" => {
            for v in ints(args)? {
                b.byte(v as u8);
            }
        }
        "half" => {
            for v in ints(args)? {
                b.bytes(&(v as u16).to_le_bytes());
            }
        }
        "word" => words(b, uses, args, false)?,
        "dword" => words(b, uses, args, true)?,
        "space" => {
            let n = parse_int(args).ok_or_else(|| err(args, format!("bad size `{args}`")))?;
            if n < 0 {
                return Err(err(args, "negative .space".to_string()));
            }
            b.space(n as usize);
        }
        "align" => {
            let n = parse_int(args).ok_or_else(|| err(args, format!("bad alignment `{args}`")))?;
            if n <= 0 || !(n as u64).is_power_of_two() {
                return Err(err(
                    args,
                    format!("alignment must be a positive power of two, got {n}"),
                ));
            }
            b.align(n as usize);
        }
        "asciz" | "string" => {
            let s = args
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| err(args, "expected a quoted string".to_string()))?;
            b.asciz(&unescape(s));
        }
        other => return Err(err(name, format!("unknown directive `.{other}`"))),
    }
    Ok(())
}

pub(crate) fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('0') => out.push('\0'),
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Splits `off(base)` into its parts.
pub(crate) fn parse_mem_operand(s: &str) -> Option<(i64, Reg)> {
    let open = s.find('(')?;
    let close = s.rfind(')')?;
    if close != s.len() - 1 {
        return None;
    }
    let off_str = s[..open].trim();
    let off = if off_str.is_empty() {
        0
    } else {
        parse_int(off_str)?
    };
    let base = Reg::parse(s[open + 1..close].trim())?;
    Some((off, base))
}

fn parse_instruction(
    b: &mut ProgramBuilder,
    uses: &mut LabelUses,
    code: &str,
    raw: &str,
    line: usize,
) -> Result<(), AsmError> {
    let err = |tok: &str, message: String| AsmError::at(line, col_in(raw, tok), message);
    let (mnemonic, rest) = match code.find(char::is_whitespace) {
        Some(pos) => (&code[..pos], code[pos..].trim()),
        None => (code, ""),
    };
    let ops: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(str::trim).collect()
    };

    let reg = |s: &str| Reg::parse(s).ok_or_else(|| err(s, format!("bad register `{s}`")));
    let imm = |s: &str| parse_int(s).ok_or_else(|| err(s, format!("bad immediate `{s}`")));
    let nops = |want: usize| -> Result<(), AsmError> {
        if ops.len() == want {
            Ok(())
        } else {
            Err(err(
                mnemonic,
                format!("`{mnemonic}` expects {want} operands, got {}", ops.len()),
            ))
        }
    };

    // Pseudo-instructions and special forms first.
    match mnemonic {
        "nop" => {
            nops(0)?;
            b.nop();
            return Ok(());
        }
        "halt" => {
            // `halt` defaults the exit-code register to a0; `halt rs`
            // names it explicitly (the form the disassembler prints).
            match ops.len() {
                0 => b.halt(),
                1 => {
                    let rs = reg(ops[0])?;
                    b.emit(crate::Instr {
                        op: Opcode::Halt,
                        rs1: rs,
                        ..crate::Instr::nop()
                    })
                }
                n => {
                    return Err(err(
                        mnemonic,
                        format!("`halt` expects 0 or 1 operands, got {n}"),
                    ))
                }
            };
            return Ok(());
        }
        "print" => {
            nops(1)?;
            let r = reg(ops[0])?;
            b.print(r);
            return Ok(());
        }
        "li" => {
            nops(2)?;
            let (rd, v) = (reg(ops[0])?, imm(ops[1])?);
            b.li(rd, v);
            return Ok(());
        }
        "la" => {
            nops(2)?;
            let rd = reg(ops[0])?;
            let l = label_ref(b, uses, ops[1], raw, line)?;
            b.la(rd, l);
            return Ok(());
        }
        "mv" => {
            nops(2)?;
            let (rd, rs) = (reg(ops[0])?, reg(ops[1])?);
            b.mv(rd, rs);
            return Ok(());
        }
        "neg" => {
            nops(2)?;
            let (rd, rs) = (reg(ops[0])?, reg(ops[1])?);
            b.neg(rd, rs);
            return Ok(());
        }
        "not" => {
            nops(2)?;
            let (rd, rs) = (reg(ops[0])?, reg(ops[1])?);
            b.not(rd, rs);
            return Ok(());
        }
        "seqz" => {
            nops(2)?;
            let (rd, rs) = (reg(ops[0])?, reg(ops[1])?);
            b.seqz(rd, rs);
            return Ok(());
        }
        "snez" => {
            nops(2)?;
            let (rd, rs) = (reg(ops[0])?, reg(ops[1])?);
            b.snez(rd, rs);
            return Ok(());
        }
        "j" => {
            nops(1)?;
            let l = label_ref(b, uses, ops[0], raw, line)?;
            b.j(l);
            return Ok(());
        }
        "jr" => {
            nops(1)?;
            let rs = reg(ops[0])?;
            b.jalr(Reg::ZERO, rs, 0);
            return Ok(());
        }
        "call" => {
            nops(1)?;
            let l = label_ref(b, uses, ops[0], raw, line)?;
            b.call(l);
            return Ok(());
        }
        "ret" => {
            nops(0)?;
            b.ret();
            return Ok(());
        }
        "beqz" | "bnez" | "bltz" | "bgez" => {
            nops(2)?;
            let rs = reg(ops[0])?;
            let l = label_ref(b, uses, ops[1], raw, line)?;
            match mnemonic {
                "beqz" => b.beqz(rs, l),
                "bnez" => b.bnez(rs, l),
                "bltz" => b.bltz(rs, l),
                _ => b.bgez(rs, l),
            };
            return Ok(());
        }
        "ble" | "bgt" => {
            nops(3)?;
            let (r1, r2) = (reg(ops[0])?, reg(ops[1])?);
            let l = label_ref(b, uses, ops[2], raw, line)?;
            if mnemonic == "ble" {
                b.ble(r1, r2, l);
            } else {
                b.bgt(r1, r2, l);
            }
            return Ok(());
        }
        _ => {}
    }

    let op = Opcode::from_mnemonic(mnemonic)
        .ok_or_else(|| err(mnemonic, format!("unknown mnemonic `{mnemonic}`")))?;

    use crate::{Instr, OpKind};
    match op.kind() {
        OpKind::Load => {
            nops(2)?;
            let rd = reg(ops[0])?;
            let (off, base) = parse_mem_operand(ops[1])
                .ok_or_else(|| err(ops[1], format!("bad memory operand `{}`", ops[1])))?;
            b.emit(Instr::load(op, rd, base, off));
        }
        OpKind::Store => {
            nops(2)?;
            let src = reg(ops[0])?;
            let (off, base) = parse_mem_operand(ops[1])
                .ok_or_else(|| err(ops[1], format!("bad memory operand `{}`", ops[1])))?;
            b.emit(Instr::store(op, src, base, off));
        }
        OpKind::Branch => {
            nops(3)?;
            let (r1, r2) = (reg(ops[0])?, reg(ops[1])?);
            if let Some(off) = parse_int(ops[2]) {
                b.emit(Instr::branch(op, r1, r2, off));
            } else {
                let l = label_ref(b, uses, ops[2], raw, line)?;
                match op {
                    Opcode::Beq => b.beq(r1, r2, l),
                    Opcode::Bne => b.bne(r1, r2, l),
                    Opcode::Blt => b.blt(r1, r2, l),
                    Opcode::Bge => b.bge(r1, r2, l),
                    Opcode::Bltu => b.bltu(r1, r2, l),
                    Opcode::Bgeu => b.bgeu(r1, r2, l),
                    _ => unreachable!("branch kind covers only branch opcodes"),
                };
            }
        }
        OpKind::Jump => match op {
            Opcode::Jal => {
                nops(2)?;
                let rd = reg(ops[0])?;
                if let Some(off) = parse_int(ops[1]) {
                    b.emit(Instr::rri(Opcode::Jal, rd, Reg::ZERO, off));
                } else {
                    let l = label_ref(b, uses, ops[1], raw, line)?;
                    b.jal(rd, l);
                }
            }
            _ => {
                // jalr rd, off(rs1)
                nops(2)?;
                let rd = reg(ops[0])?;
                let (off, base) = parse_mem_operand(ops[1])
                    .ok_or_else(|| err(ops[1], format!("bad memory operand `{}`", ops[1])))?;
                b.jalr(rd, base, off);
            }
        },
        OpKind::System => match op {
            Opcode::Halt => {
                nops(1)?;
                let rs = reg(ops[0])?;
                b.emit(Instr {
                    op,
                    rs1: rs,
                    ..Instr::nop()
                });
            }
            Opcode::Print => {
                nops(1)?;
                let rs = reg(ops[0])?;
                b.print(rs);
            }
            Opcode::Ecall | Opcode::Ebreak => {
                nops(0)?;
                b.emit(Instr { op, ..Instr::nop() }.canonical());
            }
            _ => {
                nops(0)?;
                b.nop();
            }
        },
        OpKind::Alu => {
            if op == Opcode::Li || op == Opcode::Lih || op == Opcode::Auipc {
                nops(2)?;
                let (rd, v) = (reg(ops[0])?, imm(ops[1])?);
                let rs1 = if op == Opcode::Lih { rd } else { Reg::ZERO };
                b.emit(Instr {
                    op,
                    rd,
                    rs1,
                    rs2: Reg::ZERO,
                    imm: v,
                });
            } else if op.uses_imm() {
                nops(3)?;
                let (rd, rs1, v) = (reg(ops[0])?, reg(ops[1])?, imm(ops[2])?);
                b.emit(Instr::rri(op, rd, rs1, v));
            } else if op.reads_rs2() {
                nops(3)?;
                let (rd, rs1, rs2) = (reg(ops[0])?, reg(ops[1])?, reg(ops[2])?);
                b.emit(Instr::rrr(op, rd, rs1, rs2));
            } else {
                nops(2)?;
                let (rd, rs1) = (reg(ops[0])?, reg(ops[1])?);
                b.emit(Instr::rrr(op, rd, rs1, Reg::ZERO));
            }
        }
    }
    Ok(())
}

/// Declares a reference to label `s`, recording where it was first
/// used.
fn label_ref(
    b: &mut ProgramBuilder,
    uses: &mut LabelUses,
    s: &str,
    raw: &str,
    line: usize,
) -> Result<crate::Label, AsmError> {
    if is_ident(s) {
        uses.entry(s.to_string()).or_insert((line, col_in(raw, s)));
        Ok(b.label(s))
    } else {
        Err(AsmError::at(
            line,
            col_in(raw, s),
            format!("bad label `{s}`"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpKind, TEXT_BASE};

    #[test]
    fn countdown_loop() {
        let p = assemble(
            "        li   t0, 5\n\
             loop:   addi t0, t0, -1\n\
                     bnez t0, loop\n\
                     halt\n",
        )
        .unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.text()[2].op, Opcode::Bne);
        assert_eq!(p.text()[2].imm, -8);
    }

    #[test]
    fn comments_and_blank_lines() {
        let p = assemble("# leading comment\n\n  nop // trailing\n  halt ; also\n").unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn data_segment_and_la() {
        let p = assemble(
            "        la   a0, arr\n\
                     ld   a1, 8(a0)\n\
                     halt\n\
                     .data\n\
             arr:    .dword 10, 20, 30\n",
        )
        .unwrap();
        assert_eq!(p.data().len(), 24);
        assert_eq!(p.symbol("arr"), Some(crate::DATA_BASE));
        assert_eq!(&p.data()[8..16], &20u64.to_le_bytes());
    }

    #[test]
    fn mem_operand_forms() {
        let p = assemble("  lw x5, -4(sp)\n  sw x5, (sp)\n  halt\n").unwrap();
        assert_eq!(p.text()[0].imm, -4);
        assert_eq!(p.text()[1].imm, 0);
        assert_eq!(p.text()[1].rs2, Reg::x(5));
        assert_eq!(p.text()[1].rs1, Reg::SP);
    }

    #[test]
    fn call_ret_and_entry() {
        let p = assemble(
            "        .entry main\n\
             f:      ret\n\
             main:   call f\n\
                     halt\n",
        )
        .unwrap();
        assert_eq!(p.entry(), TEXT_BASE + 8);
        assert_eq!(p.text()[1].op, Opcode::Jal);
        assert_eq!(p.text()[1].rd, Reg::RA);
        assert_eq!(p.text()[1].imm, -8);
    }

    #[test]
    fn numeric_branch_offsets() {
        let p = assemble("  beq x1, x2, 16\n  jal x0, -8\n  halt\n").unwrap();
        assert_eq!(p.text()[0].imm, 16);
        assert_eq!(p.text()[1].imm, -8);
    }

    #[test]
    fn directives_emit_data() {
        let p = assemble(
            "  halt\n  .data\n  .byte 1, 2\n  .half 0x0304\n  .word 5\n  .align 8\n  .space 4\n  .asciz \"a\\n\"\n",
        )
        .unwrap();
        let d = p.data();
        assert_eq!(&d[..2], &[1, 2]);
        assert_eq!(&d[2..4], &[4, 3]);
        assert_eq!(d.len(), 8 + 4 + 3);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("  nop\n  bogus x1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));

        let e = assemble("  addi t0, t0\n").unwrap_err();
        assert!(e.message.contains("expects 3 operands"));

        let e = assemble("  lw t0, t1\n").unwrap_err();
        assert!(e.message.contains("memory operand"));

        let e = assemble("  li t0, zzz\n").unwrap_err();
        assert!(e.message.contains("bad immediate"));

        let e = assemble("  j nowhere\n").unwrap_err();
        assert!(e.message.contains("never bound"));
    }

    #[test]
    fn unbound_labels_point_at_their_first_use() {
        let e = assemble("  j nowhere\n").unwrap_err();
        assert_eq!(e.to_string(), "line 1:5: label `nowhere` was never bound");
        // A later use does not move the reported position.
        let e = assemble("  nop\n  beqz t0, gone\n  j gone\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 12));
        // Data words, `la` and `.entry` references are tracked the same way.
        let e = assemble("  halt\n  .data\nptr: .dword 1, lost\n").unwrap_err();
        assert_eq!((e.line, e.col), (3, 16));
        let e = assemble("  la a0, lost\n  halt\n").unwrap_err();
        assert_eq!((e.line, e.col), (1, 10));
        let e = assemble("  .entry start\n  halt\n").unwrap_err();
        assert_eq!((e.line, e.col), (1, 10));
    }

    #[test]
    fn errors_carry_column_numbers() {
        let e = assemble("  nop\n  bogus x1\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 3));
        assert!(e.to_string().contains("line 2:3:"));

        let e = assemble("  addi t0, zz, 1\n").unwrap_err();
        assert_eq!(e.col, 12);
        assert!(e.message.contains("bad register"));

        let e = assemble("  li t0, zzz\n").unwrap_err();
        assert_eq!(e.col, 10);
    }

    #[test]
    fn comment_markers_inside_strings_are_data() {
        let p = assemble("  halt\n  .data\n  .asciz \"a#b;c//d\"\n").unwrap();
        assert_eq!(p.data(), b"a#b;c//d\0");
    }

    #[test]
    fn word_directives_accept_forward_label_references() {
        // `tail` is bound *after* the table; the table slots must hold
        // its final address, not a stale offset.
        let p = assemble(
            "  halt\n\
             .data\n\
             table: .dword tail, 7\n\
             .word tail, 1\n\
             tail:  .byte 9\n",
        )
        .unwrap();
        let tail = p.symbol("tail").unwrap();
        assert_eq!(tail, crate::DATA_BASE + 8 + 8 + 4 + 4);
        let d = p.data();
        assert_eq!(u64::from_le_bytes(d[0..8].try_into().unwrap()), tail);
        assert_eq!(u64::from_le_bytes(d[8..16].try_into().unwrap()), 7);
        assert_eq!(
            u64::from(u32::from_le_bytes(d[16..20].try_into().unwrap())),
            tail
        );

        let e = assemble("  halt\n  .data\n  .word 1+2\n").unwrap_err();
        assert!(e.message.contains("bad integer or label"));
    }

    #[test]
    fn ecall_and_ebreak_assemble() {
        let p = assemble("  ecall\n  ebreak\n  halt\n").unwrap();
        assert_eq!(p.text()[0].op, Opcode::Ecall);
        assert_eq!(p.text()[0].rs1, crate::abi::A7);
        assert_eq!(p.text()[0].rs2, crate::abi::A0);
        assert_eq!(p.text()[1].op, Opcode::Ebreak);
        let e = assemble("  ecall x1\n").unwrap_err();
        assert!(e.message.contains("expects 0 operands"));
    }

    #[test]
    fn instructions_rejected_in_data() {
        let e = assemble("  .data\n  nop\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn unknown_directive_rejected() {
        let e = assemble("  .wibble\n").unwrap_err();
        assert!(e.message.contains("wibble"));
    }

    #[test]
    fn disassembly_reassembles_identically() {
        // Round-trip every non-pseudo instruction form through
        // disassemble → assemble.
        let src = "        li32 x5, -100\n\
                   lih  x5, 255\n\
                   add  x1, x2, x3\n\
                   mul  x4, x5, x6\n\
                   srai x7, x8, 3\n\
                   ld   x9, 16(x2)\n\
                   sd   x9, -16(x2)\n\
                   beq  x1, x2, 32\n\
                   jal  x1, -16\n\
                   jalr x0, 0(x1)\n\
                   fadd f1, f2, f3\n\
                   fsqrt f4, f5\n\
                   print x10\n\
                   nop\n\
                   halt x10\n";
        let p1 = assemble(src).unwrap();
        let listing: String = p1.text().iter().map(|i| format!("  {i}\n")).collect();
        let p2 = assemble(&listing).unwrap();
        assert_eq!(p1.text(), p2.text());
    }

    #[test]
    fn fp_registers_parse() {
        let p = assemble("  fadd f1, f2, f3\n  fld f1, 0(sp)\n  fsd f1, 8(sp)\n  halt\n").unwrap();
        assert_eq!(p.text()[0].rd, Reg::f(1));
        assert_eq!(p.text()[1].op.kind(), OpKind::Load);
        assert_eq!(p.text()[2].rs2, Reg::f(1));
    }
}
