//! Assembled program images.

use std::collections::BTreeMap;

/// Conventional virtual memory layout for assembled programs.
///
/// Addresses are kept below 2³¹ so they can be materialised with an
/// `ldah`/`lda` pair, but the *architecture* has a full 64-bit virtual
/// address space — the gulf between the two is what makes corrupted
/// pointers overwhelmingly likely to fault, an effect the paper calls out
/// in §3.1 as a driver of the exception symptom's coverage.
pub mod layout {
    /// Base of the (read-execute) text segment.
    pub const TEXT_BASE: u64 = 0x0001_0000;
    /// Base of the static data segment.
    pub const DATA_BASE: u64 = 0x1000_0000;
    /// Base of the heap area workloads may map.
    pub const HEAP_BASE: u64 = 0x2000_0000;
    /// Initial stack pointer (stack grows down).
    pub const STACK_TOP: u64 = 0x7fff_0000;
    /// Default stack reservation.
    pub const STACK_SIZE: u64 = 1 << 20;
}

/// One contiguous initialised data region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSegment {
    /// Base virtual address.
    pub base: u64,
    /// Initial contents.
    pub bytes: Vec<u8>,
    /// Whether stores to the region are permitted.
    pub writable: bool,
}

/// A fully assembled program: text, data, entry point and symbols.
///
/// Produced by [`Asm::finish`](crate::Asm::finish) (text) plus manual
/// data-segment construction; consumed by the architectural simulator and
/// the microarchitectural pipeline's memory image loader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Human-readable name (workload id).
    pub name: String,
    /// Entry PC.
    pub entry: u64,
    /// Base address of the text segment.
    pub text_base: u64,
    /// Encoded instruction words.
    pub text: Vec<u32>,
    /// Initialised data segments.
    pub data: Vec<DataSegment>,
    /// Initial stack pointer.
    pub stack_top: u64,
    /// Stack reservation in bytes.
    pub stack_size: u64,
    /// Named addresses for debugging and tests.
    pub symbols: BTreeMap<String, u64>,
}

impl Program {
    /// Creates an empty program at the conventional layout with the given
    /// name; text/data are filled in by the assembler and workload
    /// builders.
    pub fn new(name: impl Into<String>) -> Program {
        Program {
            name: name.into(),
            entry: layout::TEXT_BASE,
            text_base: layout::TEXT_BASE,
            text: Vec::new(),
            data: Vec::new(),
            stack_top: layout::STACK_TOP,
            stack_size: layout::STACK_SIZE,
            symbols: BTreeMap::new(),
        }
    }

    /// Number of instructions in the text segment.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// `true` if the text segment is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Address one past the end of the text segment.
    pub fn text_end(&self) -> u64 {
        self.text_base + 4 * self.text.len() as u64
    }

    /// Adds an initialised data segment and returns its base address.
    pub fn add_data(&mut self, base: u64, bytes: Vec<u8>, writable: bool) -> u64 {
        self.data.push(DataSegment { base, bytes, writable });
        base
    }

    /// Looks up a symbol address.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Disassembles the whole text segment, one instruction per line, for
    /// debugging.
    pub fn disassemble(&self) -> String {
        use crate::{decode, Disasm};
        let mut out = String::new();
        for (i, &w) in self.text.iter().enumerate() {
            let pc = self.text_base + 4 * i as u64;
            match decode(w) {
                Ok(inst) => {
                    out.push_str(&format!("{pc:#010x}:  {}\n", Disasm::new(inst, pc)));
                }
                Err(_) => out.push_str(&format!("{pc:#010x}:  .word {w:#010x}\n")),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_program_uses_conventional_layout() {
        let p = Program::new("demo");
        assert_eq!(p.entry, layout::TEXT_BASE);
        assert_eq!(p.stack_top, layout::STACK_TOP);
        assert!(p.is_empty());
        assert_eq!(p.text_end(), layout::TEXT_BASE);
    }

    #[test]
    fn add_data_and_symbols() {
        let mut p = Program::new("demo");
        let base = p.add_data(layout::DATA_BASE, vec![1, 2, 3], true);
        assert_eq!(base, layout::DATA_BASE);
        assert_eq!(p.data.len(), 1);
        p.symbols.insert("table".into(), base);
        assert_eq!(p.symbol("table"), Some(base));
        assert_eq!(p.symbol("missing"), None);
    }

    #[test]
    fn disassemble_renders_every_word() {
        let mut p = Program::new("demo");
        p.text = vec![crate::Inst::NOP.encode(), 0x7fff_ffff];
        let d = p.disassemble();
        assert!(d.contains("nop"));
        assert!(d.contains(".word 0x7fffffff"));
        assert_eq!(d.lines().count(), 2);
    }
}
