//! A minimal RV32IM instruction-set model: the first accuracy reference.
//!
//! It executes the subset `essent_designs::asm` emits with the SoC's
//! architectural behaviour — word-addressed memories that wrap at their
//! size, `x0` hardwired to zero, stores with address bit 31 set going to
//! MMIO where offset 0 is `tohost` and ends the run — and nothing of its
//! micro-architecture: no stall cycles, no accelerator lanes. It shares
//! no code with any engine or with the netlist interpreter, so a
//! program's `tohost` checksum and retired-instruction count computed
//! here are independent of everything the benchmark times.

use essent_designs::soc::SocConfig;

/// What a program computed: the `tohost` checksum and the instructions
/// retired before the `tohost` store (the SoC's `instret_r` at halt: the
/// halting store itself never retires).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssResult {
    pub tohost: u32,
    pub instret: u64,
}

/// Why the model gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IssError {
    /// An instruction outside the modelled subset.
    Unsupported { pc: u32, word: u32 },
    /// `limit` instructions retired without a `tohost` store.
    NoHalt { limit: u64 },
    /// The program does not fit the instruction memory.
    TooLarge { words: usize, imem_words: usize },
}

impl std::fmt::Display for IssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IssError::Unsupported { pc, word } => {
                write!(f, "unsupported instruction {word:#010x} at pc {pc:#x}")
            }
            IssError::NoHalt { limit } => write!(f, "no tohost store within {limit} instructions"),
            IssError::TooLarge { words, imem_words } => {
                write!(f, "program of {words} words exceeds imem of {imem_words}")
            }
        }
    }
}

/// Runs `program` (loaded at address 0) until its `tohost` store.
pub fn run(config: &SocConfig, program: &[u32], limit: u64) -> Result<IssResult, IssError> {
    if program.len() > config.imem_words {
        return Err(IssError::TooLarge {
            words: program.len(),
            imem_words: config.imem_words,
        });
    }
    let mut imem = vec![0u32; config.imem_words];
    imem[..program.len()].copy_from_slice(program);
    let mut dmem = vec![0u32; config.dmem_words];
    let (imask, dmask) = (config.imem_words - 1, config.dmem_words - 1);
    let mut x = [0u32; 32];
    let mut pc = 0u32;
    for instret in 0..limit {
        let word = imem[(pc >> 2) as usize & imask];
        let rd = (word >> 7 & 31) as usize;
        let funct3 = word >> 12 & 7;
        let a = x[(word >> 15 & 31) as usize];
        let b = x[(word >> 20 & 31) as usize];
        let funct7 = word >> 25;
        let imm_i = (word as i32 >> 20) as u32;
        let mut next = pc.wrapping_add(4);
        let unsupported = Err(IssError::Unsupported { pc, word });
        let value = match word & 0x7f {
            0b0110111 => Some(word & 0xffff_f000),
            0b0010111 => Some(pc.wrapping_add(word & 0xffff_f000)),
            0b1101111 => {
                let imm = (word as i32 >> 31 << 20) as u32
                    | (word & 0x000f_f000)
                    | (word >> 9 & 0x800)
                    | (word >> 20 & 0x7fe);
                let link = next;
                next = pc.wrapping_add(imm);
                Some(link)
            }
            0b1100111 => {
                let link = next;
                next = a.wrapping_add(imm_i) & !1;
                Some(link)
            }
            0b1100011 => {
                let taken = match funct3 {
                    0 => a == b,
                    1 => a != b,
                    4 => (a as i32) < (b as i32),
                    5 => (a as i32) >= (b as i32),
                    6 => a < b,
                    7 => a >= b,
                    _ => return unsupported,
                };
                if taken {
                    let imm = (word as i32 >> 31 << 12) as u32
                        | (word << 4 & 0x800)
                        | (word >> 20 & 0x7e0)
                        | (word >> 7 & 0x1e);
                    next = pc.wrapping_add(imm);
                }
                None
            }
            0b0000011 if funct3 == 2 => Some(dmem[(a.wrapping_add(imm_i) >> 2) as usize & dmask]),
            0b0100011 if funct3 == 2 => {
                let imm = (word as i32 >> 25 << 5) as u32 | (word >> 7 & 31);
                let addr = a.wrapping_add(imm);
                if addr >> 31 == 0 {
                    dmem[(addr >> 2) as usize & dmask] = b;
                } else if addr & 0xffff == 0 {
                    return Ok(IssResult { tohost: b, instret });
                }
                // Other MMIO offsets (putchar, lane triggers) have no
                // architectural effect the checksum can observe.
                None
            }
            0b0010011 => Some(match funct3 {
                0 => a.wrapping_add(imm_i),
                1 if funct7 == 0 => a << (imm_i & 31),
                2 => u32::from((a as i32) < (imm_i as i32)),
                3 => u32::from(a < imm_i),
                4 => a ^ imm_i,
                5 if funct7 == 0 => a >> (imm_i & 31),
                5 if funct7 == 0x20 => (a as i32 >> (imm_i & 31)) as u32,
                6 => a | imm_i,
                7 => a & imm_i,
                _ => return unsupported,
            }),
            0b0110011 => Some(match (funct7, funct3) {
                (0, 0) => a.wrapping_add(b),
                (0x20, 0) => a.wrapping_sub(b),
                (0, 1) => a << (b & 31),
                (0, 2) => u32::from((a as i32) < (b as i32)),
                (0, 3) => u32::from(a < b),
                (0, 4) => a ^ b,
                (0, 5) => a >> (b & 31),
                (0x20, 5) => (a as i32 >> (b & 31)) as u32,
                (0, 6) => a | b,
                (0, 7) => a & b,
                (1, 0) => a.wrapping_mul(b),
                (1, 1) => ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32,
                (1, 3) => ((u64::from(a) * u64::from(b)) >> 32) as u32,
                // RISC-V: x / 0 = all ones, x % 0 = x, and the one signed
                // overflow wraps (wrapping_div / wrapping_rem).
                (1, 4) if b == 0 => u32::MAX,
                (1, 4) => (a as i32).wrapping_div(b as i32) as u32,
                (1, 5) => a.checked_div(b).unwrap_or(u32::MAX),
                (1, 6) if b == 0 => a,
                (1, 6) => (a as i32).wrapping_rem(b as i32) as u32,
                (1, 7) => a.checked_rem(b).unwrap_or(a),
                _ => return unsupported,
            }),
            _ => return unsupported,
        };
        if let Some(v) = value {
            if rd != 0 {
                x[rd] = v;
            }
        }
        pc = next;
    }
    Err(IssError::NoHalt { limit })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines;
    use crate::workloads::SplitMix64;
    use essent_designs::asm::assemble;
    use essent_designs::workloads::{dhrystone, matmul, pchase};

    fn iss(config: &SocConfig, words: &[u32]) -> IssResult {
        run(config, words, 10_000_000).expect("program halts")
    }

    /// The model against the golden netlist interpreter on the tiny SoC,
    /// for all three program families at small scale.
    #[test]
    fn agrees_with_golden_interpreter_on_tiny() {
        let config = SocConfig::tiny();
        let netlist = engines::build_netlist(&config);
        let programs = [
            dhrystone(3).unwrap().words,
            matmul(3, 2).unwrap().words,
            pchase(64, 150).unwrap().words,
        ];
        for words in &programs {
            let want = engines::golden_run(&netlist, words);
            let got = iss(&config, words);
            assert!(want.finished);
            assert_eq!(u64::from(got.tohost), want.tohost);
            assert_eq!(got.instret, want.instret);
        }
    }

    /// Every ALU and M-extension instruction of the subset on seeded
    /// operands (including the division corner cases), against the SoC.
    #[test]
    fn alu_and_muldiv_agree_with_golden_interpreter() {
        let config = SocConfig::tiny();
        let netlist = engines::build_netlist(&config);
        let mut rng = SplitMix64::new(11);
        let mut operands: Vec<(u32, u32)> = vec![
            (0x8000_0000, 0xffff_ffff),
            (7, 0),
            (0xffff_fff9, 3),
            (0x8000_0000, 33),
        ];
        for _ in 0..4 {
            operands.push((rng.next_u64() as u32, rng.next_u64() as u32));
        }
        let ops = [
            "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and", "mul", "mulh",
            "mulhu", "div", "divu", "rem", "remu",
        ];
        let mut source = String::from("    lui t6, 0x80000\n    li a0, 0\n");
        for (a, b) in operands {
            source += &format!("    li t0, {}\n    li t1, {}\n", a as i32, b as i32);
            for op in ops {
                source += &format!("    {op} t2, t0, t1\n    add a0, a0, t2\n    slli a0, a0, 1\n");
            }
            source +=
                "    srai t2, t0, 3\n    xor a0, a0, t2\n    srli t2, t0, 5\n    add a0, a0, t2\n";
            source += "    slti t2, t0, -5\n    add a0, a0, t2\n    sltiu t2, t0, 9\n    add a0, a0, t2\n";
            source += "    xori t2, t0, 0x55\n    add a0, a0, t2\n    ori t2, t0, 0x70\n    add a0, a0, t2\n    andi t2, t0, 0x3c\n    add a0, a0, t2\n";
        }
        source += "    auipc t2, 1\n    add a0, a0, t2\n    call leaf\n    sw a0, 0(t6)\nhalt:\n    j halt\nleaf:\n    addi a0, a0, 1\n    ret\n";
        let words = assemble(&source).unwrap();
        let want = engines::golden_run(&netlist, &words);
        let got = iss(&config, &words);
        assert!(want.finished);
        assert_eq!(u64::from(got.tohost), want.tohost);
        assert_eq!(got.instret, want.instret);
    }

    #[test]
    fn reports_programs_it_cannot_run() {
        let config = SocConfig::tiny();
        // `fence` is outside the subset.
        assert!(matches!(
            run(&config, &[0x0000_000f], 10),
            Err(IssError::Unsupported { pc: 0, .. })
        ));
        let spin = assemble("spin:\n    j spin\n").unwrap();
        assert_eq!(
            run(&config, &spin, 100),
            Err(IssError::NoHalt { limit: 100 })
        );
        assert!(matches!(
            run(&config, &vec![0x13; config.imem_words + 1], 10),
            Err(IssError::TooLarge { .. })
        ));
    }
}
