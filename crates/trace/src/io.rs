//! The tagged binary encoding of static instructions.
//!
//! [`write_instr`] / [`read_instr`] encode one [`Instr`] as a one-byte
//! variant tag followed by the variant's fields (little-endian). The
//! chunked `.fvps` trace store (`fetchvp-tracestore`) keeps each trace's
//! instruction table in this encoding in its footer.

use std::io::{self, Read, Write};

use fetchvp_isa::{AluOp, Cond, Instr, Reg};

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn alu_op_tag(op: AluOp) -> u8 {
    AluOp::ALL.iter().position(|&o| o == op).expect("op in ALL") as u8
}

fn alu_op_from(tag: u8) -> io::Result<AluOp> {
    AluOp::ALL.get(tag as usize).copied().ok_or_else(|| bad(format!("bad ALU op tag {tag}")))
}

fn cond_tag(cond: Cond) -> u8 {
    Cond::ALL.iter().position(|&c| c == cond).expect("cond in ALL") as u8
}

fn cond_from(tag: u8) -> io::Result<Cond> {
    Cond::ALL.get(tag as usize).copied().ok_or_else(|| bad(format!("bad condition tag {tag}")))
}

fn reg_from(idx: u8) -> io::Result<Reg> {
    Reg::new(idx).ok_or_else(|| bad(format!("bad register index {idx}")))
}

/// Writes one static instruction in the tagged wire encoding (a one-byte
/// variant tag followed by the variant's fields).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_instr<W: Write>(w: &mut W, instr: &Instr) -> io::Result<()> {
    match *instr {
        Instr::Alu { op, dst, a, b } => {
            w.write_all(&[0, alu_op_tag(op), dst.index() as u8, a.index() as u8, b.index() as u8])
        }
        Instr::AluImm { op, dst, a, imm } => {
            w.write_all(&[1, alu_op_tag(op), dst.index() as u8, a.index() as u8])?;
            write_u64(w, imm as u64)
        }
        Instr::LoadImm { dst, imm } => {
            w.write_all(&[2, dst.index() as u8])?;
            write_u64(w, imm as u64)
        }
        Instr::Load { dst, base, offset } => {
            w.write_all(&[3, dst.index() as u8, base.index() as u8])?;
            write_u64(w, offset as u64)
        }
        Instr::Store { src, base, offset } => {
            w.write_all(&[4, src.index() as u8, base.index() as u8])?;
            write_u64(w, offset as u64)
        }
        Instr::Branch { cond, a, b, target } => {
            w.write_all(&[5, cond_tag(cond), a.index() as u8, b.index() as u8])?;
            write_u64(w, target)
        }
        Instr::Jump { target } => {
            w.write_all(&[6])?;
            write_u64(w, target)
        }
        Instr::JumpInd { base } => w.write_all(&[7, base.index() as u8]),
        Instr::Call { target, link } => {
            w.write_all(&[8, link.index() as u8])?;
            write_u64(w, target)
        }
        Instr::Halt => w.write_all(&[9]),
        Instr::Nop => w.write_all(&[10]),
    }
}

/// Reads one static instruction written by [`write_instr`].
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on an unknown tag, operation,
/// condition, or register index, and propagates reader errors.
pub fn read_instr<R: Read>(r: &mut R) -> io::Result<Instr> {
    Ok(match read_u8(r)? {
        0 => {
            let op = alu_op_from(read_u8(r)?)?;
            let dst = reg_from(read_u8(r)?)?;
            let a = reg_from(read_u8(r)?)?;
            let b = reg_from(read_u8(r)?)?;
            Instr::Alu { op, dst, a, b }
        }
        1 => {
            let op = alu_op_from(read_u8(r)?)?;
            let dst = reg_from(read_u8(r)?)?;
            let a = reg_from(read_u8(r)?)?;
            Instr::AluImm { op, dst, a, imm: read_u64(r)? as i64 }
        }
        2 => {
            let dst = reg_from(read_u8(r)?)?;
            Instr::LoadImm { dst, imm: read_u64(r)? as i64 }
        }
        3 => {
            let dst = reg_from(read_u8(r)?)?;
            let base = reg_from(read_u8(r)?)?;
            Instr::Load { dst, base, offset: read_u64(r)? as i64 }
        }
        4 => {
            let src = reg_from(read_u8(r)?)?;
            let base = reg_from(read_u8(r)?)?;
            Instr::Store { src, base, offset: read_u64(r)? as i64 }
        }
        5 => {
            let cond = cond_from(read_u8(r)?)?;
            let a = reg_from(read_u8(r)?)?;
            let b = reg_from(read_u8(r)?)?;
            Instr::Branch { cond, a, b, target: read_u64(r)? }
        }
        6 => Instr::Jump { target: read_u64(r)? },
        7 => Instr::JumpInd { base: reg_from(read_u8(r)?)? },
        8 => {
            let link = reg_from(read_u8(r)?)?;
            Instr::Call { target: read_u64(r)?, link }
        }
        9 => Instr::Halt,
        10 => Instr::Nop,
        t => return Err(bad(format!("bad instruction tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_program;
    use fetchvp_isa::ProgramBuilder;

    /// The instruction stream of a small program touching every common
    /// instruction shape, encoded back to back.
    fn sample_stream() -> (Vec<Instr>, Vec<u8>) {
        let mut b = ProgramBuilder::new("sample");
        b.data_word(0x100, 7);
        b.load_imm(Reg::R1, 0x100);
        b.load(Reg::R2, Reg::R1, 0);
        b.alu(AluOp::Add, Reg::R3, Reg::R2, Reg::R2);
        b.alu_imm(AluOp::Xor, Reg::R4, Reg::R3, -5);
        b.store(Reg::R4, Reg::R1, 8);
        let f = b.label("f");
        b.call(f, Reg::R31);
        b.halt();
        b.bind(f);
        let back = b.label("back");
        b.branch(Cond::Ne, Reg::R1, Reg::R0, back);
        b.nop();
        b.bind(back);
        b.jump_ind(Reg::R31);
        let instrs: Vec<Instr> =
            trace_program(&b.build().unwrap(), 1000).iter().map(|rec| rec.instr).collect();
        let mut buf = Vec::new();
        for instr in &instrs {
            write_instr(&mut buf, instr).unwrap();
        }
        (instrs, buf)
    }

    /// Decodes a whole stream, stopping at the first error.
    fn read_stream(mut bytes: &[u8]) -> io::Result<Vec<Instr>> {
        let mut instrs = Vec::new();
        while !bytes.is_empty() {
            instrs.push(read_instr(&mut bytes)?);
        }
        Ok(instrs)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (instrs, buf) = sample_stream();
        assert_eq!(read_stream(&buf).unwrap(), instrs);
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let (_, mut buf) = sample_stream();
        buf.truncate(buf.len() - 3);
        assert!(read_stream(&buf).is_err());
    }

    #[test]
    fn corrupt_instruction_tag_is_rejected() {
        let mut buf = Vec::new();
        write_instr(&mut buf, &Instr::Load { dst: Reg::R2, base: Reg::R1, offset: 0 }).unwrap();
        buf[0] = 200;
        let err = read_instr(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad instruction tag 200"), "{err}");
    }

    #[test]
    fn every_truncation_point_is_rejected() {
        let (instrs, _) = sample_stream();
        for instr in &instrs {
            let mut buf = Vec::new();
            write_instr(&mut buf, instr).unwrap();
            for len in 0..buf.len() {
                let decoded = read_instr(&mut &buf[..len]);
                assert!(decoded.is_err(), "{instr}: prefix of {len} bytes decoded successfully");
            }
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let (_, buf) = sample_stream();
        for pos in 0..buf.len() {
            for bit in 0..8 {
                let mut flipped = buf.clone();
                flipped[pos] ^= 1 << bit;
                // A flipped bit may still decode to (different) valid
                // instructions; the guarantee is a clean Ok/Err, never a
                // panic.
                let _ = read_stream(&flipped);
            }
        }
    }

    #[test]
    fn every_instruction_variant_round_trips() {
        use Instr::*;
        let variants = [
            Alu { op: AluOp::Mul, dst: Reg::R1, a: Reg::R2, b: Reg::R3 },
            AluImm { op: AluOp::Shr, dst: Reg::R4, a: Reg::R5, imm: -77 },
            LoadImm { dst: Reg::R6, imm: i64::MIN },
            Load { dst: Reg::R7, base: Reg::R8, offset: 1 << 40 },
            Store { src: Reg::R9, base: Reg::R10, offset: -8 },
            Branch { cond: Cond::Geu, a: Reg::R11, b: Reg::R12, target: 99 },
            Jump { target: u64::MAX },
            JumpInd { base: Reg::R31 },
            Call { target: 3, link: Reg::R30 },
            Halt,
            Nop,
        ];
        for instr in variants {
            let mut buf = Vec::new();
            write_instr(&mut buf, &instr).unwrap();
            assert_eq!(read_instr(&mut buf.as_slice()).unwrap(), instr, "{instr}");
        }
    }
}
