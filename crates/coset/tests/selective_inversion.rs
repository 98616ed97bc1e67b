//! Pinned selective-inversion encodes: Flip-N-Write, DBI and BCC built as
//! the zero-kernel VCC ([`Vcc::flip_n_write`], [`Vcc::dbi`], [`Vcc::bcc`])
//! must reproduce, bit for bit, a table of encodes recorded from the
//! dedicated selective-inversion encoder they replaced.
//!
//! Each row is one (shape, objective, data, destination) case and the
//! codeword, aux word and `f64` cost bits that encoder returned. The rows
//! cover eight shapes, among them the non-tiling 48/24 split (the scalar
//! route), DBI's single 64-bit partition and two BCC coset counts; all
//! seven objectives plus one [`ScalarOnly`] wrapper; and stuck-cell
//! incidences 0, 1e-2, 5e-2 and 0.3 on data and aux cells.

use coset::cost::{
    opt_energy_then_saw, opt_saw_then_energy, BitFlips, CostFunction, OnesCount, SawCount,
    ScalarOnly, WriteEnergy,
};
use coset::{Block, Encoder, StuckBits, Vcc, WriteContext};

/// The encoder configuration of a row.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `Vcc::flip_n_write(block_bits, sub_bits)`.
    Fnw(usize, usize),
    /// `Vcc::dbi(block_bits)`.
    Dbi(usize),
    /// `Vcc::bcc(block_bits, n_cosets)`.
    Bcc(usize, usize),
}

impl Shape {
    fn encoder(self) -> Vcc {
        match self {
            Shape::Fnw(bits, sub) => Vcc::flip_n_write(bits, sub),
            Shape::Dbi(bits) => Vcc::dbi(bits),
            Shape::Bcc(bits, cosets) => Vcc::bcc(bits, cosets),
        }
    }
}

fn objective(name: &str) -> Box<dyn CostFunction> {
    match name {
        "ones" => Box::new(OnesCount),
        "flips" => Box::new(BitFlips),
        "saw" => Box::new(SawCount),
        "mlc" => Box::new(WriteEnergy::mlc()),
        "slc" => Box::new(WriteEnergy::slc()),
        "saw_energy" => Box::new(opt_saw_then_energy()),
        "energy_saw" => Box::new(opt_energy_then_saw()),
        "scalar_mlc" => Box::new(ScalarOnly(WriteEnergy::mlc())),
        other => panic!("unknown objective {other}"),
    }
}

/// One recorded encode: inputs, then the expected outputs.
struct Pin {
    shape: Shape,
    objective: &'static str,
    data: u64,
    old: u64,
    old_aux: u64,
    stuck_mask: u64,
    stuck_value: u64,
    aux_mask: u64,
    aux_value: u64,
    codeword: u64,
    aux: u64,
    primary: u64,
    secondary: u64,
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { shape: Shape::Fnw(64, 16), objective: "ones", data: 0x6cf8fcd72cc8764d, old: 0xdd2af1224ac6998c, old_aux: 0xe, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x930703282cc889b2, aux: 0xd, primary: 0x403b000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 16), objective: "flips", data: 0x0be163b0bc150ea3, old: 0x454eb7c8a2e1412d, old_aux: 0x3, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0xf41e63b043eaf15c, aux: 0xb, primary: 0x403d000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 16), objective: "saw", data: 0xfec6ba37aa1c6d97, old: 0x0eb60c81c42f1083, old_aux: 0x5, stuck_mask: 0x0000800000000000, stuck_value: 0x0000800000000000, aux_mask: 0xa, aux_value: 0xc, codeword: 0xfec6ba37aa1c6d97, aux: 0x0, primary: 0x3ff0000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 16), objective: "mlc", data: 0x27a76c32f90b62fd, old: 0x80637fa61cdd45af, old_aux: 0x9, stuck_mask: 0x300000030000cc0c, stuck_value: 0x0000000300004c04, aux_mask: 0x0, aux_value: 0xb, codeword: 0xd8586c3206f49d02, aux: 0xb, primary: 0x4093240000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 16), objective: "slc", data: 0xee268b2c90c4c3bd, old: 0x1f945e2c4b4bd575, old_aux: 0xa, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x11d98b2c6f3bc3bd, aux: 0xa, primary: 0x4072b00000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 16), objective: "saw_energy", data: 0x60919586856816a2, old: 0x141ddcf94aa7b3cb, old_aux: 0x3, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x6, aux_value: 0xd, codeword: 0x60916a797a9716a2, aux: 0x6, primary: 0x3ff0000000000000, secondary: 0x4091140000000000 },
    Pin { shape: Shape::Fnw(64, 16), objective: "energy_saw", data: 0x214afbaad4d4c518, old: 0xfe1826a43a03070c, old_aux: 0x7, stuck_mask: 0x0000030000000000, stuck_value: 0x0000030000000000, aux_mask: 0x1, aux_value: 0x4, codeword: 0x214afbaa2b2bc518, aux: 0x2, primary: 0x4093240000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 16), objective: "scalar_mlc", data: 0x9ff180941e76240b, old: 0x4d46c5bbe68a4b3b, old_aux: 0xa, stuck_mask: 0x00000003030f0300, stuck_value: 0x00000001020f0200, aux_mask: 0x0, aux_value: 0x7, codeword: 0x600e8094e189240b, aux: 0xa, primary: 0x4084f80000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 8), objective: "ones", data: 0x9423b022be5e785a, old: 0x025e8c3335340bb4, old_aux: 0x7e, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x9423b02241a1785a, aux: 0xc, primary: 0x403a000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 8), objective: "flips", data: 0x106876358d502bd8, old: 0xa8e9c3585e254bcb, old_aux: 0x3, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x87, aux_value: 0x82, codeword: 0x106889ca72af2bd8, aux: 0x3c, primary: 0x403d000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 8), objective: "saw", data: 0xd8530e16d61ac017, old: 0x0c3a46df14967b67, old_aux: 0xfe, stuck_mask: 0x0000200000400000, stuck_value: 0x0000200000400000, aux_mask: 0x14, aux_value: 0x7c, codeword: 0xd853f116d6e5c017, aux: 0x24, primary: 0x3ff0000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 8), objective: "mlc", data: 0x113a1170597295c8, old: 0xb5decf4e47caa7dd, old_aux: 0x52, stuck_mask: 0xc330330033cf0000, stuck_value: 0x0210220032450000, aux_mask: 0x20, aux_value: 0x90, codeword: 0x113aee8f598d6ac8, aux: 0x36, primary: 0x4084f80000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 8), objective: "slc", data: 0x676c3ae06f464b31, old: 0x0abb5c9dac97890a, old_aux: 0xe9, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x98933a1f6f464bce, aux: 0xd1, primary: 0x4076c00000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 8), objective: "saw_energy", data: 0x4120340ddc3bf1b6, old: 0xf338f1108966bfb9, old_aux: 0x2c, stuck_mask: 0x0003000000000000, stuck_value: 0x0001000000000000, aux_mask: 0x30, aux_value: 0x68, codeword: 0xbe20340d23c40eb6, aux: 0x8e, primary: 0x4000000000000000, secondary: 0x4092180000000000 },
    Pin { shape: Shape::Fnw(64, 8), objective: "energy_saw", data: 0xdfae9343036338a6, old: 0xdf6c8160f2827520, old_aux: 0xb6, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x69, codeword: 0xdfae9343fc6338a6, aux: 0x8, primary: 0x4091480000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 8), objective: "scalar_mlc", data: 0xcfc64f83f42c48b1, old: 0x9422f0e095d34e84, old_aux: 0xe4, stuck_mask: 0x30030c0003c0030c, stuck_value: 0x2002040001c00300, aux_mask: 0xa9, aux_value: 0x9, codeword: 0x3039b0830bd3484e, aux: 0xed, primary: 0x4080d80000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 4), objective: "ones", data: 0x9541a967689058c5, old: 0x5c205388ba479451, old_aux: 0xa404, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x9541a968689058c5, aux: 0x100, primary: 0x403a000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 4), objective: "flips", data: 0x148471c664a53a45, old: 0x3a4883ab0cc84425, old_aux: 0x9e93, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x2000, aux_value: 0xa9d3, codeword: 0x1b8481c964aac545, aux: 0x491c, primary: 0x403f000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 4), objective: "saw", data: 0x14d5a22198ea99a0, old: 0x9ebd957cbbc93dc1, old_aux: 0xd11a, stuck_mask: 0x00a0000000120000, stuck_value: 0x0000000000000000, aux_mask: 0x8021, aux_value: 0xd119, codeword: 0x14d5a22198e599a0, aux: 0x10, primary: 0x4008000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 4), objective: "mlc", data: 0xf9fc2576ab0fd596, old: 0x4de936d1983c1197, old_aux: 0x55b7, stuck_mask: 0x0f03ccf3c0ffccfc, stuck_value: 0x00004c53c02d44e8, aux_mask: 0x684, aux_value: 0x1fa8, codeword: 0x09032a795b0fd596, aux: 0xb580, primary: 0x4078a00000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 4), objective: "slc", data: 0xa4ad3b161e750bd3, old: 0xefbb9b973622cbeb, old_aux: 0xf9e4, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0xabad3b161e7a0bd3, aux: 0x4010, primary: 0x4077900000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(64, 4), objective: "saw_energy", data: 0xcfe567edda9303bc, old: 0x2fa098ddfec606b2, old_aux: 0xc111, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x804, aux_value: 0x2fc8, codeword: 0x3fea98ed2a9303b3, aux: 0x9c81, primary: 0x0000000000000000, secondary: 0x4091140000000000 },
    Pin { shape: Shape::Fnw(64, 4), objective: "energy_saw", data: 0x30a65bad79e07fee, old: 0xb3934918a25f771c, old_aux: 0x36c4, stuck_mask: 0x00000c0000000000, stuck_value: 0x0000080000000000, aux_mask: 0x594, aux_value: 0x44be, codeword: 0x30a6a4a2861f701e, aux: 0xdf6, primary: 0x407f200000000000, secondary: 0x4008000000000000 },
    Pin { shape: Shape::Fnw(64, 4), objective: "scalar_mlc", data: 0x771e256294c5ca12, old: 0xe5fedf123685e863, old_aux: 0x17ca, stuck_mask: 0x3c00003330000c3c, stuck_value: 0x040000213000042c, aux_mask: 0x2, aux_value: 0x77c5, codeword: 0x88eeda9294c5ca12, aux: 0xee00, primary: 0x4082e00000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(48, 24), objective: "ones", data: 0x0000076e19c20cf5, old: 0x00001def4fbd84d8, old_aux: 0x1, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x0000076e19c20cf5, aux: 0x0, primary: 0x4036000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(48, 24), objective: "flips", data: 0x00008827f2d6d234, old: 0x0000a6df45cc0769, old_aux: 0x2, stuck_mask: 0x0000000004000000, stuck_value: 0x0000000004000000, aux_mask: 0x2, aux_value: 0x2, codeword: 0x000077d80d292dcb, aux: 0x3, primary: 0x4035000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(48, 24), objective: "saw", data: 0x0000c43616016082, old: 0x0000e7bb3960de48, old_aux: 0x2, stuck_mask: 0x00000a0000008004, stuck_value: 0x0000020000008000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x0000c43616016082, aux: 0x0, primary: 0x4000000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(48, 24), objective: "mlc", data: 0x0000366f0e93c98e, old: 0x0000fa566219c7a8, old_aux: 0x1, stuck_mask: 0x0000003c3300f00c, stuck_value: 0x000000343300e008, aux_mask: 0x0, aux_value: 0x1, codeword: 0x0000c990f193c98e, aux: 0x2, primary: 0x4084280000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(48, 24), objective: "slc", data: 0x0000dc1bf7eb4151, old: 0x0000c65bb8a11170, old_aux: 0x0, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x0000dc1bf7eb4151, aux: 0x0, primary: 0x406a000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(48, 24), objective: "saw_energy", data: 0x0000fba94477b969, old: 0x00005dbcaef21ee0, old_aux: 0x3, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x1, aux_value: 0x1, codeword: 0x0000fba944884696, aux: 0x1, primary: 0x0000000000000000, secondary: 0x4097100000000000 },
    Pin { shape: Shape::Fnw(48, 24), objective: "energy_saw", data: 0x000092fb4196e828, old: 0x0000125f334d86ca, old_aux: 0x0, stuck_mask: 0x000000000c0000c0, stuck_value: 0x0000000004000080, aux_mask: 0x2, aux_value: 0x0, codeword: 0x000092fb4196e828, aux: 0x0, primary: 0x4090780000000000, secondary: 0x4000000000000000 },
    Pin { shape: Shape::Fnw(48, 24), objective: "scalar_mlc", data: 0x0000eb8508d2789d, old: 0x0000a0e8fe9f25b6, old_aux: 0x3, stuck_mask: 0x0000ff0c0ccc30f0, stuck_value: 0x0000e90c0c0420e0, aux_mask: 0x0, aux_value: 0x0, codeword: 0x0000eb85082d8762, aux: 0x1, primary: 0x4083c00000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(16, 4), objective: "ones", data: 0x000000000000f223, old: 0x0000000000003841, old_aux: 0x8, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x0000000000000223, aux: 0x8, primary: 0x4014000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(16, 4), objective: "flips", data: 0x00000000000016a4, old: 0x0000000000008b51, old_aux: 0xb, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x3, codeword: 0x0000000000001954, aux: 0x6, primary: 0x4020000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(16, 4), objective: "saw", data: 0x0000000000003dfe, old: 0x000000000000bf9b, old_aux: 0xb, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0xe, aux_value: 0xd, codeword: 0x0000000000003dfe, aux: 0x0, primary: 0x4000000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(16, 4), objective: "mlc", data: 0x0000000000000c9c, old: 0x000000000000a410, old_aux: 0x5, stuck_mask: 0x000000000000c3c3, stuck_value: 0x0000000000000002, aux_mask: 0xa, aux_value: 0x7, codeword: 0x0000000000000393, aux: 0x5, primary: 0x403a000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(16, 4), objective: "slc", data: 0x0000000000002067, old: 0x00000000000031b6, old_aux: 0xf, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x0000000000002097, aux: 0x2, primary: 0x4056c00000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Fnw(16, 4), objective: "saw_energy", data: 0x0000000000007711, old: 0x00000000000031f7, old_aux: 0x9, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0xf, codeword: 0x00000000000088e1, aux: 0xe, primary: 0x0000000000000000, secondary: 0x4076300000000000 },
    Pin { shape: Shape::Fnw(16, 4), objective: "energy_saw", data: 0x0000000000009f99, old: 0x00000000000048bf, old_aux: 0x7, stuck_mask: 0x00000000000000c0, stuck_value: 0x0000000000000080, aux_mask: 0xc, aux_value: 0x0, codeword: 0x0000000000006069, aux: 0xe, primary: 0x4068a00000000000, secondary: 0x4010000000000000 },
    Pin { shape: Shape::Fnw(16, 4), objective: "scalar_mlc", data: 0x00000000000049af, old: 0x0000000000006f17, old_aux: 0xd, stuck_mask: 0x000000000000c000, stuck_value: 0x0000000000008000, aux_mask: 0x4, aux_value: 0x3, codeword: 0x00000000000049a0, aux: 0x1, primary: 0x406a400000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Dbi(64), objective: "ones", data: 0xd578359eec06f019, old: 0xe1c0a6df9171916e, old_aux: 0x1, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0xd578359eec06f019, aux: 0x0, primary: 0x4040000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Dbi(64), objective: "flips", data: 0x0f2b633ab498eef1, old: 0x5fbaf9b6ea4ed5db, old_aux: 0x0, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x1, codeword: 0x0f2b633ab498eef1, aux: 0x0, primary: 0x403e000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Dbi(64), objective: "saw", data: 0x2e580878a6ed6600, old: 0x052b98481a3ba677, old_aux: 0x0, stuck_mask: 0x0000020800000000, stuck_value: 0x0000000800000000, aux_mask: 0x1, aux_value: 0x0, codeword: 0x2e580878a6ed6600, aux: 0x0, primary: 0x0000000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Dbi(64), objective: "mlc", data: 0x21e0551508429a87, old: 0xae7b20b7c39d0d83, old_aux: 0x0, stuck_mask: 0x3f3030cc000000cc, stuck_value: 0x021010840000000c, aux_mask: 0x0, aux_value: 0x0, codeword: 0xde1faaeaf7bd6578, aux: 0x1, primary: 0x4094300000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Dbi(64), objective: "slc", data: 0x9ce2f18cd69b4b34, old: 0xe162939d0cb65d88, old_aux: 0x1, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x9ce2f18cd69b4b34, aux: 0x0, primary: 0x4078600000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Dbi(64), objective: "saw_energy", data: 0x87d70bbd688e4069, old: 0xa856bb83e9e0fd42, old_aux: 0x1, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x87d70bbd688e4069, aux: 0x0, primary: 0x0000000000000000, secondary: 0x4099540000000000 },
    Pin { shape: Shape::Dbi(64), objective: "energy_saw", data: 0x63a47078f8382cf8, old: 0xd8cb3b47b6bc47fe, old_aux: 0x0, stuck_mask: 0x0000c00000000000, stuck_value: 0x0000400000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x63a47078f8382cf8, aux: 0x0, primary: 0x4090080000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Dbi(64), objective: "scalar_mlc", data: 0x1f4ae70e9533fe2d, old: 0x2b44b55bc23b93ae, old_aux: 0x0, stuck_mask: 0x030f0000c0c03000, stuck_value: 0x0101000000c00000, aux_mask: 0x0, aux_value: 0x0, codeword: 0xe0b518f16acc01d2, aux: 0x1, primary: 0x4099200000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Bcc(64, 4), objective: "ones", data: 0x7f1a35d228016742, old: 0xf1d0f09bc0ea8623, old_aux: 0x0, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x80e5ca2d28016742, aux: 0x2, primary: 0x4039000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Bcc(64, 4), objective: "flips", data: 0xc3ede05820b0c4cf, old: 0x62c5a15c82cffd10, old_aux: 0x0, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x2, aux_value: 0x3, codeword: 0xc3ede058df4f3b30, aux: 0x1, primary: 0x4034000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Bcc(64, 4), objective: "saw", data: 0xb4a5f8e01171958c, old: 0xbbd75cafaa096755, old_aux: 0x1, stuck_mask: 0x0000000004000400, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x2, codeword: 0xb4a5f8e01171958c, aux: 0x0, primary: 0x3ff0000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Bcc(64, 4), objective: "mlc", data: 0x0c4a718d763740e1, old: 0x0c591f6806d86a5e, old_aux: 0x1, stuck_mask: 0x03f3f003c00c0000, stuck_value: 0x0213e00380080000, aux_mask: 0x0, aux_value: 0x1, codeword: 0x0c4a718d89c8bf1e, aux: 0x1, primary: 0x408b980000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Bcc(64, 4), objective: "slc", data: 0xa8598c7e5184ce0a, old: 0xcf8dedbca6780ef5, old_aux: 0x0, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0xa8598c7eae7b31f5, aux: 0x1, primary: 0x4074500000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Bcc(64, 4), objective: "saw_energy", data: 0xfa18f8028435fb31, old: 0x4a5fbdeb1d675e00, old_aux: 0x3, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0xfa18f8027bca04ce, aux: 0x1, primary: 0x0000000000000000, secondary: 0x409a240000000000 },
    Pin { shape: Shape::Bcc(64, 4), objective: "energy_saw", data: 0x478a8be56f698eb6, old: 0xec23f7b36a6e2990, old_aux: 0x2, stuck_mask: 0x0c0000000c003000, stuck_value: 0x0000000000000000, aux_mask: 0x1, aux_value: 0x2, codeword: 0x478a8be56f698eb6, aux: 0x0, primary: 0x4097440000000000, secondary: 0x4008000000000000 },
    Pin { shape: Shape::Bcc(64, 4), objective: "scalar_mlc", data: 0x93b96e5880e7bd58, old: 0x3c6e82ebadfc10d8, old_aux: 0x3, stuck_mask: 0x03330303000cc0f3, stuck_value: 0x01030303000080d2, aux_mask: 0x2, aux_value: 0x3, codeword: 0x6c4691a780e7bd58, aux: 0x2, primary: 0x4091b80000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Bcc(64, 16), objective: "ones", data: 0x4d1c79e388147e9e, old: 0x4b4e562dd13d0208, old_aux: 0xe, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x4d1c861c88148161, aux: 0x5, primary: 0x4038000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Bcc(64, 16), objective: "flips", data: 0x8a1b7d0c6638d3ed, old: 0x1511a522895c81ca, old_aux: 0xc, stuck_mask: 0x0000004000000001, stuck_value: 0x0000000000000001, aux_mask: 0x2, aux_value: 0xb, codeword: 0x8a1b7d0c99c7d3ed, aux: 0x2, primary: 0x4040000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Bcc(64, 16), objective: "saw", data: 0x0f57dd652fe19518, old: 0xd9c6c5ea5b8b2c8d, old_aux: 0x9, stuck_mask: 0x0000400000400000, stuck_value: 0x0000400000400000, aux_mask: 0x0, aux_value: 0x4, codeword: 0x0f57dd652fe19518, aux: 0x0, primary: 0x0000000000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Bcc(64, 16), objective: "mlc", data: 0xcb885e62d9bfe907, old: 0x7918836cc729dbc1, old_aux: 0xf, stuck_mask: 0x0003cfc00cfc000c, stuck_value: 0x0001cbc004440008, aux_mask: 0x2, aux_value: 0xb, codeword: 0xcb885e622640e907, aux: 0x2, primary: 0x4089800000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Bcc(64, 16), objective: "slc", data: 0x565423786d1b51c7, old: 0xd175ea988c197660, old_aux: 0x7, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0x0, aux_value: 0x0, codeword: 0x565423786d1bae38, aux: 0x1, primary: 0x4075f00000000000, secondary: 0x0000000000000000 },
    Pin { shape: Shape::Bcc(64, 16), objective: "saw_energy", data: 0x67b72cbbfa27f54c, old: 0x48677f5d66705f42, old_aux: 0x8, stuck_mask: 0x0000000000000000, stuck_value: 0x0000000000000000, aux_mask: 0xc, aux_value: 0x4, codeword: 0x98482cbb05d80ab3, aux: 0xb, primary: 0x4000000000000000, secondary: 0x4096040000000000 },
    Pin { shape: Shape::Bcc(64, 16), objective: "energy_saw", data: 0xf40197bb84a7dfa5, old: 0xd2771a01b9a82968, old_aux: 0x8, stuck_mask: 0x000c000000003300, stuck_value: 0x0004000000001200, aux_mask: 0x2, aux_value: 0x4, codeword: 0x0bfe684484a7205a, aux: 0xd, primary: 0x4096dc0000000000, secondary: 0x4010000000000000 },
    Pin { shape: Shape::Bcc(64, 16), objective: "scalar_mlc", data: 0x05a90fd4a7716852, old: 0xa6f0a16afe1df070, old_aux: 0xf, stuck_mask: 0x03c3c0c033c03c33, stuck_value: 0x010340c020001010, aux_mask: 0x2, aux_value: 0x9, codeword: 0x05a9f02b588e6852, aux: 0x6, primary: 0x4087e00000000000, secondary: 0x0000000000000000 },
];

#[test]
fn zero_kernel_vcc_reproduces_pinned_selective_inversion_encodes() {
    for (row, pin) in PINS.iter().enumerate() {
        let encoder = pin.shape.encoder();
        let bits = encoder.block_bits();
        let stuck = StuckBits::new(
            Block::from_u64(pin.stuck_mask, bits),
            Block::from_u64(pin.stuck_value, bits),
        );
        let ctx = WriteContext::new(
            Block::from_u64(pin.old, bits),
            pin.old_aux,
            encoder.aux_bits(),
        )
        .with_stuck(stuck)
        .with_stuck_aux(pin.aux_mask, pin.aux_value);
        let data = Block::from_u64(pin.data, bits);
        let enc = encoder.encode(&data, &ctx, objective(pin.objective).as_ref());
        let case = format!("row {row}: {:?} under {}", pin.shape, pin.objective);
        assert_eq!(enc.codeword.as_u64(), pin.codeword, "codeword, {case}");
        assert_eq!(enc.aux, pin.aux, "aux, {case}");
        assert_eq!(
            enc.cost.primary.to_bits(),
            pin.primary,
            "primary cost, {case}"
        );
        assert_eq!(
            enc.cost.secondary.to_bits(),
            pin.secondary,
            "secondary cost, {case}"
        );
        assert_eq!(
            encoder.decode(&enc.codeword, enc.aux),
            data,
            "decode, {case}"
        );
    }
}
