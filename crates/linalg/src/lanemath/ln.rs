//! `ln` and `log10`: glibc 2.36's `log` (`sysdeps/ieee754/dbl-64/e_log.c`,
//! from ARM's optimized-routines) as its FMA build `__log_fma` computes
//! it, and its `log10` (`e_log10.c`, Sun's fdlibm), which has no FMA
//! build and composes over that `log`.
//!
//! `log` takes two paths, both computed for every lane and one selected:
//! inputs in `[1 − 2⁻⁴, 1 + 0x1.09p−4)` take the degree-11 polynomial in
//! `x − 1` (with the Dekker-style split of `r²/2`), all other positive
//! normal inputs `x = 2^k·z` the 128-entry `(1/c, ln c)` table and a
//! degree-5 polynomial in `z/c − 1`. `log10` writes `x = 2^n·m` with `m`
//! in `[1, 2)`, or in `[1/2, 1)` when `n < 0`, and returns `log10(2)·n +
//! log10(e)·ln m` with `log10(2)` in two parts, in plain (unfused)
//! operations. Zero, negatives, subnormals, ∞ and NaN are outside
//! [`fast`] and go to libm.

/// `ln(2)`, high part (the low 11 mantissa bits zero) and the rest.
const LN2_HI: f64 = f64::from_bits(0x3fe62e42fefa3800);
const LN2_LO: f64 = f64::from_bits(0x3d2ef35793c76730);
/// Main-path polynomial for `ln(1 + r) − r`, `A[0]·r² + A[1]·r³ + …`.
const A: [f64; 5] = [
    f64::from_bits(0xbfe0000000000001),
    f64::from_bits(0x3fd555555551305b),
    f64::from_bits(0xbfcfffffffeb4590),
    f64::from_bits(0x3fc999b324f10111),
    f64::from_bits(0xbfc55575e506c89f),
];
/// Near-1 polynomial, `B[0] = −1/2` for the `r²` term, then `B[1]·r³ + …`.
const B: [f64; 11] = [
    f64::from_bits(0xbfe0000000000000),
    f64::from_bits(0x3fd5555555555577),
    f64::from_bits(0xbfcffffffffffdcb),
    f64::from_bits(0x3fc999999995dd0c),
    f64::from_bits(0xbfc55555556745a7),
    f64::from_bits(0x3fc24924a344de30),
    f64::from_bits(0xbfbfffffa4423d65),
    f64::from_bits(0x3fbc7184282ad6ca),
    f64::from_bits(0xbfb999eb43b068ff),
    f64::from_bits(0x3fb78182f7afd085),
    f64::from_bits(0xbfb5521375d145cd),
];
/// `z` ranges over `[OFF, 2·OFF)`; subtracting `OFF` exposes `k` and the
/// table index.
const OFF: u64 = 0x3fe6000000000000;
/// Bits of `1 − 2⁻⁴` and `1 + 0x1.09p−4`: the near-1 interval.
const NEAR_LO: u64 = 0x3fee000000000000;
const NEAR_HI: u64 = 0x3ff1090000000000;

/// Whether [`core`] is `x.ln()` for `x`: positive, normal and finite.
#[inline(always)]
pub(super) fn fast(x: f64) -> bool {
    let top = (x.to_bits() >> 48) as u32;
    top.wrapping_sub(0x0010) < 0x7ff0 - 0x0010
}

/// `ln x` for `x` in [`fast`]'s domain; any other input gives a value
/// that the caller discards.
#[inline(always)]
pub(super) fn core(x: f64) -> f64 {
    let ix = x.to_bits();

    // x = 2^k·z: ln x = k·ln2 + ln c + ln(1 + r), r = z/c − 1.
    let tmp = ix.wrapping_sub(OFF);
    let [invc, logc] = TAB[((tmp >> 45) % 128) as usize].map(f64::from_bits);
    let kd = ((tmp as i64) >> 52) as f64;
    let z = f64::from_bits(ix.wrapping_sub(tmp & (0xfff << 52)));
    let w = kd.mul_add(LN2_HI, logc);
    let r = z.mul_add(invc, -1.0);
    let hi = r + w;
    let r2 = r * r;
    let lo = kd.mul_add(LN2_LO, (w - hi) + r);
    let p = r.mul_add(A[4], A[3]).mul_add(r2, r.mul_add(A[2], A[1]));
    let table = (r * r2).mul_add(p, r2.mul_add(A[0], lo)) + hi;

    // Near 1: r = x − 1 exactly, r − r²/2 in two parts.
    let r = x - 1.0;
    let r2 = r * r;
    let r3 = r * r2;
    let q1 = r2.mul_add(B[3], r.mul_add(B[2], B[1]));
    let q4 = r2.mul_add(B[6], r.mul_add(B[5], B[4]));
    let q7 = r3.mul_add(B[10], r2.mul_add(B[9], r.mul_add(B[8], B[7])));
    let q = q7.mul_add(r3, q4).mul_add(r3, q1);
    const SPLIT: f64 = 134217728.0; // 2^27
    let rhi = (-SPLIT).mul_add(r, r.mul_add(SPLIT, r));
    let rlo = r - rhi;
    let rhi2 = rhi * rhi;
    let hi = rhi2.mul_add(B[0], r);
    let lo = rhi2.mul_add(B[0], r - hi);
    let lo = (B[0] * rlo).mul_add(rhi + r, lo);
    let near = q.mul_add(r3, lo) + hi;

    if ix.wrapping_sub(NEAR_LO) < NEAR_HI - NEAR_LO {
        near
    } else {
        table
    }
}

/// `log10(e)` and `log10(2)` in two parts (the high part's low 13
/// mantissa bits zero).
const INV_LN10: f64 = f64::from_bits(0x3fdbcb7b1526e50e);
const LOG10_2_HI: f64 = f64::from_bits(0x3fd34413509f6000);
const LOG10_2_LO: f64 = f64::from_bits(0x3d59fef311f12b36);

/// `log10 x` for `x` in [`fast`]'s domain; any other input gives a value
/// that the caller discards.
#[inline(always)]
pub(super) fn log10_core(x: f64) -> f64 {
    let ix = x.to_bits();
    // n, less one when negative: m = x/2^n then lies in [1/2, 1).
    let k = (ix >> 52) as i64 - 0x3ff;
    let i = (k as u64 >> 63) as i64;
    let n = (k + i) as f64;
    let m = f64::from_bits((ix & 0x000f_ffff_ffff_ffff) | (((0x3ff - i) as u64) << 52));
    (n * LOG10_2_LO + INV_LN10 * core(m)) + n * LOG10_2_HI
}

/// `(1/c, ln c)` for the 128 subintervals of `[OFF, 2·OFF)`, from glibc's
/// `__log_data.tab`.
const TAB: [[u64; 2]; 128] = [
    [0x3ff734f0c3e0de9f, 0xbfd7cc7f79e69000],
    [0x3ff713786a2ce91f, 0xbfd76feec20d0000],
    [0x3ff6f26008fab5a0, 0xbfd713e31351e000],
    [0x3ff6d1a61f138c7d, 0xbfd6b85b38287800],
    [0x3ff6b1490bc5b4d1, 0xbfd65d5590807800],
    [0x3ff69147332f0cba, 0xbfd602d076180000],
    [0x3ff6719f18224223, 0xbfd5a8ca86909000],
    [0x3ff6524f99a51ed9, 0xbfd54f4356035000],
    [0x3ff63356aa8f24c4, 0xbfd4f637c36b4000],
    [0x3ff614b36b9ddc14, 0xbfd49da7fda85000],
    [0x3ff5f66452c65c4c, 0xbfd445923989a800],
    [0x3ff5d867b5912c4f, 0xbfd3edf439b0b800],
    [0x3ff5babccb5b90de, 0xbfd396ce448f7000],
    [0x3ff59d61f2d91a78, 0xbfd3401e17bda000],
    [0x3ff5805612465687, 0xbfd2e9e2ef468000],
    [0x3ff56397cee76bd3, 0xbfd2941b3830e000],
    [0x3ff54725e2a77f93, 0xbfd23ec58cda8800],
    [0x3ff52aff42064583, 0xbfd1e9e129279000],
    [0x3ff50f22dbb2bddf, 0xbfd1956d2b48f800],
    [0x3ff4f38f4734ded7, 0xbfd141679ab9f800],
    [0x3ff4d843cfde2840, 0xbfd0edd094ef9800],
    [0x3ff4bd3ec078a3c8, 0xbfd09aa518db1000],
    [0x3ff4a27fc3e0258a, 0xbfd047e65263b800],
    [0x3ff4880524d48434, 0xbfcfeb224586f000],
    [0x3ff46dce1b192d0b, 0xbfcf474a7517b000],
    [0x3ff453d9d3391854, 0xbfcea4443d103000],
    [0x3ff43a2744b4845a, 0xbfce020d44e9b000],
    [0x3ff420b54115f8fb, 0xbfcd60a22977f000],
    [0x3ff40782da3ef4b1, 0xbfccc00104959000],
    [0x3ff3ee8f5d57fe8f, 0xbfcc202956891000],
    [0x3ff3d5d9a00b4ce9, 0xbfcb81178d811000],
    [0x3ff3bd60c010c12b, 0xbfcae2c9ccd3d000],
    [0x3ff3a5242b75dab8, 0xbfca45402e129000],
    [0x3ff38d22cd9fd002, 0xbfc9a877681df000],
    [0x3ff3755bc5847a1c, 0xbfc90c6d69483000],
    [0x3ff35dce49ad36e2, 0xbfc87120a645c000],
    [0x3ff34679984dd440, 0xbfc7d68fb4143000],
    [0x3ff32f5cceffcb24, 0xbfc73cb83c627000],
    [0x3ff3187775a10d49, 0xbfc6a39a9b376000],
    [0x3ff301c8373e3990, 0xbfc60b3154b7a000],
    [0x3ff2eb4ebb95f841, 0xbfc5737d76243000],
    [0x3ff2d50a0219a9d1, 0xbfc4dc7b8fc23000],
    [0x3ff2bef9a8b7fd2a, 0xbfc4462c51d20000],
    [0x3ff2a91c7a0c1bab, 0xbfc3b08abc830000],
    [0x3ff293726014b530, 0xbfc31b996b490000],
    [0x3ff27dfa5757a1f5, 0xbfc2875490a44000],
    [0x3ff268b39b1d3bbf, 0xbfc1f3b9f879a000],
    [0x3ff2539d838ff5bd, 0xbfc160c8252ca000],
    [0x3ff23eb7aac9083b, 0xbfc0ce7f57f72000],
    [0x3ff22a012ba940b6, 0xbfc03cdc49fea000],
    [0x3ff2157996cc4132, 0xbfbf57bdbc4b8000],
    [0x3ff201201dd2fc9b, 0xbfbe370896404000],
    [0x3ff1ecf4494d480b, 0xbfbd17983ef94000],
    [0x3ff1d8f5528f6569, 0xbfbbf9674ed8a000],
    [0x3ff1c52311577e7c, 0xbfbadc79202f6000],
    [0x3ff1b17c74cb26e9, 0xbfb9c0c3e7288000],
    [0x3ff19e010c2c1ab6, 0xbfb8a646b372c000],
    [0x3ff18ab07bb670bd, 0xbfb78d01b3ac0000],
    [0x3ff1778a25efbcb6, 0xbfb674f145380000],
    [0x3ff1648d354c31da, 0xbfb55e0e6d878000],
    [0x3ff151b990275fdd, 0xbfb4485cdea1e000],
    [0x3ff13f0ea432d24c, 0xbfb333d94d6aa000],
    [0x3ff12c8b7210f9da, 0xbfb22079f8c56000],
    [0x3ff11a3028ecb531, 0xbfb10e4698622000],
    [0x3ff107fbda8434af, 0xbfaffa6c6ad20000],
    [0x3ff0f5ee0f4e6bb3, 0xbfadda8d4a774000],
    [0x3ff0e4065d2a9fce, 0xbfabbcece4850000],
    [0x3ff0d244632ca521, 0xbfa9a1894012c000],
    [0x3ff0c0a77ce2981a, 0xbfa788583302c000],
    [0x3ff0af2f83c636d1, 0xbfa5715e67d68000],
    [0x3ff09ddb98a01339, 0xbfa35c8a49658000],
    [0x3ff08cabaf52e7df, 0xbfa149e364154000],
    [0x3ff07b9f2f4e28fb, 0xbf9e72c082eb8000],
    [0x3ff06ab58c358f19, 0xbf9a55f152528000],
    [0x3ff059eea5ecf92c, 0xbf963d62cf818000],
    [0x3ff04949cdd12c90, 0xbf9228fb8caa0000],
    [0x3ff038c6c6f0ada9, 0xbf8c317b20f90000],
    [0x3ff02865137932a9, 0xbf8419355daa0000],
    [0x3ff0182427ea7348, 0xbf781203c2ec0000],
    [0x3ff008040614b195, 0xbf60040979240000],
    [0x3fefe01ff726fa1a, 0x3f6feff384900000],
    [0x3fefa11cc261ea74, 0x3f87dc41353d0000],
    [0x3fef6310b081992e, 0x3f93cea3c4c28000],
    [0x3fef25f63ceeadcd, 0x3f9b9fc114890000],
    [0x3feee9c8039113e7, 0x3fa1b0d8ce110000],
    [0x3feeae8078cbb1ab, 0x3fa58a5bd001c000],
    [0x3fee741aa29d0c9b, 0x3fa95c8340d88000],
    [0x3fee3a91830a99b5, 0x3fad276aef578000],
    [0x3fee01e009609a56, 0x3fb07598e598c000],
    [0x3fedca01e577bb98, 0x3fb253f5e30d2000],
    [0x3fed92f20b7c9103, 0x3fb42edd8b380000],
    [0x3fed5cac66fb5cce, 0x3fb606598757c000],
    [0x3fed272caa5ede9d, 0x3fb7da76356a0000],
    [0x3fecf26e3e6b2ccd, 0x3fb9ab434e1c6000],
    [0x3fecbe6da2a77902, 0x3fbb78c7bb0d6000],
    [0x3fec8b266d37086d, 0x3fbd431332e72000],
    [0x3fec5894bd5d5804, 0x3fbf0a3171de6000],
    [0x3fec26b533bb9f8c, 0x3fc067152b914000],
    [0x3febf583eeece73f, 0x3fc147858292b000],
    [0x3febc4fd75db96c1, 0x3fc2266ecdca3000],
    [0x3feb951e0c864a28, 0x3fc303d7a6c55000],
    [0x3feb65e2c5ef3e2c, 0x3fc3dfc33c331000],
    [0x3feb374867c9888b, 0x3fc4ba366b7a8000],
    [0x3feb094b211d304a, 0x3fc5933928d1f000],
    [0x3feadbe885f2ef7e, 0x3fc66acd2418f000],
    [0x3feaaf1d31603da2, 0x3fc740f8ec669000],
    [0x3fea82e63fd358a7, 0x3fc815c0f51af000],
    [0x3fea5740ef09738b, 0x3fc8e92954f68000],
    [0x3fea2c2a90ab4b27, 0x3fc9bb3602f84000],
    [0x3fea01a01393f2d1, 0x3fca8bed1c2c0000],
    [0x3fe9d79f24db3c1b, 0x3fcb5b515c01d000],
    [0x3fe9ae2505c7b190, 0x3fcc2967ccbcc000],
    [0x3fe9852ef297ce2f, 0x3fccf635d5486000],
    [0x3fe95cbaeea44b75, 0x3fcdc1bd3446c000],
    [0x3fe934c69de74838, 0x3fce8c01b8cfe000],
    [0x3fe90d4f2f6752e6, 0x3fcf5509c0179000],
    [0x3fe8e6528effd79d, 0x3fd00e6c121fb800],
    [0x3fe8bfce9fcc007c, 0x3fd071b80e93d000],
    [0x3fe899c0dabec30e, 0x3fd0d46b9e867000],
    [0x3fe87427aa2317fb, 0x3fd13687334bd000],
    [0x3fe84f00acb39a08, 0x3fd1980d67234800],
    [0x3fe82a49e8653e55, 0x3fd1f8ffe0cc8000],
    [0x3fe8060195f40260, 0x3fd2595fd7636800],
    [0x3fe7e22563e0a329, 0x3fd2b9300914a800],
    [0x3fe7beb377dcb5ad, 0x3fd3187210436000],
    [0x3fe79baa679725c2, 0x3fd377266dec1800],
    [0x3fe77907f2170657, 0x3fd3d54ffbaf3000],
    [0x3fe756cadbd6130c, 0x3fd432eee32fe000],
];
