//! Ziggurat rejection sampler (taxonomy category 3, Marsaglia & Tsang).

use std::sync::OnceLock;

use vibnn_rng::{BitSource, Xoshiro256};

use crate::{substream_seed, GaussianSource, StreamFork};

const LAYERS: usize = 128;
/// x-coordinate of the base layer for 128 layers.
const R: f64 = 3.442619855899;
const V: f64 = 9.91256303526217e-3;

/// Marsaglia–Tsang ziggurat sampler for N(0, 1) with 128 layers.
///
/// The paper's taxonomy lists rejection methods (the Ziggurat algorithm) as
/// high-quality but hardware-unfriendly; it serves here as the software
/// gold standard for speed/quality comparisons.
///
/// # Example
///
/// ```
/// use vibnn_grng::{GaussianSource, ZigguratGrng};
/// let mut g = ZigguratGrng::new(1);
/// assert!(g.next_gaussian().is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct ZigguratGrng {
    uniform: Xoshiro256,
    tables: &'static Tables,
    seed: u64,
}

/// The layer tables. They do not depend on the seed, so one copy is
/// built per process and every generator and fork borrows it.
#[derive(Debug)]
struct Tables {
    x: [f64; LAYERS + 1],
    y: [f64; LAYERS],
}

fn pdf_unscaled(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

impl Tables {
    /// The process-wide tables, built on first use.
    fn shared() -> &'static Self {
        static TABLES: OnceLock<Tables> = OnceLock::new();
        TABLES.get_or_init(Self::build)
    }

    fn build() -> Self {
        let mut x = [0.0; LAYERS + 1];
        let mut y = [0.0; LAYERS];
        x[0] = V / pdf_unscaled(R);
        x[1] = R;
        for i in 2..LAYERS {
            let prev_y = pdf_unscaled(x[i - 1]);
            let target = prev_y + V / x[i - 1];
            x[i] = (-2.0 * target.ln()).sqrt();
        }
        x[LAYERS] = 0.0;
        // y[i] is the pdf at the *outer* edge of layer i; store pdf(x[i])
        // with y[0] at pdf(R).
        for (i, slot) in y.iter_mut().enumerate() {
            *slot = pdf_unscaled(x[i + 1]);
        }
        Self { x, y }
    }
}

impl ZigguratGrng {
    /// Creates the generator. The layer tables are built once per
    /// process and shared, so construction and [`StreamFork::fork`] cost
    /// only the seed derivation and the uniform generator's seeding.
    pub fn new(seed: u64) -> Self {
        Self {
            uniform: Xoshiro256::new(seed),
            tables: Tables::shared(),
            seed,
        }
    }

    fn sample_tail(rng: &mut Xoshiro256) -> f64 {
        // Marsaglia's tail algorithm for x > R.
        loop {
            let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
            let u2 = rng.next_f64().max(f64::MIN_POSITIVE);
            let x = -u1.ln() / R;
            let y = -u2.ln();
            if 2.0 * y > x * x {
                return R + x;
            }
        }
    }

    /// One draw from explicit state — shared by the scalar and block
    /// paths so they consume the identical uniform stream.
    #[inline(always)]
    fn draw(tables: &Tables, rng: &mut Xoshiro256) -> f64 {
        let (x_tab, y_tab) = (&tables.x, &tables.y);
        loop {
            let bits = rng.next_u64();
            let layer = (bits & (LAYERS as u64 - 1)) as usize;
            let sign = if bits & LAYERS as u64 != 0 { 1.0 } else { -1.0 };
            let u = ((bits >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
            let x = u * x_tab[layer];
            if x < x_tab[layer + 1] {
                return sign * x;
            }
            if layer == 0 {
                return sign * Self::sample_tail(rng);
            }
            // Wedge: accept with probability proportional to pdf.
            let y0 = y_tab[layer - 1];
            let y1 = y_tab[layer];
            let v = rng.next_f64();
            if y0 + v * (y1 - y0) < pdf_unscaled(x) {
                return sign * x;
            }
        }
    }
}

impl StreamFork for ZigguratGrng {
    fn fork(&self, stream_id: u64) -> Self {
        Self::new(substream_seed(self.seed, stream_id))
    }
}

impl GaussianSource for ZigguratGrng {
    fn next_gaussian(&mut self) -> f64 {
        Self::draw(self.tables, &mut self.uniform)
    }

    /// The hoisted-state loop of [`Self::fill_f32`], in `f64`.
    fn fill(&mut self, out: &mut [f64]) {
        let mut rng = self.uniform;
        for slot in out {
            *slot = Self::draw(self.tables, &mut rng);
        }
        self.uniform = rng;
    }

    /// Writes each sample straight into the `f32` slice instead of
    /// round-tripping 256-element `f64` chunks through the trait's default
    /// (which cost ~10% block throughput versus the scalar path — the
    /// `bench_train` ε fill-rate guard watches this). The uniform state is
    /// hoisted into a local for the duration of the fill so the hot loop
    /// keeps it in registers instead of round-tripping through `&mut self`
    /// on every draw. Identical stream: one draw per slot, in order.
    fn fill_f32(&mut self, out: &mut [f32]) {
        let mut rng = self.uniform;
        for slot in out {
            *slot = Self::draw(self.tables, &mut rng) as f32;
        }
        self.uniform = rng;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibnn_stats::{ks_test_normal, Moments};

    #[test]
    fn ziggurat_moments() {
        let mut g = ZigguratGrng::new(11);
        let m = Moments::from_slice(&g.take_vec(300_000));
        assert!(m.mean().abs() < 0.01, "mean {}", m.mean());
        assert!((m.std_dev() - 1.0).abs() < 0.01, "std {}", m.std_dev());
        assert!(m.skewness().abs() < 0.05);
        assert!(m.excess_kurtosis().abs() < 0.1);
    }

    #[test]
    fn ziggurat_passes_ks() {
        let mut g = ZigguratGrng::new(12);
        let out = ks_test_normal(&g.take_vec(50_000));
        assert!(out.passes(0.01), "p={} D={}", out.p_value, out.statistic);
    }

    #[test]
    fn tail_mass_is_correct() {
        let mut g = ZigguratGrng::new(13);
        let xs = g.take_vec(500_000);
        let beyond3 = xs.iter().filter(|&&x| x.abs() > 3.0).count() as f64;
        // P(|Z| > 3) = 0.0027.
        assert!(
            (beyond3 / 500_000.0 - 0.0027).abs() < 0.0008,
            "tail mass {}",
            beyond3 / 500_000.0
        );
    }

    #[test]
    fn fill_f32_matches_scalar_stream() {
        let mut scalar = ZigguratGrng::new(44);
        let mut block = ZigguratGrng::new(44);
        let want: Vec<f32> = (0..1000).map(|_| scalar.next_gaussian() as f32).collect();
        let mut got = vec![0.0f32; 1000];
        block.fill_f32(&mut got[..300]);
        block.fill_f32(&mut got[300..]);
        assert_eq!(got, want);
    }

    #[test]
    fn fill_matches_scalar_stream() {
        let mut scalar = ZigguratGrng::new(44);
        let mut block = ZigguratGrng::new(44);
        let want: Vec<u64> = (0..1000)
            .map(|_| scalar.next_gaussian().to_bits())
            .collect();
        let mut got = vec![0.0f64; 1000];
        block.fill(&mut got[..300]);
        block.fill(&mut got[300..]);
        assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
    }

    /// The first 32 draws, as `f64` bits, of `ZigguratGrng::new(0xC1A5_7E12)`
    /// (row 0) and of its forks 0..8 (rows 1..=8), recorded when every
    /// generator still built its own layer tables. Since forks share one
    /// copy of the tables, comparing a fork with a fresh `new` would prove
    /// nothing; these values pin the streams themselves.
    #[rustfmt::skip]
    const GOLDEN: [[u64; 32]; 9] = [
        [
            0xBFDB_9065_E69F_1FAB, 0x3FCE_8C66_C191_DB0C, 0xBFF2_41D3_700F_C421, 0xBFDA_760F_1530_3950,
            0x3FD5_ADDB_9FCE_7E5D, 0x3FAD_67D5_02ED_205B, 0x3FD2_CF06_9172_6A25, 0x3FE1_AD05_83AD_19AE,
            0x3FCE_C5D9_73B6_96AF, 0x3FCD_2A7C_314D_3D46, 0x3FC1_7DF7_0874_582D, 0x3FC0_40B3_7750_B4BE,
            0x3FE6_C5BF_4B52_222C, 0xBFFB_A088_1918_0D24, 0xBFD8_2621_2FBB_62A4, 0x3FDF_0D10_DB30_A983,
            0x3FBE_1CEE_1A47_AD86, 0xBFE7_5986_D897_4066, 0xBFE4_E1AC_2BCE_A7C1, 0x3FE9_E58C_0CFE_DF57,
            0xC002_8D1A_37FD_2349, 0x3FF4_C3A5_97FF_8C6C, 0x3FE5_A7E7_4785_AB9A, 0xBFF3_9FB0_6A35_6158,
            0xBFD9_60B3_EDA8_A24F, 0x3FEF_99AC_0E79_46D4, 0xBFF9_7F31_184C_B5F9, 0xBFE7_5525_1AEB_284A,
            0xBFEE_58F9_6E95_EED8, 0x3FF1_BD29_D099_11C1, 0xBFDB_1360_825D_0C9F, 0xC003_A90E_9967_6F41,
        ],
        [
            0x3FEE_E65B_7A36_EC74, 0x3FB0_63A5_A373_070B, 0xBFDE_6915_208D_43A2, 0x3FDB_82D6_3103_8D93,
            0x3FBE_E880_F765_8021, 0x3FD1_D01B_46FC_F88D, 0xBFF0_B9A7_FEEB_2ECE, 0xBFD4_B613_72D7_D91D,
            0xBFC4_CF23_DAD8_D1DD, 0xBFF3_B006_F3C3_47A4, 0x3FD0_B3DC_C224_C686, 0xBFC4_123C_A9CC_CD09,
            0x3FE5_7F95_196A_C08B, 0xBFF4_EE62_9B43_EA84, 0xBFF5_3A13_82F9_33AB, 0x3FFA_2068_3B49_8F2C,
            0x3FF1_E485_0F56_249C, 0x3FFF_7A71_2578_9E00, 0x3FEE_C09F_FB77_32D6, 0xBFA0_56AA_5D79_DF91,
            0xBFC1_EA2B_B4E5_21F3, 0x3FFD_FB67_E84C_37BA, 0xBFF1_455E_BDB5_7E2A, 0xBFF2_52BB_4B29_7DCD,
            0xBFD4_330E_5B8D_7B99, 0x3FE5_A7BC_4EB4_A62B, 0xBFED_8FBE_68D8_2BE5, 0xBFD6_0C8F_8FF2_7DC7,
            0x3FE2_FE94_F3C7_8261, 0x3FEC_0BBB_1027_16A3, 0x3FDE_35C2_9964_CC52, 0x3FF5_86F8_009F_9B61,
        ],
        [
            0x3FE2_7B26_3228_E1D0, 0x3FF2_617C_6232_A10F, 0x3FF3_F680_D9A7_9935, 0xBFE8_46B3_D619_49B9,
            0xBFE5_AEC3_2A2B_8D9E, 0x4003_2E89_C7BC_7F34, 0x3FD0_850C_E7DC_9860, 0xBFEE_24E0_7052_36FE,
            0xBFE8_9904_698B_DA82, 0xBFF2_6CF2_E9AF_B94A, 0xBFF4_14E0_9050_DF0E, 0x3FC7_9339_57C7_20BA,
            0xBFF9_88E7_5AC1_EFF0, 0xBFC4_B62C_0D75_DE0D, 0x3FEE_0A08_B16C_CC9F, 0x4001_5B2E_72E1_EA01,
            0x3FF9_46B4_21AE_58C4, 0x3FF5_A444_1C49_28D8, 0x3FE0_9218_AD6C_E095, 0x3FF9_D6CE_2C51_D82B,
            0x3FF0_6201_0890_0FD9, 0xBFDC_8ED1_C56B_AF73, 0x3FF1_A05D_7BD8_CC63, 0x3FE8_CA94_8298_0079,
            0x3FE1_FE7D_F462_BF46, 0x3FDB_3DF8_4280_C5BD, 0x3F72_5F35_EAFF_762A, 0x3FC6_DB63_4897_BC63,
            0xBFF4_92ED_6089_A99C, 0xBFDA_7313_98F0_2079, 0x3FEA_8840_590C_4C88, 0xBFF6_ECC9_E297_6B80,
        ],
        [
            0xBF61_6D07_DAD9_17AF, 0xBFBD_EF22_393A_8546, 0xBFEF_5859_6E0C_941E, 0x3FD5_64BE_7099_217C,
            0x3FE7_79D0_1F4C_566C, 0xBFE6_EAD0_F95D_17E8, 0x3FAB_8FA2_07B1_2DCF, 0x3FFB_AC02_93FE_63B2,
            0x3FA4_89E0_164F_8612, 0x3FEF_DF88_3916_BE7C, 0x3FDF_D857_FCDE_33A6, 0xC003_50AF_8FA2_F428,
            0xBFE5_F10A_B5A3_9A79, 0x3FD9_0065_0849_4A93, 0x3FE5_511B_1D07_98E4, 0xBFE8_6C2B_FFD4_4E64,
            0xBFF4_AD8A_8665_3BE7, 0x3FB1_3BEE_240A_81EE, 0xBFDD_9C6E_A355_CF11, 0x3F68_094F_F2B8_0CD6,
            0xBFFE_A66B_1099_77A6, 0xBFEE_48A0_F5CA_E041, 0xBFC8_889B_49DB_E792, 0xBFC8_C877_7C60_FE17,
            0x3FF0_8D52_D24F_4B9B, 0x3FCF_DEF8_64E6_5C77, 0xC003_8470_BB3E_0769, 0x3FF2_3054_01C2_2B21,
            0x3FEA_B5FC_7BCF_9798, 0x3FED_246D_523A_B100, 0xBFF0_0646_52CD_B88A, 0xBFF5_C9B1_25B1_8140,
        ],
        [
            0x3FE1_6DC8_215A_1561, 0xBFF1_218A_85AD_2398, 0x3FDA_F59B_CD40_21FD, 0xBFCD_7BD4_8311_7AC8,
            0x3FF2_89A3_F46C_C721, 0x3FF8_4D93_4B1E_450E, 0x3FFA_E405_4EF7_56A1, 0xBFD4_6836_A523_CF9B,
            0xBFE3_F6F3_02FB_E3A7, 0x3FD5_6979_939B_1143, 0xBFFA_495A_0101_2C8A, 0x3FB8_4BF3_7F1F_9626,
            0x3FDB_E247_9D5C_94C9, 0x4001_4B74_E7B6_E71E, 0x3FDF_FBFB_FA30_4146, 0xBFBE_0B6D_ABF3_0259,
            0x3FEC_6E90_0E28_8B77, 0xBFE8_958B_25C5_FF53, 0x3FF6_F66B_AD15_3E37, 0xBFF4_3983_F0C9_83C7,
            0xBFDF_42E0_03CB_B244, 0x3FCA_0B8B_6404_39B1, 0xBFF5_F796_1F8F_04E1, 0x3FFB_2ABA_03E2_709B,
            0xBFF3_2612_AEA8_9F92, 0xBFF1_A2D4_28B8_A06A, 0x3FF8_D308_4601_36B5, 0x3FF2_47B1_DBE6_AA0F,
            0x3FE1_4860_B89F_1475, 0x3FE8_C6C6_106F_D7AF, 0x3FD4_7433_E112_F32E, 0xBFD4_A110_001C_2622,
        ],
        [
            0xBFC5_5A7D_0E6E_8C1F, 0x3FEB_387C_F69C_F09E, 0x3FE5_46BE_E6A6_7F58, 0x3FF3_9D72_BA91_59FE,
            0x3FC5_E02E_A3DE_1171, 0x3FF8_872B_98BC_6255, 0xC001_C1BF_B99D_4264, 0x3FF1_8E70_96D0_501D,
            0xBFF1_FD47_1A89_F10C, 0xBFB6_55AF_55AB_A7DF, 0xBFD9_5541_69B1_BA2E, 0x3FF5_A509_39F5_DA0E,
            0x3F84_AD24_B881_7A13, 0xBFF0_86DA_3579_E56D, 0x3FEE_CED3_AD4F_2246, 0x3FA1_A307_55B3_E9B1,
            0x3FC2_0FDF_DC7F_86CB, 0x3FFF_B638_84AA_EEB2, 0xBFF1_3AA4_E761_77C1, 0xBFD8_867F_2B53_190F,
            0xBFEE_47A2_5C17_09D9, 0x3FCA_D4EF_BFD9_6B40, 0xBFD2_FDB5_6CCF_3DFE, 0x3FE0_A63D_48BC_9754,
            0xBFEE_9CD6_1095_AB66, 0xBFF0_775A_C87E_4BE0, 0x3FE0_5B35_4EB6_AE7C, 0x3FF2_D1EA_2B7D_720B,
            0x3FD0_6DE2_0F36_74C8, 0x3FF0_090C_4676_93E9, 0x3FE9_D119_D773_8473, 0xBFF2_F67E_4D71_EFD8,
        ],
        [
            0xBFE0_B043_EDC5_A075, 0xBFF5_AD50_6982_B19A, 0x4000_EAD0_FC58_2ECD, 0xBFDE_4E57_151D_3B4C,
            0x3FD5_A65B_5C50_DB87, 0xBFE7_0B06_9CE4_B983, 0xBFE1_C2E6_3F18_538F, 0xBFF2_A1AF_97D1_A4F8,
            0x3FE6_D6F5_3271_5919, 0x3FF7_89FB_7925_825A, 0x3FFE_47B3_A934_0335, 0x3FD9_ADB9_123A_CA77,
            0xBFF1_545B_A11C_2A4A, 0xBFD4_3524_178E_F08B, 0x3FEA_5E73_C16C_F88D, 0xBFF4_4AEA_BCAD_C6F8,
            0xBFF3_A9C0_A436_0D22, 0x3FF5_B4E1_15B5_220B, 0xBFE0_DD46_1E07_45DE, 0xBFF6_45E6_E85F_5CBD,
            0x3FF3_1F27_EED7_48C8, 0x400F_7606_3C3D_17D0, 0xBFF5_1B8B_BC7D_5270, 0x3FD6_8019_9A85_2E62,
            0xBFDD_D6CE_130E_5716, 0xBFED_134F_CF41_2DC6, 0x4005_3C67_ADEA_75C1, 0x3FE6_3196_9711_C872,
            0x3FF3_B411_E8FA_4EB9, 0x3FE5_9926_5E8A_EF7B, 0x3FB8_885E_B230_9E1C, 0xBFF1_6A41_4194_8F03,
        ],
        [
            0xBFEE_8938_51BE_B0BE, 0x3FFF_33AD_3D2B_3EAF, 0xBFF1_A7A6_9369_EFCB, 0xBFAC_FC42_B4F4_C7BA,
            0xBFEC_31BB_A490_99F9, 0xBFF7_C8F9_95B6_6A39, 0x3FF0_8205_B03E_E1B2, 0xBFC3_F66C_B1A6_BE42,
            0x3FE7_8DCC_7540_28E6, 0xBFD8_0555_22B3_0A91, 0xBFE0_0E68_9491_57CC, 0x3FC2_4428_FAA0_F221,
            0x3FE3_AA3E_6974_715D, 0x3FF1_C7E6_F477_AC90, 0xBFDF_0CC6_85E7_5E27, 0xBFC3_BE17_9B5F_9CED,
            0xBFD9_D42A_75DD_9E3A, 0x3FD6_4C4E_C031_3183, 0x3F55_3C37_1611_D3F6, 0x3FEE_A2BD_45ED_E00D,
            0x3F84_2B7D_FB82_A3C6, 0x3FE0_E946_C176_3553, 0xBFC8_D319_7956_4948, 0xBFFB_CC96_6A76_1648,
            0xBFEE_7A43_CC5C_6DB4, 0xBFD9_DC29_C5E4_CC40, 0x3FF8_B52A_48AB_69B8, 0x3FDA_F7BD_3D74_3596,
            0x3FF4_4148_F1BC_0820, 0x3FD4_E119_E0AD_9451, 0xBFE2_52AE_AC4B_AF00, 0x3FE2_7B86_6A16_D777,
        ],
        [
            0xBFF7_86F0_075B_4792, 0xBFF5_A382_7248_2EAC, 0xC001_8DB7_B0AC_CD5C, 0xBFD0_DEAC_6971_1428,
            0xBF9F_02E5_0CE5_6961, 0xBFFE_98BF_BD13_C7F9, 0x4000_9897_2937_6E19, 0x3FE3_6E6D_56B4_7AF4,
            0x3FF5_91D8_8D06_8CFB, 0x3FC1_B081_FDB8_862E, 0xBFDE_BC83_7CC1_2CD7, 0x3FF2_3A09_3733_EF01,
            0xBFC3_462D_E5CD_362B, 0x3FE1_517B_4CA0_848A, 0xBFD6_6E99_7CB1_EB6B, 0xBFF5_E814_EBC6_7197,
            0x3FE0_37DC_4BEA_DE14, 0xBFF0_146C_4970_D56B, 0x3FE3_1529_0054_A672, 0x3FE5_7C9A_1288_DC4A,
            0x3FE5_78A7_4D6A_21E6, 0xBFEC_C381_0BBF_B380, 0xBFF3_C5BA_1138_B7F3, 0xBFDE_7000_2C50_1542,
            0xBFFC_272B_80C4_A1E4, 0xBFB7_D875_486C_877B, 0x3FF4_E391_1DF4_3316, 0xBFF5_EA4F_7ED2_21B6,
            0xBFD9_5E0C_89D8_00B9, 0xBFEC_1B2E_8694_8D6D, 0xBFE4_B7A3_73B2_F4DC, 0x3FCB_72B2_09FF_301B,
        ],
    ];

    #[test]
    fn streams_match_golden_draws_through_every_entry_point() {
        let base = ZigguratGrng::new(0xC1A5_7E12);
        // Each stream is read four ways: scalar, and three mixes of
        // scalar, `fill` and `fill_f32` split at uneven points.
        let splits: [&[usize]; 4] = [&[32], &[1, 7, 24], &[13, 2, 17], &[5, 5, 5, 17]];
        for (row, want) in GOLDEN.iter().enumerate() {
            let fresh = || match row {
                0 => base.clone(),
                r => base.fork(r as u64 - 1),
            };
            for (case, cuts) in splits.iter().enumerate() {
                let mut g = fresh();
                let mut at = 0;
                for (k, &n) in cuts.iter().enumerate() {
                    let want = &want[at..at + n];
                    match (case + k) % 3 {
                        0 => {
                            for (i, &w) in want.iter().enumerate() {
                                assert_eq!(
                                    g.next_gaussian().to_bits(),
                                    w,
                                    "row {row} draw {}",
                                    at + i
                                );
                            }
                        }
                        1 => {
                            let mut got = vec![0.0f64; n];
                            g.fill(&mut got);
                            let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(got, want, "row {row} fill at {at}");
                        }
                        _ => {
                            let mut got = vec![0.0f32; n];
                            g.fill_f32(&mut got);
                            let want: Vec<f32> =
                                want.iter().map(|&w| f64::from_bits(w) as f32).collect();
                            assert_eq!(got, want, "row {row} fill_f32 at {at}");
                        }
                    }
                    at += n;
                }
            }
        }
    }

    #[test]
    fn layer_table_is_monotone() {
        let x = &Tables::shared().x;
        for i in 1..LAYERS {
            assert!(x[i] > x[i + 1], "x table must decrease");
        }
    }
}
