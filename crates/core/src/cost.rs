//! The analytic overhead model of Section II-A (Eqs. 1–2).
//!
//! For a candidate chunk size the model predicts the storage cost
//! `C_store` (buffering each chunk into L1′ at every checkpoint), the
//! computation cost `C_comp` (checkpoint triggers plus expected
//! error-recovery work), and the cycle overhead `D(S_CH)` used by
//! constraint (5). The optimizer minimises `J = C_store + C_comp`.

use chunkpoint_ecc::{CodeOverhead, EccKind};
use chunkpoint_sim::{Platform, SramModel};
use chunkpoint_workloads::Benchmark;

/// Cost-model output for one candidate design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// `C_store` (Eq. 1), pJ: (N_CH · S_CH + err) · E(S_CH).
    pub store_pj: f64,
    /// `C_comp` (Eq. 2), pJ: N_CH · E_CH + err · (E_ISR + E(F(S_CH))).
    pub comp_pj: f64,
    /// Expected number of faulty chunks per task (`err`).
    pub expected_errors: f64,
    /// Number of checkpoints N_CH.
    pub n_checkpoints: usize,
    /// Total protected-buffer words (chunk + serialized state).
    pub buffer_words: u32,
    /// Predicted mitigation cycle overhead D(S_CH).
    pub overhead_cycles: f64,
    /// Predicted baseline (mitigation-free) task cycles.
    pub base_cycles: f64,
}

impl CostBreakdown {
    /// The objective `J = C_store + C_comp` (Eq. 3), pJ.
    #[must_use]
    pub fn objective_pj(&self) -> f64 {
        self.store_pj + self.comp_pj
    }

    /// Predicted relative cycle overhead D / base.
    #[must_use]
    pub fn cycle_fraction(&self) -> f64 {
        self.overhead_cycles / self.base_cycles
    }
}

/// The cost model for one benchmark in one fault environment.
#[derive(Debug, Clone)]
pub struct CostModel {
    platform: Platform,
    benchmark: Benchmark,
    scale: f64,
    error_rate: f64,
    /// L1′ BCH check bits.
    prime_check_bits: usize,
    /// L1′ codec logic size, gate equivalents.
    prime_logic_gates: u64,
    l1_read_pj: f64,
}

impl CostModel {
    /// Builds the model.
    ///
    /// # Panics
    ///
    /// Panics if `l1_prime_t` is not a valid BCH strength.
    #[must_use]
    pub fn new(
        benchmark: Benchmark,
        platform: &Platform,
        error_rate: f64,
        scale: f64,
        l1_prime_t: u8,
    ) -> Self {
        let overhead = CodeOverhead::for_kind(EccKind::Bch { t: l1_prime_t })
            .unwrap_or_else(|e| panic!("invalid L1' strength t={l1_prime_t}: {e}"));
        let l1_read_pj = platform.l1_model().read_energy_pj();
        Self {
            platform: platform.clone(),
            benchmark,
            scale,
            error_rate,
            prime_check_bits: overhead.check_bits,
            prime_logic_gates: overhead.logic_gates(),
            l1_read_pj,
        }
    }

    /// Physical model of an L1′ sized for `buffer_words`.
    #[must_use]
    pub fn l1_prime_model(&self, buffer_words: u32) -> SramModel {
        SramModel::new(buffer_words.max(1) as usize, 32 + self.prime_check_bits)
    }

    /// Total L1′ area (array + codec logic), µm².
    #[must_use]
    pub fn l1_prime_area_um2(&self, buffer_words: u32) -> f64 {
        self.l1_prime_model(buffer_words).area_um2()
            + chunkpoint_sim::logic_area_um2(self.prime_logic_gates)
    }

    /// Evaluates Eqs. (1)–(2) for a candidate chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words == 0`.
    #[must_use]
    pub fn evaluate(&self, chunk_words: u32) -> CostBreakdown {
        assert!(chunk_words > 0, "chunk must be at least one word");
        let profile = self.benchmark.profile_for_chunk(chunk_words, self.scale);
        let n_ch = profile.total_blocks;
        let buffer_words = profile.protected_words();
        let cycles_per_block =
            (profile.compute_cycles_per_block + profile.accesses_per_block) as f64;
        let base_cycles = n_ch as f64 * cycles_per_block;

        // err: expected faulty-chunk events per task. Live words exposed
        // between consecutive checkpoints ≈ the protected set (chunk +
        // state); exposure integrates to base_cycles · live_words.
        let expected_errors = self.error_rate * base_cycles * f64::from(buffer_words);

        // E(S_CH): per-word write energy of the S_CH-sized buffer (Eq. 1
        // charges one buffer access per stored word, plus err restores).
        let prime_model = self.l1_prime_model(buffer_words);
        let e_sch = prime_model.write_energy_pj();
        let store_pj = (n_ch as f64 * f64::from(buffer_words) + expected_errors) * e_sch;

        // E_CH: software checkpoint trigger.
        let cpu_pj = self.platform.cpu_pj_per_cycle;
        let e_ch = self.platform.checkpoint_trigger_cycles as f64 * cpu_pj;
        // E_ISR: interrupt entry/exit plus restoring the chunk from L1′
        // into L1.
        let l1_write_pj = self.platform.l1_model().write_energy_pj();
        let e_isr = self.platform.isr_cycles as f64 * cpu_pj
            + f64::from(buffer_words) * (prime_model.read_energy_pj() + l1_write_pj);
        // E(F(S_CH)): recomputing one chunk (core + instruction fetches +
        // data accesses).
        let cycle_pj = cpu_pj + self.platform.ifetch_per_cycle * self.l1_read_pj;
        let e_recompute = profile.compute_cycles_per_block as f64 * cycle_pj
            + profile.accesses_per_block as f64 * self.l1_read_pj;
        let comp_pj = n_ch as f64 * e_ch + expected_errors * (e_isr + e_recompute);

        // D(S_CH): mitigation cycles — chunk copies at every checkpoint
        // plus expected recovery work.
        let copy_cycles = f64::from(buffer_words) * 2.0; // read L1 + write L1'
        let overhead_cycles = n_ch as f64
            * (copy_cycles + self.platform.checkpoint_trigger_cycles as f64)
            + expected_errors * (self.platform.isr_cycles as f64 + cycles_per_block);

        CostBreakdown {
            store_pj,
            comp_pj,
            expected_errors,
            n_checkpoints: n_ch,
            buffer_words,
            overhead_cycles,
            base_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(benchmark: Benchmark) -> CostModel {
        CostModel::new(benchmark, &Platform::lh7a400(), 1e-6, 1.0, 8)
    }

    #[test]
    fn objective_is_sum() {
        let cost = model(Benchmark::AdpcmEncode).evaluate(8);
        assert!((cost.objective_pj() - (cost.store_pj + cost.comp_pj)).abs() < 1e-9);
        assert!(cost.store_pj > 0.0);
        assert!(cost.comp_pj > 0.0);
    }

    #[test]
    fn tiny_chunks_pay_checkpoint_cost() {
        // With many checkpoints, C_comp's N_CH·E_CH term and the per-word
        // buffering dominate; the objective at K=1 must exceed the
        // objective at a moderate K.
        let m = model(Benchmark::AdpcmDecode);
        assert!(m.evaluate(1).objective_pj() > m.evaluate(16).objective_pj());
    }

    #[test]
    fn huge_chunks_pay_recovery_cost() {
        // With huge chunks the expected-error term (err · recompute)
        // and per-checkpoint volume grow; the objective turns back up,
        // giving the interior optimum of Table I.
        let m = model(Benchmark::AdpcmDecode);
        assert!(m.evaluate(512).objective_pj() > m.evaluate(16).objective_pj());
    }

    #[test]
    fn expected_errors_scale_with_rate() {
        let low =
            CostModel::new(Benchmark::G721Decode, &Platform::lh7a400(), 1e-8, 1.0, 8).evaluate(16);
        let high =
            CostModel::new(Benchmark::G721Decode, &Platform::lh7a400(), 1e-6, 1.0, 8).evaluate(16);
        assert!(high.expected_errors > 50.0 * low.expected_errors);
    }

    #[test]
    fn buffer_includes_state_words() {
        let cost = model(Benchmark::G721Encode).evaluate(16);
        // G.726 state is 24 words.
        assert_eq!(cost.buffer_words, 16 + 24);
    }

    #[test]
    fn stronger_code_means_bigger_buffer_area() {
        let weak = CostModel::new(Benchmark::AdpcmEncode, &Platform::lh7a400(), 1e-6, 1.0, 6);
        let strong = CostModel::new(Benchmark::AdpcmEncode, &Platform::lh7a400(), 1e-6, 1.0, 16);
        assert!(strong.l1_prime_area_um2(32) > weak.l1_prime_area_um2(32));
    }

    #[test]
    fn cycle_fraction_reasonable_at_moderate_chunks() {
        let cost = model(Benchmark::AdpcmEncode).evaluate(16);
        assert!(cost.cycle_fraction() > 0.0);
        assert!(cost.cycle_fraction() < 1.0, "{}", cost.cycle_fraction());
    }
}
