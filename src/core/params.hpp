// Parameter schedule for the Elkin-Matar construction (Section 2 of the
// paper), computed with explicit integer rounding.
//
// Paper quantities and our exact-integer counterparts:
//
//   number of phases     ℓ  = ⌊log₂ κρ⌋ + ⌈(κ+1)/(κρ)⌉ − 1          (paper)
//   exponential stage    i ∈ [0, i₀ = ⌊log₂ κρ⌋],  deg_i = ⌈n^{2^i/κ}⌉
//   fixed growth stage   i ∈ [i₀+1, ℓ−1],          deg_i = ⌈n^ρ⌉
//   concluding phase     i = ℓ (no superclustering), deg_ℓ = ⌈n^ρ⌉
//
//   segment length       L_i = max(1, ⌊ε⁻ⁱ⌋)            (paper: ε⁻ⁱ, real)
//   radius bound         R₀ = 0, R_{i+1} = R_i + D_i     (Lemma 2.3)
//   distance threshold   δ_i = L_i + 2·R_i               (paper eq. (3))
//   ruling set           (q_i+1, q_i·c)-ruling set, q_i = 2δ_i, c = ⌈1/ρ⌉
//   forest depth         D_i = q_i · c                   (superclustering BFS)
//
// Stretch: instead of the paper's closed form (which assumes ε ≤ 1/10 and
// ρ ≥ 10ε and is therefore vacuous at laptop scale), we evaluate the
// recursion of Lemma 2.16 exactly on the integer schedule:
//
//   A₀ = 0,  A_i = 2·A_{i−1} + 6·R_i                 (additive error)
//   M₀ = 1,  M_i = M_{i−1} + A_i / L_i               (multiplicative factor)
//
// and guarantee d_H(u,v) ≤ M_ℓ·d_G(u,v) + A_ℓ for *all* valid (ε, κ, ρ).
// The paper-mode constructor additionally performs the Section 2.4.4
// rescaling: given the user-facing ε′ it derives the internal
// ε = ε′·ρ/(30·ℓ) and reports the paper's additive term β = ε^{−ℓ}
// (eq. (17)) next to the exact A_ℓ.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace nas::core {

/// Per-phase schedule entry.  All quantities are exact integers.
struct PhaseSchedule {
  int index = 0;            ///< phase number i in [0, ℓ]
  std::uint64_t L = 1;      ///< segment length max(1, ⌊ε⁻ⁱ⌋)
  std::uint64_t radius = 0; ///< R_i — upper bound on Rad(P_i)
  std::uint64_t delta = 1;  ///< δ_i = L_i + 2 R_i
  std::uint64_t deg = 1;    ///< deg_i — popularity / knowledge cap
  std::uint64_t q = 2;      ///< ruling-set separation parameter 2 δ_i
  std::uint64_t forest_depth = 0;  ///< D_i = q_i·c (0 in the concluding phase)
  std::uint64_t radius_next = 0;   ///< R_{i+1} = R_i + D_i
  bool concluding = false;         ///< i == ℓ
  /// Additive stretch accumulator A_i of Lemma 2.16 (exact recursion).
  double additive = 0.0;
  /// Multiplicative stretch accumulator M_i of Lemma 2.16.
  double multiplicative = 1.0;
};

/// Validated parameter set for one spanner construction.
class Params {
 public:
  /// Paper mode (Section 2.4.4 rescaling): takes the *user-facing* ε′ and
  /// derives the internal ε = ε′ρ/(30ℓ).  Produces a (1+ε′, β)-spanner with
  /// the paper's β = ε^{−ℓ}; the exact pair (M_ℓ, A_ℓ) is also computed and
  /// is always at least as sharp.
  ///
  /// Requirements (paper, Corollary 2.18): 0 < ε′ ≤ 1, κ ≥ 2 integer,
  /// 1/κ ≤ ρ < 1/2, n ≥ 2.  Violations throw std::invalid_argument.
  ///
  /// `n_estimate`: the paper (Section 1.3.1) only requires vertices to know
  /// an estimate ñ with n ≤ ñ ≤ poly(n); all n-dependent schedule values
  /// (deg_i, the ruling-set base b) are computed from ñ.  Pass 0 (default)
  /// for ñ = n.  Larger ñ raises the popularity thresholds — fewer popular
  /// clusters, same correctness, size bounds in terms of ñ.
  static Params paper(graph::Vertex n, double eps_prime, int kappa, double rho,
                      std::uint64_t n_estimate = 0);

  /// Practical mode: ε is used directly as the internal schedule parameter.
  /// All structural guarantees (cluster radii, partition, popularity
  /// accounting, edge-count bounds) are identical; the stretch guarantee is
  /// the exact pair (M_ℓ, A_ℓ).  This mode keeps δ_i small enough to make
  /// non-vacuous stretch experiments possible at laptop scale.
  static Params practical(graph::Vertex n, double eps_internal, int kappa,
                          double rho, std::uint64_t n_estimate = 0);

  /// The schedule a "practical" | "paper" mode name selects, as the CLIs and
  /// scenario files spell it: paper() or practical() with `eps`.
  static Params for_mode(const std::string& mode, graph::Vertex n, double eps,
                         int kappa, double rho);

  /// Throws std::invalid_argument unless `mode` is "practical" or "paper".
  static void check_mode(const std::string& mode);

  // --- accessors -----------------------------------------------------------
  [[nodiscard]] graph::Vertex n() const { return n_; }
  [[nodiscard]] std::uint64_t n_estimate() const { return n_estimate_; }
  [[nodiscard]] double eps_internal() const { return eps_internal_; }
  [[nodiscard]] double eps_user() const { return eps_user_; }
  [[nodiscard]] int kappa() const { return kappa_; }
  [[nodiscard]] double rho() const { return rho_; }
  [[nodiscard]] bool is_paper_mode() const { return paper_mode_; }

  [[nodiscard]] int ell() const { return ell_; }       ///< last phase index ℓ
  [[nodiscard]] int i0() const { return i0_; }         ///< end of exp. stage
  [[nodiscard]] int c() const { return c_; }           ///< ruling-set c = ⌈1/ρ⌉
  [[nodiscard]] std::uint64_t ruling_base() const { return b_; }  ///< b = ⌈n^{1/c}⌉

  [[nodiscard]] const std::vector<PhaseSchedule>& phases() const { return phases_; }
  [[nodiscard]] const PhaseSchedule& phase(int i) const { return phases_.at(i); }

  /// Exact stretch guarantee: d_H ≤ multiplicative()·d_G + additive().
  [[nodiscard]] double stretch_multiplicative() const { return m_final_; }
  [[nodiscard]] double stretch_additive() const { return a_final_; }

  /// The paper's additive term β = ε_internal^{−ℓ} (eq. (17)); equals the
  /// eq. (18) expression after the Section 2.4.4 substitution.
  [[nodiscard]] double beta_paper() const { return beta_paper_; }

  /// Closed-form β of eq. (18) evaluated literally (with the O(1) constants
  /// set to their paper values), for the β-surface bench.
  static double beta_formula_eq18(double eps_prime, int kappa, double rho);

  /// Paper bounds for headline reporting.
  [[nodiscard]] double size_bound() const;    ///< O(β·n^{1+1/κ}) with unit constant
  [[nodiscard]] double rounds_bound() const;  ///< O(β·n^ρ/ρ) with unit constant

  [[nodiscard]] std::string describe() const;

 private:
  Params() = default;
  static Params build(graph::Vertex n, double eps_internal, double eps_user,
                      int kappa, double rho, bool paper_mode,
                      std::uint64_t n_estimate);

  graph::Vertex n_ = 0;
  std::uint64_t n_estimate_ = 0;
  double eps_internal_ = 0, eps_user_ = 0, rho_ = 0;
  int kappa_ = 0, ell_ = 0, i0_ = 0, c_ = 0;
  std::uint64_t b_ = 0;
  bool paper_mode_ = false;
  std::vector<PhaseSchedule> phases_;
  double m_final_ = 1.0, a_final_ = 0.0, beta_paper_ = 0.0;
};

}  // namespace nas::core
