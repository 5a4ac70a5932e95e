#include "core/params.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace nas::core {

namespace {

// ⌊log₂ x⌋ for x ≥ 1, robust to floating point dust at powers of two.
int floor_log2(double x) {
  if (x < 1.0) throw std::invalid_argument("floor_log2: x < 1");
  int t = 0;
  double pow2 = 2.0;
  while (pow2 <= x * (1.0 + 1e-12)) {
    ++t;
    pow2 *= 2.0;
  }
  return t;
}

// ⌈x⌉ robust to floating point dust just above integers.
std::uint64_t ceil_robust(double x) {
  if (x < 0) throw std::invalid_argument("ceil_robust: negative");
  const double r = std::nearbyint(x);
  if (std::abs(x - r) < 1e-9) return static_cast<std::uint64_t>(r);
  return static_cast<std::uint64_t>(std::ceil(x));
}

std::uint64_t checked_u64(double x, const char* what) {
  if (!(x < 9.0e18)) {
    throw std::invalid_argument(std::string("parameter schedule overflow in ") +
                                what +
                                " — this (ε, κ, ρ) combination is infeasible "
                                "to execute; use it only for formula benches");
  }
  return static_cast<std::uint64_t>(x);
}

}  // namespace

Params Params::build(graph::Vertex n, double eps_internal, double eps_user,
                     int kappa, double rho, bool paper_mode,
                     std::uint64_t n_estimate) {
  if (n < 2) throw std::invalid_argument("Params: n must be >= 2");
  if (n_estimate == 0) n_estimate = n;
  if (n_estimate < n) {
    throw std::invalid_argument("Params: n_estimate must satisfy n <= ñ");
  }
  if (kappa < 2) throw std::invalid_argument("Params: kappa must be >= 2");
  if (!(rho >= 1.0 / kappa) || !(rho < 0.5)) {
    throw std::invalid_argument("Params: need 1/kappa <= rho < 1/2");
  }
  if (static_cast<double>(kappa) * rho < 1.0) {
    // 1/kappa <= rho already implies kappa*rho >= 1 mathematically, but
    // floating point can land just below; also gives a clear message for
    // kappa == 2, where the valid rho range [1/2, 1/2) is empty.
    throw std::invalid_argument(
        "Params: kappa*rho must be >= 1 (note kappa == 2 admits no valid rho)");
  }
  if (!(eps_internal > 0.0) || !(eps_internal < 1.0)) {
    throw std::invalid_argument("Params: internal eps must be in (0, 1)");
  }

  Params p;
  p.n_ = n;
  p.n_estimate_ = n_estimate;
  p.eps_internal_ = eps_internal;
  p.eps_user_ = eps_user;
  p.kappa_ = kappa;
  p.rho_ = rho;
  p.paper_mode_ = paper_mode;

  const double kr = static_cast<double>(kappa) * rho;  // κρ ≥ 1
  p.i0_ = floor_log2(kr);
  const auto fixed_phases =
      static_cast<int>(ceil_robust((kappa + 1.0) / kr));
  p.ell_ = p.i0_ + fixed_phases - 1;
  if (p.ell_ < 1) throw std::logic_error("Params: ell < 1 (unreachable)");

  // All n-dependent schedule values use the estimate ñ (Section 1.3.1:
  // vertices need only know some ñ with n <= ñ <= poly(n)).
  const auto nd = static_cast<double>(n_estimate);
  p.c_ = std::max<int>(2, static_cast<int>(ceil_robust(1.0 / rho)));
  p.b_ = std::max<std::uint64_t>(2, ceil_robust(std::pow(nd, 1.0 / p.c_)));

  // Per-phase schedule with the exact integer recurrences.
  std::uint64_t radius = 0;  // R_0 = 0
  double add = 0.0;          // A_0 = 0
  double mul = 1.0;          // M_0 = 1
  for (int i = 0; i <= p.ell_; ++i) {
    PhaseSchedule ph;
    ph.index = i;
    ph.concluding = (i == p.ell_);

    const double Lreal = std::pow(1.0 / eps_internal, i);
    ph.L = std::max<std::uint64_t>(1, checked_u64(Lreal, "L_i"));
    ph.radius = radius;
    ph.delta = checked_u64(static_cast<double>(ph.L) + 2.0 * static_cast<double>(radius),
                           "delta_i");
    ph.q = 2 * ph.delta;

    const double exponent =
        (i <= p.i0_) ? std::ldexp(1.0, i) / kappa : rho;  // 2^i/κ or ρ
    ph.deg = std::max<std::uint64_t>(1, ceil_robust(std::pow(nd, exponent)));

    if (!ph.concluding) {
      ph.forest_depth = checked_u64(
          static_cast<double>(ph.q) * static_cast<double>(p.c_), "D_i");
      ph.radius_next = checked_u64(
          static_cast<double>(radius) + static_cast<double>(ph.forest_depth),
          "R_{i+1}");
    } else {
      ph.forest_depth = 0;
      ph.radius_next = radius;
    }

    // Lemma 2.16 recursion on the *entering* radius bound of this phase's
    // cluster collection P_i.  For i = 0 the base case (M, A) = (1, 0) holds
    // because phase-0 interconnection keeps every edge incident to an
    // unpopular vertex.
    if (i >= 1) {
      add = 2.0 * add + 6.0 * static_cast<double>(ph.radius);
      mul = mul + add / static_cast<double>(ph.L);
    }
    ph.additive = add;
    ph.multiplicative = mul;

    p.phases_.push_back(ph);
    radius = ph.radius_next;
  }
  p.m_final_ = mul;
  p.a_final_ = add;
  p.beta_paper_ = std::pow(1.0 / eps_internal, p.ell_);
  return p;
}

Params Params::paper(graph::Vertex n, double eps_prime, int kappa, double rho,
                     std::uint64_t n_estimate) {
  if (!(eps_prime > 0.0) || !(eps_prime <= 1.0)) {
    throw std::invalid_argument("Params::paper: need 0 < eps' <= 1");
  }
  // ℓ depends only on (κ, ρ); compute it first for the rescaling.
  if (kappa < 2 || !(rho >= 1.0 / kappa) || !(rho < 0.5)) {
    throw std::invalid_argument("Params::paper: need kappa >= 2, 1/kappa <= rho < 1/2");
  }
  const double kr = static_cast<double>(kappa) * rho;
  if (kr < 1.0) {
    throw std::invalid_argument("Params::paper: kappa*rho must be >= 1");
  }
  const int i0 = floor_log2(kr);
  const int ell = i0 + static_cast<int>(ceil_robust((kappa + 1.0) / kr)) - 1;
  // Section 2.4.4: ε_internal = ε'ρ / (30ℓ).
  const double eps_internal = eps_prime * rho / (30.0 * ell);
  return build(n, eps_internal, eps_prime, kappa, rho, /*paper_mode=*/true,
               n_estimate);
}

Params Params::practical(graph::Vertex n, double eps_internal, int kappa,
                         double rho, std::uint64_t n_estimate) {
  return build(n, eps_internal, eps_internal, kappa, rho, /*paper_mode=*/false,
               n_estimate);
}

Params Params::for_mode(const std::string& mode, graph::Vertex n, double eps,
                        int kappa, double rho) {
  check_mode(mode);
  return mode == "paper" ? paper(n, eps, kappa, rho)
                         : practical(n, eps, kappa, rho);
}

void Params::check_mode(const std::string& mode) {
  if (mode != "practical" && mode != "paper") {
    throw std::invalid_argument("mode must be practical|paper, got \"" + mode +
                                "\"");
  }
}

double Params::beta_formula_eq18(double eps_prime, int kappa, double rho) {
  // eq. (18): β = ( O(log κρ + ρ⁻¹) / (ρ ε) )^{log κρ + ρ⁻¹ + O(1)}
  // with the constants instantiated from the derivation: the numerator
  // constant is 30·ℓ and the exponent is ℓ (Section 2.4.4, eq. (17)).
  const double kr = static_cast<double>(kappa) * rho;
  const int i0 = floor_log2(kr);
  const int ell = i0 + static_cast<int>(ceil_robust((kappa + 1.0) / kr)) - 1;
  return std::pow(30.0 * ell / (rho * eps_prime), ell);
}

double Params::size_bound() const {
  return beta_paper_ *
         std::pow(static_cast<double>(n_), 1.0 + 1.0 / kappa_);
}

double Params::rounds_bound() const {
  return beta_paper_ * std::pow(static_cast<double>(n_), rho_) / rho_;
}

std::string Params::describe() const {
  std::ostringstream oss;
  oss << (paper_mode_ ? "paper" : "practical") << " mode: n=" << n_
      << " eps_user=" << eps_user_ << " eps_internal=" << eps_internal_
      << " kappa=" << kappa_ << " rho=" << rho_ << " ell=" << ell_
      << " i0=" << i0_ << " c=" << c_ << " b=" << b_
      << " stretch=(" << m_final_ << ", " << a_final_ << ")"
      << " beta_paper=" << beta_paper_;
  return oss.str();
}

}  // namespace nas::core
