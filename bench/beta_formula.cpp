// Experiment E1 — regenerates the paper's headline bound, eq. (1)/(18):
//
//   beta = ( O(log kr + 1/rho) / (rho*eps) )^{log kr + 1/rho + O(1)}
//
// as a surface over (eps, kappa, rho), alongside:
//   * the [Elk05] additive term beta_E it improves upon, and
//   * the exact Lemma-2.16 pair (M_ell, A_ell) our integer schedule proves,
//     in both paper mode (rescaled internal eps) and practical mode.
//
// Exit 1 unless beta grows as eps' shrinks at every (kappa, rho) of the
// surface, the eq. (18) shape the printed checks name.
#include <array>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/params.hpp"

using namespace nas;

namespace {

// The surface's axes; eps' descends, so beta must ascend along it.
constexpr std::array kEps{1.0, 0.5, 0.25};
constexpr std::array kKappa{3, 4, 8, 16, 64, 256, 1024};
constexpr std::array kRho{0.45, 0.35, 0.25};

bool valid(int kappa, double rho) {
  return rho >= 1.0 / kappa && kappa * rho >= 1.0;
}

/// The (kappa, rho) points where beta does not grow strictly as eps' shrinks.
std::vector<std::string> eps_monotonicity_failures() {
  std::vector<std::string> failures;
  for (const int kappa : kKappa) {
    for (const double rho : kRho) {
      if (!valid(kappa, rho)) continue;
      double previous = 0.0;
      for (const double eps : kEps) {
        const double beta = core::Params::beta_formula_eq18(eps, kappa, rho);
        if (!(beta > previous)) {
          failures.push_back("kappa=" + std::to_string(kappa) +
                             " rho=" + util::Table::num(rho));
          break;
        }
        previous = beta;
      }
    }
  }
  return failures;
}

int bench_main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string csv_path = flags.str("csv", "", "CSV output path");
  if (flags.handle_help("beta_formula — E1: the additive term beta")) return 0;
  flags.reject_unknown();

  bench::banner("E1", "eq. (1)/(18): the additive term beta");

  util::CsvWriter csv(csv_path, {"eps", "kappa", "rho", "ell", "beta_eq18",
                                 "beta_elk05", "A_exact_paper_mode"});

  std::cout << "beta surface (paper mode, n = 10^6 for the schedule):\n";
  util::Table t({"eps'", "kappa", "rho", "ell", "beta eq.(18)",
                 "beta_E [Elk05]", "beta_E / beta", "exact A_ell (paper mode)"});
  for (const double eps : kEps) {
    for (const int kappa : kKappa) {
      for (const double rho : kRho) {
        if (!valid(kappa, rho)) continue;
        const double beta = core::Params::beta_formula_eq18(eps, kappa, rho);
        const double beta_e =
            std::pow(kappa / eps, std::log2(static_cast<double>(kappa))) *
            std::pow(1.0 / rho, 1.0 / rho);
        // The exact integer schedule (and its Lemma 2.16 pair) exists only
        // where the u64 schedule does not overflow; the formula itself is
        // defined everywhere.
        std::string ell = "-", a_exact = "schedule overflows";
        try {
          const auto p = core::Params::paper(1000000, eps, kappa, rho);
          ell = std::to_string(p.ell());
          a_exact = util::Table::sci(p.stretch_additive());
        } catch (const std::invalid_argument&) {
        }
        t.add_row({util::Table::num(eps), std::to_string(kappa),
                   util::Table::num(rho), ell, util::Table::sci(beta),
                   util::Table::sci(beta_e), util::Table::sci(beta_e / beta),
                   a_exact});
        csv.row({util::Table::num(eps, 4), std::to_string(kappa),
                 util::Table::num(rho, 4), ell, util::Table::sci(beta, 6),
                 util::Table::sci(beta_e, 6), a_exact});
      }
    }
  }
  t.print(std::cout);

  std::cout << "\npractical mode: the exact (M_ell, A_ell) stretch pair the\n"
               "implementation proves for moderate internal eps (n = 4096):\n";
  util::Table tp({"eps_int", "kappa", "rho", "ell", "M_ell", "A_ell",
                  "delta_ell", "beta=eps^-ell"});
  for (const double eps : {0.5, 0.25, 0.125}) {
    for (const int kappa : {3, 4, 8}) {
      const double rho = 0.45;
      if (!valid(kappa, rho)) continue;
      const auto p = core::Params::practical(4096, eps, kappa, rho);
      tp.add_row({util::Table::num(eps, 3), std::to_string(kappa),
                  util::Table::num(rho), std::to_string(p.ell()),
                  util::Table::num(p.stretch_multiplicative()),
                  util::Table::num(p.stretch_additive(), 0),
                  std::to_string(p.phases().back().delta),
                  util::Table::num(p.beta_paper(), 0)});
    }
  }
  tp.print(std::cout);

  std::cout
      << "\nshape checks vs the paper:\n"
      << "  * beta grows as eps' shrinks and as the exponent\n"
      << "    (log kr + 1/rho) grows — eq. (18);\n"
      << "  * beta_E [Elk05] is quasi-polynomial in kappa ((k/eps)^{log k})\n"
      << "    while eq. (18)'s base is only polylogarithmic in kappa, so the\n"
      << "    beta_E/beta column crosses above 1 as kappa grows (with our\n"
      << "    literal constant choices around kappa ~ 10^3).  [Elk05]'s other\n"
      << "    deficit — superlinear *running time* — is experiment T1.\n";
  const std::vector<std::string> failures = eps_monotonicity_failures();
  for (const std::string& at : failures) {
    std::cout << "ERROR: beta does not grow as eps' shrinks at " << at << "\n";
  }
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::guarded_main("beta_formula", argc, argv, bench_main);
}
