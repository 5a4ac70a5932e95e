// Corpus: flag-description fires when the description argument is missing
// on the conventional `flags` receiver, including multi-line calls.
#include "util/flags.hpp"

void parse(nas::util::Flags& flags) {
  const auto bad_str = flags.str("family", "er");
  const auto bad_int = flags.integer(
      "threads",
      1);
  const auto good_real = flags.real("eps", 0.5, "additive-stretch epsilon");
  const auto good_bool = flags.boolean("quiet", false, "suppress the table");
  const auto bad_narrow = flags.integer_as<unsigned>("threads", 1);
  const auto good_narrow =
      flags.integer_as<unsigned>("threads", 1, "worker threads");
  (void)bad_str;
  (void)bad_int;
  (void)good_real;
  (void)good_bool;
  (void)bad_narrow;
  (void)good_narrow;
}
