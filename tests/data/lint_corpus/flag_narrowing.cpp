// flag-narrowing corpus: a named cast of a flags.integer() call fires,
// including one that spans lines; checked accessors and other receivers
// stay silent.
void narrowing(const Flags& flags, const Flags& other) {
  const int kappa = static_cast<int>(flags.integer("kappa", 3, "kappa"));
  const auto n = static_cast<graph::Vertex>(
      flags.integer("n", 1000, "target vertex count"));
  const auto seed = static_cast<std::uint64_t>(flags.integer(
      "seed", 1, "graph generator seed"));
  const auto threads = flags.integer_as<unsigned>("threads", 1, "workers");
  const auto wide = flags.integer("queries", 10, "requests");
  const auto count = vertex_count("n", flags.integer("n", 64, "vertices"));
  const auto foreign = static_cast<int>(other.integer("x", 1, "x"));
  const auto hidden = flags.str("note", "static_cast<int>(flags.integer(", "");
}
