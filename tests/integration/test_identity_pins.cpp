// Identity pins: the structural key of a netlist (attack::lock_instance_key,
// which also keys persisted CLOBANK1 bank files) and an FNV-1a hash of its
// .bench text, pinned for catalog circuits, their Cute-Lock-Str locks and
// every registry lock on s27. A change to how netlists are stored or built
// must leave every id, name, fanin order and output where it was; any drift
// here moves the locks, the bank keys, the CNF numbering and the tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "attack/observation_bank.hpp"
#include "benchgen/catalog.hpp"
#include "core/cute_lock_str.hpp"
#include "lock/lock_registry.hpp"
#include "netlist/bench_io.hpp"
#include "util/fnv.hpp"

namespace cl {
namespace {

struct Pin {
  const char* label;
  std::uint64_t instance_key;
  std::uint64_t bench_fnv;
};

void expect_pin(const Pin& pin, const netlist::Netlist& nl) {
  EXPECT_EQ(attack::lock_instance_key(nl), pin.instance_key) << pin.label;
  EXPECT_EQ(util::fnv1a(netlist::write_bench_string(nl)), pin.bench_fnv)
      << pin.label;
}

// make_circuit(name), then cute_lock_str at the benchmark's seed-0 lock
// seeds: 0x57a + gates at the catalog (k, ki) and up to 4 locked FFs, and
// for syn64k the mega row's k = 2, ki = 4, seed 0x3e6a + gates + k.
struct CircuitPins {
  const char* circuit;
  Pin made;
  Pin locked;
};

constexpr CircuitPins k_circuit_pins[] = {
    {"s27",
     {"make/s27", 0xe3db090df596b1ebULL, 0x2af2c08addbf335cULL},
     {"str/s27", 0xdf43bc6056c529cdULL, 0x33b1d2dd085e04dfULL}},
    {"s298",
     {"make/s298", 0x2769f2b7abb1194aULL, 0x6366c261cd4eb14bULL},
     {"str/s298", 0x5407c5d9a173586dULL, 0xfa050254292b72cfULL}},
    {"b12",
     {"make/b12", 0x711360899b89dbfbULL, 0xa2b2f25925c503aeULL},
     {"str/b12", 0x3744ecc42294caf4ULL, 0xfebea4e761fe1171ULL}},
    {"syn64k",
     {"make/syn64k", 0x2375c4ad4459125aULL, 0x933dfbd126de64c5ULL},
     {"str/syn64k", 0x01bf03f7d5a57430ULL, 0xab227b47801ca8aeULL}},
};

// Every lock_registry() scheme built on s27 from util::Rng(27).
constexpr Pin k_registry_pins[] = {
    {"xor", 0xf0d8d06416eeb3a4ULL, 0x268280b2347d0b39ULL},
    {"kgate", 0x60f11ce2fa7cf25aULL, 0x76c3e4cc640247e7ULL},
    {"cac2", 0x36755fccbe6c4fbcULL, 0xcea4087612566165ULL},
    {"latch", 0xe6da25ff5dd1f8e2ULL, 0x0eb8b17e07b99545ULL},
    {"cl-str", 0x942bca313bebd24cULL, 0x834ce1c62d8b45e9ULL},
};

TEST(IdentityPins, CatalogCircuitsAndTheirCuteLockStrLocks) {
  for (const CircuitPins& c : k_circuit_pins) {
    const benchgen::CircuitSpec& spec = benchgen::find_spec(c.circuit);
    const benchgen::SyntheticCircuit made = benchgen::make_circuit(spec);
    expect_pin(c.made, made.netlist);

    const bool mega = std::string(c.circuit) == "syn64k";
    core::StrOptions options;
    options.num_keys = mega ? 2 : spec.lock_keys;
    options.key_bits = mega ? 4 : spec.lock_bits;
    options.locked_ffs = std::min<std::size_t>(4, made.netlist.dffs().size());
    options.seed = mega ? 0x3e6a + spec.gates + 2 : 0x57a + spec.gates;
    expect_pin(c.locked, core::cute_lock_str(made.netlist, options).locked);
  }
}

TEST(IdentityPins, EveryRegistrySchemeOnS27) {
  const benchgen::SyntheticCircuit s27 = benchgen::make_circuit("s27");
  const auto& registry = lock::lock_registry();
  ASSERT_EQ(registry.size(), std::size(k_registry_pins));
  for (std::size_t i = 0; i < registry.size(); ++i) {
    ASSERT_EQ(registry[i].name, k_registry_pins[i].label);
    util::Rng rng(27);
    expect_pin(k_registry_pins[i], registry[i].build(s27.netlist, rng).locked);
  }
}

}  // namespace
}  // namespace cl
