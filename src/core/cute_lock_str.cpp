#include "core/cute_lock_str.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/counter.hpp"
#include "logic/sop_builder.hpp"
#include "sim/compiled.hpp"

namespace cl::core {

using netlist::Netlist;
using netlist::SignalId;

namespace {

/// Layer-1 slot: key verification for one counter time.
/// Returns correct_cone when key == expected, else one of the wrongful cones
/// (chosen by the low key bits, so different wrong keys exercise different
/// repurposed hardware).
SignalId build_layer1_slot(Netlist& nl, const std::vector<SignalId>& key_port,
                           std::uint64_t expected, SignalId correct_cone,
                           const std::vector<SignalId>& wrongful,
                           const std::string& prefix) {
  const SignalId eq =
      logic::build_equals_const(nl, key_port, expected, prefix + "_eq");
  // Wrongful value: MUX tree over the wrongful cones indexed by the low key
  // bits (wrap-around when fewer cones than key codes).
  std::vector<SignalId> pool = wrongful;
  // Pad the pool to a power of two by cycling.
  std::size_t width = 1;
  while (width < pool.size()) width <<= 1;
  for (std::size_t i = pool.size(); i < width; ++i) pool.push_back(wrongful[i % wrongful.size()]);
  std::size_t sel_bit = 0;
  while (pool.size() > 1) {
    std::vector<SignalId> next;
    const SignalId sel = key_port[sel_bit % key_port.size()];
    for (std::size_t i = 0; i + 1 < pool.size(); i += 2) {
      next.push_back(nl.add_mux(sel, pool[i], pool[i + 1],
                                nl.fresh_name(prefix + "_w")));
    }
    if (pool.size() % 2 != 0) next.push_back(pool.back());
    pool = std::move(next);
    ++sel_bit;
  }
  const SignalId wrong_val = pool[0];
  // eq ? correct : wrong.
  return nl.add_mux(eq, wrong_val, correct_cone, nl.fresh_name(prefix + "_s"));
}

/// Layers 2..m: recursive counter-driven combination of the k slot outputs.
/// The select of each 2:1 MUX is the OR of the time indicators of its upper
/// branch (paper Fig. 3: "the check is performed by OR-ing all the counter
/// times in the previous MUXs").
SignalId build_upper_layers(Netlist& nl, const std::vector<SignalId>& slots,
                            const std::vector<SignalId>& is_time,
                            std::size_t lo, std::size_t hi,
                            const std::string& prefix) {
  if (hi - lo == 1) return slots[lo];
  const std::size_t mid = lo + (hi - lo + 1) / 2;
  const SignalId left = build_upper_layers(nl, slots, is_time, lo, mid, prefix);
  const SignalId right = build_upper_layers(nl, slots, is_time, mid, hi, prefix);
  std::vector<SignalId> upper_indicators(is_time.begin() + static_cast<long>(mid),
                                         is_time.begin() + static_cast<long>(hi));
  const SignalId sel =
      upper_indicators.size() == 1
          ? upper_indicators[0]
          : logic::build_or_tree(nl, upper_indicators, prefix + "_or");
  return nl.add_mux(sel, left, right, nl.fresh_name(prefix + "_m"));
}

}  // namespace

lock::LockResult cute_lock_str(const Netlist& nl, const StrOptions& options) {
  if (options.num_keys < 2) {
    throw std::invalid_argument("cute_lock_str: need k >= 2 keys");
  }
  if (options.key_bits < 1 || options.key_bits > 64) {
    throw std::invalid_argument("cute_lock_str: key_bits out of [1,64]");
  }
  if (nl.dffs().empty()) {
    throw std::invalid_argument("cute_lock_str: circuit has no flip-flops");
  }
  if (options.locked_ffs < 1) {
    throw std::invalid_argument("cute_lock_str: need >= 1 locked FF");
  }

  lock::LockResult result{nl.clone(nl.name() + "_cutelock"),
                          {},
                          {},
                          "cute_lock_str"};
  Netlist& out = result.locked;
  util::Rng rng(options.seed);

  // Key schedule: k values of ki bits. In single-key-reduction mode every
  // slot expects the same value (the §IV-A sanity configuration).
  std::vector<std::uint64_t> key_values;
  const std::uint64_t key_mask = (options.key_bits == 64)
                                     ? ~0ULL
                                     : ((1ULL << options.key_bits) - 1);
  if (!options.explicit_keys.empty()) {
    if (options.explicit_keys.size() != options.num_keys) {
      throw std::invalid_argument("cute_lock_str: explicit_keys size != k");
    }
    for (std::uint64_t v : options.explicit_keys) {
      if ((v & ~key_mask) != 0) {
        throw std::invalid_argument("cute_lock_str: explicit key too wide");
      }
    }
    key_values = options.explicit_keys;
  } else if (options.single_key_reduction) {
    const std::uint64_t v = rng.next_u64() & key_mask;
    key_values.assign(options.num_keys, v);
  } else {
    for (std::size_t t = 0; t < options.num_keys; ++t) {
      key_values.push_back(rng.next_u64() & key_mask);
    }
    // Adjacent slots expecting identical values weaken the time dependence;
    // nudge duplicates apart when the key space allows it.
    if (key_mask > 0) {
      for (std::size_t t = 1; t < key_values.size(); ++t) {
        if (key_values[t] == key_values[t - 1]) {
          key_values[t] = (key_values[t] + 1) & key_mask;
        }
      }
    }
  }

  // Shared key port.
  std::vector<SignalId> key_port;
  for (std::size_t i = 0; i < options.key_bits; ++i) {
    key_port.push_back(out.add_key_input("keyinput" + std::to_string(i)));
  }

  // Time base.
  const TimeBase tb = build_time_base(out, options.num_keys, "cl");

  // Choose locked FFs and capture every FF's original next-state cone root
  // *before* any rewiring: these signals are the repurposable hardware.
  std::vector<SignalId> functional_ffs = nl.dffs();  // same ids in the clone
  std::vector<SignalId> original_d;
  original_d.reserve(functional_ffs.size());
  for (SignalId q : functional_ffs) original_d.push_back(out.dff_input(q));

  // Profile how often each pair of next-state cones actually disagrees on
  // reachable behaviour (64-lane random simulation of the original).
  // Repurposed hardware that happens to compute the same function would
  // make a wrong key silently correct — the selection below only accepts
  // cones with a real behavioural difference.
  const std::size_t profile_cycles = 96;
  std::vector<std::vector<std::uint64_t>> d_traces(
      original_d.size());  // [ff][cycle] 64-lane words
  for (auto& trace : d_traces) trace.reserve(profile_cycles);
  {
    sim::WideSim profiler(nl);
    util::Rng sim_rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
    for (std::size_t c = 0; c < profile_cycles; ++c) {
      for (SignalId i : nl.inputs()) {
        profiler.set_word(i, 0, sim_rng.next_u64());
      }
      profiler.eval();
      for (std::size_t f = 0; f < original_d.size(); ++f) {
        d_traces[f].push_back(profiler.get_word(original_d[f], 0));
      }
      profiler.step();
    }
  }
  const auto differs_enough = [&](std::size_t a, std::size_t b) {
    std::uint64_t diff_bits = 0;
    for (std::size_t c = 0; c < d_traces[a].size(); ++c) {
      diff_bits += static_cast<std::uint64_t>(
          std::popcount(d_traces[a][c] ^ d_traces[b][c]));
    }
    // At least ~3% of sampled evaluations must disagree.
    return diff_bits * 32 >= d_traces[a].size() * 64;
  };

  // Observability distance: how many clock cycles a corrupted FF value
  // needs before it can reach a primary output. Locking the closest FFs
  // makes wrong-key corruption visible fast (deeply buried FFs could hide
  // corruption beyond any bounded check — the attacker would then hold a
  // key that is "equivalent enough", which defeats the purpose). Only FFs
  // at a finite distance are locked: corrupting an unobservable FF would
  // leave wrong keys functionally correct.
  //
  // One reverse walk from the outputs through combinational fanins computes
  // it: hop h walks from the D pins of the FFs first reached at hop h - 1.
  // Each node is walked once, at the first hop that reaches it, since every
  // FF behind it is then reached at that hop or earlier.
  std::vector<std::size_t> distance(functional_ffs.size(), SIZE_MAX);
  {
    std::vector<std::size_t> ff_index(out.size(), SIZE_MAX);
    for (std::size_t i = 0; i < functional_ffs.size(); ++i) {
      ff_index[functional_ffs[i]] = i;
    }
    std::vector<bool> seen(out.size(), false);
    std::vector<SignalId> stack(nl.outputs().begin(), nl.outputs().end());
    std::vector<SignalId> next_hop;
    for (std::size_t hop = 0; !stack.empty(); ++hop) {
      while (!stack.empty()) {
        const SignalId id = stack.back();
        stack.pop_back();
        if (seen[id]) continue;
        seen[id] = true;
        if (netlist::is_comb_gate(out.type(id))) {
          for (SignalId f : out.fanins(id)) {
            if (!seen[f]) stack.push_back(f);
          }
        } else if (ff_index[id] != SIZE_MAX) {
          distance[ff_index[id]] = hop;
          next_hop.push_back(out.dff_input(id));
        }
      }
      std::swap(stack, next_hop);
    }
  }
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < functional_ffs.size(); ++i) {
    if (distance[i] != SIZE_MAX) candidates.push_back(i);
  }
  if (candidates.empty()) {  // degenerate circuit: fall back to all FFs
    for (std::size_t i = 0; i < functional_ffs.size(); ++i) candidates.push_back(i);
  }
  rng.shuffle(candidates);
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](std::size_t a, std::size_t b) {
                     return distance[a] < distance[b];
                   });
  const std::size_t count = std::min(options.locked_ffs, candidates.size());
  candidates.resize(count);

  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    const std::size_t fi = candidates[ci];
    const SignalId ff = functional_ffs[fi];
    const SignalId correct = original_d[fi];
    const std::string prefix = "cl_ff" + std::to_string(ci);

    // Wrongful hardware pool: other FFs' original next-state cones that
    // *behaviourally* differ from the correct cone (identical-function
    // hardware would make wrong keys silently correct). Falls back to the
    // inverted own cone — still repurposed, and guaranteed to differ.
    std::vector<SignalId> wrongful;
    for (std::size_t j = 0; j < original_d.size(); ++j) {
      if (j != fi && original_d[j] != correct && differs_enough(fi, j)) {
        wrongful.push_back(original_d[j]);
      }
    }
    if (wrongful.size() > 4) {
      rng.shuffle(wrongful);
      wrongful.resize(4);
    }
    if (wrongful.empty()) {
      wrongful.push_back(out.add_not(correct, out.fresh_name(prefix + "_inv")));
    }

    // Layer 1: one key-checked slot per counter time.
    std::vector<SignalId> slots;
    for (std::size_t t = 0; t < options.num_keys; ++t) {
      slots.push_back(build_layer1_slot(out, key_port, key_values[t], correct,
                                        wrongful,
                                        prefix + "_t" + std::to_string(t)));
    }
    // Layers 2..m: counter-selected combination; layer m drives the FF.
    const SignalId root = build_upper_layers(out, slots, tb.is_time, 0,
                                             options.num_keys, prefix);
    out.set_dff_input(ff, root);
  }

  for (std::uint64_t v : key_values) {
    result.key_schedule.push_back(sim::u64_to_bits(v, options.key_bits));
  }
  out.check();
  return result;
}

}  // namespace cl::core
