#include "attack/observation_bank.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>

#include "util/fnv.hpp"

namespace cl::attack {

namespace {

// Persistence format (docs/service.md): a fixed magic naming the version,
// then little-endian u64 counts/lengths throughout. Bumping the layout means
// bumping the magic — old daemons reject new files instead of misreading
// them, and vice versa.
constexpr char k_bank_magic[8] = {'C', 'L', 'O', 'B', 'A', 'N', 'K', '1'};

// Caps a well-formed file can never exceed (serialize only writes banks that
// respect k_max_observations and real circuit interfaces). A length beyond
// them means corruption — reject instead of attempting a huge allocation.
constexpr std::uint64_t k_max_frames_per_fact = 1u << 16;
constexpr std::uint64_t k_max_bits_per_frame = 1u << 20;

void write_u64(std::ostream& out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out.write(bytes, 8);
}

bool read_u64(std::istream& in, std::uint64_t* v) {
  char bytes[8];
  if (!in.read(bytes, 8)) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i]))
          << (8 * i);
  }
  return true;
}

void write_frames(std::ostream& out, const std::vector<sim::BitVec>& frames) {
  write_u64(out, frames.size());
  for (const sim::BitVec& frame : frames) {
    write_u64(out, frame.size());
    for (const std::uint8_t bit : frame) {
      out.put(bit != 0 ? '\1' : '\0');
    }
  }
}

bool read_frames(std::istream& in, std::vector<sim::BitVec>* frames) {
  std::uint64_t count = 0;
  if (!read_u64(in, &count) || count > k_max_frames_per_fact) return false;
  frames->clear();
  frames->reserve(count);
  for (std::uint64_t f = 0; f < count; ++f) {
    std::uint64_t bits = 0;
    if (!read_u64(in, &bits) || bits > k_max_bits_per_frame) return false;
    sim::BitVec frame(bits);
    if (bits != 0 &&
        !in.read(reinterpret_cast<char*>(frame.data()),
                 static_cast<std::streamsize>(bits))) {
      return false;
    }
    for (const std::uint8_t bit : frame) {
      if (bit > 1) return false;  // facts are bits; anything else is damage
    }
    frames->push_back(std::move(frame));
  }
  return true;
}

/// A fact the bank holds: one output frame per input frame, and every input
/// (output) frame as wide as the first.
bool well_formed(const std::vector<sim::BitVec>& inputs,
                 const std::vector<sim::BitVec>& outputs) {
  if (inputs.size() != outputs.size()) return false;
  for (std::size_t t = 1; t < inputs.size(); ++t) {
    if (inputs[t].size() != inputs[0].size() ||
        outputs[t].size() != outputs[0].size()) {
      return false;
    }
  }
  return true;
}

std::uint64_t hash_sequence(const std::vector<sim::BitVec>& inputs) {
  std::uint64_t h = util::k_fnv_offset;
  util::fnv1a_mix(h, inputs.size());
  for (const sim::BitVec& frame : inputs) {
    util::fnv1a_mix(h, frame.size());
    for (const auto bit : frame) util::fnv1a_mix(h, bit != 0 ? 1 : 2);
  }
  return h;
}

}  // namespace

void ObservationBank::record(const std::vector<sim::BitVec>& inputs,
                             const std::vector<sim::BitVec>& outputs) {
  if (inputs.empty() || !well_formed(inputs, outputs)) return;
  const std::uint64_t h = hash_sequence(inputs);
  std::lock_guard<std::mutex> lock(mu_);
  if (observations_.size() >= k_max_observations) return;
  auto it = std::lower_bound(
      seen_.begin(), seen_.end(), h,
      [](const Entry& e, std::uint64_t v) { return e.hash < v; });
  for (; it != seen_.end() && it->hash == h; ++it) {
    if (observations_[it->index].inputs == inputs) return;  // duplicate fact
  }
  seen_.insert(it, Entry{h, observations_.size()});
  observations_.push_back(Observation{inputs, outputs});
}

std::optional<std::vector<sim::BitVec>> ObservationBank::lookup(
    const std::vector<sim::BitVec>& inputs) const {
  if (inputs.empty()) return std::nullopt;
  const std::uint64_t h = hash_sequence(inputs);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = std::lower_bound(
           seen_.begin(), seen_.end(), h,
           [](const Entry& e, std::uint64_t v) { return e.hash < v; });
       it != seen_.end() && it->hash == h; ++it) {
    const Observation& obs = observations_[it->index];
    if (obs.inputs == inputs) return obs.outputs;  // hash-collision safe
  }
  return std::nullopt;
}

std::vector<Observation> ObservationBank::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return observations_;
}

std::size_t ObservationBank::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return observations_.size();
}

void ObservationBank::serialize(std::ostream& out) const {
  const std::vector<Observation> facts = snapshot();
  write_u64(out, facts.size());
  for (const Observation& obs : facts) {
    write_frames(out, obs.inputs);
    write_frames(out, obs.outputs);
  }
}

bool ObservationBank::deserialize(std::istream& in) {
  std::uint64_t count = 0;
  if (!read_u64(in, &count) || count > k_max_observations) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    Observation obs;
    if (!read_frames(in, &obs.inputs) || !read_frames(in, &obs.outputs) ||
        !well_formed(obs.inputs, obs.outputs)) {
      return false;
    }
    record(obs.inputs, obs.outputs);  // dedup + cap, same as a live fact
  }
  return true;
}

std::uint64_t lock_instance_key(const netlist::Netlist& nl) {
  // Purely structural: the top-level netlist name is presentation metadata
  // (a file stem here, a request field in the daemon) and must not split
  // banks for the same circuit. Node names *are* hashed — they come from
  // the bench text itself and renaming signals genuinely changes identity.
  std::uint64_t h = util::k_fnv_offset;
  util::fnv1a_mix(h, nl.size());
  for (netlist::SignalId s = 0; s < nl.size(); ++s) {
    const netlist::Node node = nl.node(s);
    util::fnv1a_mix(h, static_cast<std::uint64_t>(node.type));
    util::fnv1a_mix(h, static_cast<std::uint64_t>(node.init));
    util::fnv1a_mix_bytes(h, node.name.data(), node.name.size());
    util::fnv1a_mix(h, node.fanins.size());
    for (const netlist::SignalId f : node.fanins) util::fnv1a_mix(h, f);
  }
  util::fnv1a_mix(h, nl.outputs().size());
  for (const netlist::SignalId o : nl.outputs()) util::fnv1a_mix(h, o);
  return h;
}

std::uint64_t bank_key(const netlist::Netlist& locked,
                       const netlist::Netlist& reference) {
  std::uint64_t h = lock_instance_key(locked);
  util::fnv1a_mix(h, lock_instance_key(reference));
  return h;
}

namespace {

struct Registry {
  std::mutex mu;
  // std::map: node-stable, so returned bank references never move.
  std::map<std::uint64_t, ObservationBank> banks;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: banks outlive static teardown
  return *r;
}

std::atomic<bool> g_bank_forced{false};

}  // namespace

ObservationBank& observation_bank_for_key(std::uint64_t key) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.banks[key];
}

void set_observation_bank_forced(bool on) {
  g_bank_forced.store(on, std::memory_order_relaxed);
}

ObservationBank* observation_bank_for(const netlist::Netlist& locked,
                                      const netlist::Netlist& reference) {
  if (!g_bank_forced.load(std::memory_order_relaxed)) return nullptr;
  return &observation_bank_for_key(bank_key(locked, reference));
}

std::vector<std::uint64_t> observation_bank_keys() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::uint64_t> keys;
  keys.reserve(r.banks.size());
  for (const auto& [key, bank] : r.banks) keys.push_back(key);
  return keys;  // std::map iteration: already sorted
}

bool save_observation_banks(const std::string& path, std::string* error) {
  const std::vector<std::uint64_t> keys = observation_bank_keys();
  // Write-then-rename: a daemon crashing mid-save (or two processes saving
  // the same file) never leaves a reader a torn bank.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error != nullptr) *error = "cannot write " + tmp;
      return false;
    }
    out.write(k_bank_magic, sizeof k_bank_magic);
    write_u64(out, keys.size());
    for (const std::uint64_t key : keys) {
      write_u64(out, key);
      observation_bank_for_key(key).serialize(out);
    }
    if (!out) {
      if (error != nullptr) *error = "short write to " + tmp;
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = "cannot rename " + tmp + " to " + path;
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool load_observation_banks(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  char magic[sizeof k_bank_magic];
  if (!in.read(magic, sizeof magic) ||
      !std::equal(magic, magic + sizeof magic, k_bank_magic)) {
    if (error != nullptr) {
      *error = path + ": not an observation-bank file (bad magic/version)";
    }
    return false;
  }
  std::uint64_t bank_count = 0;
  if (!read_u64(in, &bank_count)) {
    if (error != nullptr) *error = path + ": truncated bank count";
    return false;
  }
  for (std::uint64_t b = 0; b < bank_count; ++b) {
    std::uint64_t key = 0;
    if (!read_u64(in, &key) ||
        !observation_bank_for_key(key).deserialize(in)) {
      if (error != nullptr) {
        *error = path + ": corrupt or truncated bank record " +
                 std::to_string(b);
      }
      return false;
    }
  }
  return true;
}

}  // namespace cl::attack
