// Disk persistence for the cross-attack ObservationBank: the versioned
// binary format round-trips facts exactly, merges like record() (dedup +
// cap), and rejects corrupt or truncated files instead of loading garbage
// constraints into future attacks.
#include "attack/observation_bank.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "sim/sequence.hpp"

namespace cl::attack {
namespace {

namespace fs = std::filesystem;

std::vector<sim::BitVec> seq(std::initializer_list<std::string> frames) {
  std::vector<sim::BitVec> out;
  for (const std::string& frame : frames) {
    sim::BitVec bits;
    for (char c : frame) bits.push_back(c == '1' ? 1 : 0);
    out.push_back(std::move(bits));
  }
  return out;
}

/// Little-endian u64, byte-compatible with the persistence format.
void put_u64(std::ostream& out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out.write(bytes, sizeof bytes);
}

/// A complete registry file holding one bank under `key` — what
/// save_observation_banks would write from another process, built by hand so
/// loading can be observed creating a brand-new bank in this one.
std::string registry_file_with(std::uint64_t key, const ObservationBank& bank) {
  std::ostringstream out(std::ios::binary);
  out.write("CLOBANK1", 8);
  put_u64(out, 1);  // one bank
  put_u64(out, key);
  bank.serialize(out);
  return out.str();
}

class BankPersistence : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cutelock_bank_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    path_ = (dir_ / "bank.bin").string();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void write_file(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(BankPersistence, SerializeRoundTripsThroughAStream) {
  ObservationBank bank;
  const auto in_a = seq({"0101", "1100"});
  const auto out_a = seq({"1", "0"});
  const auto in_b = seq({"1111"});
  const auto out_b = seq({"1"});
  bank.record(in_a, out_a);
  bank.record(in_b, out_b);

  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  bank.serialize(stream);

  ObservationBank restored;
  ASSERT_TRUE(restored.deserialize(stream));
  ASSERT_EQ(restored.size(), 2u);
  const auto hit = restored.lookup(in_a);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, out_a);
  const auto facts = restored.snapshot();
  EXPECT_EQ(facts[0].inputs, in_a);
  EXPECT_EQ(facts[0].outputs, out_a);
  EXPECT_EQ(facts[1].inputs, in_b);
  EXPECT_EQ(facts[1].outputs, out_b);
}

TEST_F(BankPersistence, DeserializeMergesLikeRecord) {
  ObservationBank bank;
  bank.record(seq({"01"}), seq({"1"}));
  std::string bytes;
  {
    std::ostringstream out(std::ios::binary);
    bank.serialize(out);
    bytes = out.str();
  }
  ObservationBank target;
  target.record(seq({"10"}), seq({"0"}));  // pre-existing distinct fact
  {
    std::istringstream in(bytes, std::ios::binary);
    ASSERT_TRUE(target.deserialize(in));
  }
  EXPECT_EQ(target.size(), 2u);
  {
    // Merging the same stream again is a no-op: exact duplicates dedup.
    std::istringstream in(bytes, std::ios::binary);
    ASSERT_TRUE(target.deserialize(in));
  }
  EXPECT_EQ(target.size(), 2u);
}

TEST_F(BankPersistence, LoadCreatesBanksFromAForeignFile) {
  // A file written by another process references bank keys this process has
  // never seen; loading must create those banks with the facts intact.
  const std::uint64_t key = 0x5eaf00d5eaf00d01ULL;
  ObservationBank source;
  const auto inputs = seq({"0011", "1010"});
  const auto outputs = seq({"0", "1"});
  source.record(inputs, outputs);
  write_file(registry_file_with(key, source));

  std::string error;
  ASSERT_TRUE(load_observation_banks(path_, &error)) << error;
  ObservationBank& loaded = observation_bank_for_key(key);
  ASSERT_EQ(loaded.size(), 1u);
  const auto hit = loaded.lookup(inputs);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, outputs);
}

TEST_F(BankPersistence, SaveThenLoadRoundTripsTheRegistry) {
  const std::uint64_t key = 0x5eaf00d5eaf00d02ULL;
  ObservationBank& bank = observation_bank_for_key(key);
  bank.record(seq({"110", "001"}), seq({"01", "10"}));
  const std::size_t before = bank.size();

  std::string error;
  ASSERT_TRUE(save_observation_banks(path_, &error)) << error;
  ASSERT_TRUE(fs::exists(path_));
  EXPECT_FALSE(fs::exists(path_ + ".tmp")) << "temp file must be renamed away";

  // Loading back into the same registry is a dedup merge: nothing grows,
  // nothing is lost.
  ASSERT_TRUE(load_observation_banks(path_, &error)) << error;
  EXPECT_EQ(observation_bank_for_key(key).size(), before);
}

TEST_F(BankPersistence, BadMagicIsRejected) {
  write_file("NOTABANKjunkjunkjunk");
  std::string error;
  EXPECT_FALSE(load_observation_banks(path_, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST_F(BankPersistence, TruncatedFileIsRejected) {
  const std::uint64_t key = 0x5eaf00d5eaf00d03ULL;
  ObservationBank source;
  source.record(seq({"0101", "1100"}), seq({"1", "0"}));
  const std::string bytes = registry_file_with(key, source);
  write_file(bytes.substr(0, bytes.size() - 5));  // cut mid-fact
  std::string error;
  EXPECT_FALSE(load_observation_banks(path_, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(BankPersistence, AbsurdFactCountIsRejected) {
  // A corrupt count must fail fast, not attempt a 2^40-entry allocation.
  std::ostringstream out(std::ios::binary);
  out.write("CLOBANK1", 8);
  put_u64(out, 1);
  put_u64(out, 0x5eaf00d5eaf00d04ULL);
  put_u64(out, std::uint64_t{1} << 40);  // fact count far past the cap
  write_file(out.str());
  std::string error;
  EXPECT_FALSE(load_observation_banks(path_, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(BankPersistence, IllFormedFactIsRejected) {
  // Facts whose input and output frame counts differ, or whose frame widths
  // vary, could index past a frame in the fact encoder: a file holding one
  // is corrupt.
  const auto frames = [](std::ostream& out,
                         std::initializer_list<std::string> bits) {
    put_u64(out, bits.size());
    for (const std::string& frame : bits) {
      put_u64(out, frame.size());
      for (const char c : frame) out.put(c == '1' ? '\1' : '\0');
    }
  };
  const auto file_with = [&](std::initializer_list<std::string> inputs,
                             std::initializer_list<std::string> outputs) {
    std::ostringstream out(std::ios::binary);
    out.write("CLOBANK1", 8);
    put_u64(out, 1);
    put_u64(out, 0x5eaf00d5eaf00d05ULL);
    put_u64(out, 1);  // one fact
    frames(out, inputs);
    frames(out, outputs);
    return out.str();
  };
  for (const std::string& bytes :
       {file_with({"0101", "1"}, {"1", "0"}),      // short later input frame
        file_with({"0101", "1100"}, {"1", ""}),    // short later output frame
        file_with({"0101", "1100"}, {"1"}),        // fewer output frames
        file_with({"0101"}, {"1", "0"})}) {        // more output frames
    write_file(bytes);
    std::string error;
    EXPECT_FALSE(load_observation_banks(path_, &error));
    EXPECT_NE(error.find("corrupt"), std::string::npos) << error;
  }
  EXPECT_EQ(observation_bank_for_key(0x5eaf00d5eaf00d05ULL).size(), 0u);
  // The control: the same shape, well formed, loads.
  write_file(file_with({"0101", "1100"}, {"1", "0"}));
  std::string error;
  EXPECT_TRUE(load_observation_banks(path_, &error)) << error;
  EXPECT_EQ(observation_bank_for_key(0x5eaf00d5eaf00d05ULL).size(), 1u);
}

TEST_F(BankPersistence, MissingFileIsAnError) {
  std::string error;
  EXPECT_FALSE(load_observation_banks((dir_ / "nope.bin").string(), &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

}  // namespace
}  // namespace cl::attack
