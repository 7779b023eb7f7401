#include "precharac/characterize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "soc/benchmark.h"
#include "util/check.h"
#include "util/io.h"

namespace fav::precharac {
namespace {

using rtl::Machine;
using rtl::RegisterMap;

const rtl::Program& workload() {
  static const rtl::Program p = soc::make_synthetic_workload();
  return p;
}

const rtl::GoldenRun& golden() {
  static const rtl::GoldenRun g(workload(), 400, 16);
  return g;
}

int field_bit(const std::string& name, int bit = 0) {
  const RegisterMap& map = Machine::reg_map();
  return map.field(map.field_index(name)).offset + bit;
}

TEST(RegisterCharacterization, UnusedMpuRegionIsMemoryType) {
  // Region 3 is never configured by the synthetic workload: a bit error in
  // its base register persists forever and contaminates nothing (MPU checks
  // only use enabled regions and region 3 stays disabled).
  const int bit = field_bit("mpu3_base", 7);
  RegisterCharacterization charac(golden(), {}, {bit});
  ASSERT_TRUE(charac.characterized(bit));
  const auto& bc = charac.bit(bit);
  EXPECT_GT(bc.samples, 0);
  EXPECT_DOUBLE_EQ(bc.avg_lifetime,
                   static_cast<double>(charac.config().horizon));
  EXPECT_DOUBLE_EQ(bc.avg_contamination, 0.0);
  EXPECT_TRUE(charac.is_memory_type(bit));
}

TEST(RegisterCharacterization, ViolAddrIsMemoryType) {
  // viol_addr is only written on violation; the clean workload never
  // violates, so errors stay.
  const int bit = field_bit("viol_addr", 5);
  RegisterCharacterization charac(golden(), {}, {bit});
  EXPECT_TRUE(charac.is_memory_type(bit));
}

TEST(RegisterCharacterization, LoopRegisterIsComputationType) {
  // r4 is rewritten every loop iteration: short lifetime.
  const int bit = field_bit("r4", 2);
  RegisterCharacterization charac(golden(), {}, {bit});
  const auto& bc = charac.bit(bit);
  EXPECT_LT(bc.avg_lifetime, charac.config().lifetime_threshold);
  EXPECT_FALSE(charac.is_memory_type(bit));
}

TEST(RegisterCharacterization, PcErrorContaminates) {
  // A PC bit error derails execution: many registers diverge.
  const int bit = field_bit("pc", 1);
  RegisterCharacterization charac(golden(), {}, {bit});
  EXPECT_GT(charac.bit(bit).avg_contamination, 1.0);
  EXPECT_FALSE(charac.is_memory_type(bit));
}

TEST(RegisterCharacterization, LifetimeAccessorDefaultsToZero) {
  const int bit = field_bit("r4");
  RegisterCharacterization charac(golden(), {}, {bit});
  EXPECT_EQ(charac.lifetime(field_bit("r5")), 0.0);  // not characterized
  EXPECT_FALSE(charac.is_memory_type(field_bit("r5")));
  EXPECT_THROW(charac.bit(field_bit("r5")), fav::CheckError);
}

TEST(RegisterCharacterization, InvalidConfigThrows) {
  CharacterizationConfig cfg;
  cfg.horizon = 0;
  EXPECT_THROW(RegisterCharacterization(golden(), cfg, {0}), fav::CheckError);
  cfg = {};
  cfg.stride = 0;
  EXPECT_THROW(RegisterCharacterization(golden(), cfg, {0}), fav::CheckError);
}

TEST(RegisterCharacterization, OutOfRangeBitThrows) {
  EXPECT_THROW(RegisterCharacterization(golden(), {}, {100000}),
               fav::CheckError);
}

TEST(RegisterCharacterization, DuplicateBitThrows) {
  // A bit listed twice would accumulate into its slot twice (and race on a
  // worker pool): rejected up front.
  const int bit = field_bit("r4", 2);
  const std::vector<int> bits = {bit, field_bit("pc"), bit};
  EXPECT_THROW(RegisterCharacterization(golden(), {}, bits), fav::CheckError);
}

// --- identity of the field-table kernel ------------------------------------

/// The original kernel, kept as a test-only oracle: a fresh machine per
/// injection, the packed state XORed against the golden BitVector, and the
/// contaminated fields collected per differing bit.
std::vector<BitCharacterization> reference_characterization(
    const CharacterizationConfig& config, const std::vector<int>& bits) {
  const RegisterMap& map = Machine::reg_map();
  const rtl::GoldenRun& g = golden();
  std::vector<BitCharacterization> out(
      static_cast<std::size_t>(map.total_bits()));
  const std::uint64_t length = g.length();
  for (const int flat : bits) {
    auto& bc = out[static_cast<std::size_t>(flat)];
    const int origin_field = map.locate(flat).first;
    for (std::uint64_t c = config.first_cycle; c < length;
         c += config.stride) {
      Machine m = g.restore(c);
      map.flip_bit(m.mutable_state(), flat);
      double lifetime = static_cast<double>(config.horizon);
      std::unordered_set<int> contaminated;
      for (std::uint64_t k = 0; k < config.horizon; ++k) {
        const BitVector diff =
            map.pack(m.state()) ^ g.state_bits_at(std::min(c + k, length));
        if (diff.none()) {
          lifetime = static_cast<double>(k);
          break;
        }
        for (const std::size_t dbit : diff.set_bits()) {
          const int f = map.locate(static_cast<int>(dbit)).first;
          if (f != origin_field) contaminated.insert(f);
        }
        m.step();
      }
      bc.avg_lifetime += lifetime;
      bc.max_lifetime = std::max(bc.max_lifetime, lifetime);
      bc.avg_contamination += static_cast<double>(contaminated.size());
      ++bc.samples;
    }
    if (bc.samples > 0) {
      bc.avg_lifetime /= bc.samples;
      bc.avg_contamination /= bc.samples;
    }
  }
  return out;
}

/// Bitwise equality of every member (struct padding excluded).
bool bitwise_equal(const BitCharacterization& a, const BitCharacterization& b) {
  return std::memcmp(&a.avg_lifetime, &b.avg_lifetime, sizeof(double)) == 0 &&
         std::memcmp(&a.max_lifetime, &b.max_lifetime, sizeof(double)) == 0 &&
         std::memcmp(&a.avg_contamination, &b.avg_contamination,
                     sizeof(double)) == 0 &&
         a.samples == b.samples;
}

/// FNV-1a over every bit's member bytes, then the characterized flags.
std::uint64_t digest(const RegisterCharacterization& c) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const BitCharacterization& b : c.raw_bits()) {
    h = io::fnv1a64(&b.avg_lifetime, sizeof b.avg_lifetime, h);
    h = io::fnv1a64(&b.max_lifetime, sizeof b.max_lifetime, h);
    h = io::fnv1a64(&b.avg_contamination, sizeof b.avg_contamination, h);
    h = io::fnv1a64(&b.samples, sizeof b.samples, h);
  }
  return io::fnv1a64(c.raw_done().data(), c.raw_done().size(), h);
}

TEST(RegisterCharacterization, KernelMatchesPackedReference) {
  const RegisterMap& map = Machine::reg_map();
  std::vector<int> bits;
  for (int b = 0; b < map.total_bits(); b += 5) bits.push_back(b);
  for (const char* name : {"pc", "r0", "mpu0_perm", "viol_addr"}) {
    const rtl::RegisterField& f = map.field(map.field_index(name));
    for (int b = 0; b < f.width; ++b) {
      if (std::find(bits.begin(), bits.end(), f.offset + b) == bits.end()) {
        bits.push_back(f.offset + b);
      }
    }
  }
  CharacterizationConfig cfg;
  cfg.stride = 37;
  const auto expected = reference_characterization(cfg, bits);
  for (const std::size_t threads : {1u, 4u}) {
    const RegisterCharacterization charac(golden(), cfg, bits, threads);
    for (const int b : bits) {
      ASSERT_TRUE(charac.characterized(b));
      EXPECT_TRUE(bitwise_equal(charac.bit(b),
                                expected[static_cast<std::size_t>(b)]))
          << "bit " << b << " threads " << threads;
    }
  }
}

TEST(RegisterCharacterization, FullSweepDigestIsFixedAtEveryThreadCount) {
  // Digests recorded from the packed-BitVector kernel (the reference above)
  // over every bit, for the default config and for stride 37.
  constexpr std::uint64_t kDefaultDigest = 0xAB9B94CB6A38B972ull;
  constexpr std::uint64_t kStride37Digest = 0xFACF36547F73B8DFull;
  CharacterizationConfig stride37;
  stride37.stride = 37;
  for (const std::size_t threads : {1u, 2u, 4u, 0u}) {
    EXPECT_EQ(digest(RegisterCharacterization(golden(), {}, {}, threads)),
              kDefaultDigest)
        << "threads " << threads;
    EXPECT_EQ(digest(RegisterCharacterization(golden(), stride37, {}, threads)),
              kStride37Digest)
        << "threads " << threads;
  }
}

TEST(RegisterCharacterization, FullSweepClassesMatchExpectations) {
  // Characterize every bit (the real pre-characterization pass) and check
  // the aggregate shape of Fig. 4: a large fraction of bits are memory-type,
  // and the expectation flags in the register map mostly agree with the
  // empirical classification.
  CharacterizationConfig cfg;
  cfg.stride = 37;  // keep the test fast; benches use a denser sweep
  RegisterCharacterization charac(golden(), cfg);
  const RegisterMap& map = Machine::reg_map();

  const auto memory_bits = charac.memory_type_bits();
  EXPECT_GT(memory_bits.size(), 100u);  // MPU config dominates (144 bits)
  EXPECT_LT(memory_bits.size(), static_cast<std::size_t>(map.total_bits()));

  // Unconfigured MPU regions 2/3 must classify memory-type wholesale.
  for (const char* field : {"mpu2_base", "mpu3_limit", "mpu3_perm"}) {
    const int off = map.field(map.field_index(field)).offset;
    for (int b = 0; b < map.field(map.field_index(field)).width; ++b) {
      EXPECT_TRUE(charac.is_memory_type(off + b)) << field << "[" << b << "]";
    }
  }
  // The PC must not.
  for (int b = 0; b < 4; ++b) {
    EXPECT_FALSE(charac.is_memory_type(field_bit("pc", b))) << b;
  }
}

}  // namespace
}  // namespace fav::precharac
