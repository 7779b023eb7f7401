#include "precharac/characterize.h"

#include <algorithm>
#include <bit>
#include <memory>

#include "util/check.h"
#include "util/parallel.h"

namespace fav::precharac {

using rtl::Machine;
using rtl::RegisterMap;

RegisterCharacterization::RegisterCharacterization(
    const CharacterizationConfig& config,
    std::vector<BitCharacterization> bits, std::vector<char> done)
    : config_(config), bits_(std::move(bits)), done_(std::move(done)) {
  const auto total =
      static_cast<std::size_t>(Machine::reg_map().total_bits());
  FAV_ENSURE_MSG(bits_.size() == total && done_.size() == total,
                "characterization size does not match the register map");
}

RegisterCharacterization::RegisterCharacterization(
    const rtl::GoldenRun& golden, const CharacterizationConfig& config,
    std::vector<int> bits, std::size_t threads)
    : config_(config) {
  FAV_ENSURE(config.horizon > 0);
  FAV_ENSURE(config.stride > 0);
  const RegisterMap& map = Machine::reg_map();
  const auto total = static_cast<std::size_t>(map.total_bits());
  bits_.resize(total);
  done_.assign(total, 0);

  if (bits.empty()) {
    bits.resize(total);
    for (std::size_t i = 0; i < total; ++i) bits[i] = static_cast<int>(i);
  }
  // Every bit owns its output slot, so a duplicate would accumulate twice
  // (and race once the loop is parallel).
  for (const int flat : bits) {
    FAV_ENSURE_MSG(flat >= 0 && flat < map.total_bits(),
                  "flat bit " << flat << " out of range");
    auto& seen = done_[static_cast<std::size_t>(flat)];
    FAV_ENSURE_MSG(seen == 0, "flat bit " << flat << " listed twice");
    seen = 1;
  }

  // Golden field values, masked to each field's width, for cycles
  // 0..length. pack() is injective over masked field values, so a faulty
  // state equals golden exactly when every masked field does — the packed
  // BitVector compare becomes a compare of ~30 words, and the set of
  // diverging fields fits in one u64 mask.
  const std::size_t nfields = map.fields().size();
  FAV_ENSURE_MSG(nfields <= 64, "contamination mask holds at most 64 fields");
  std::vector<std::uint32_t> masks(nfields);
  for (std::size_t f = 0; f < nfields; ++f) {
    const int width = map.fields()[f].width;
    masks[f] = width >= 32 ? ~0u : (1u << width) - 1u;
  }
  const std::uint64_t length = golden.length();
  std::vector<std::uint32_t> gold(static_cast<std::size_t>(length + 1) *
                                  nfields);
  for (std::uint64_t c = 0; c <= length; ++c) {
    std::uint32_t* g = &gold[c * nfields];
    map.get_fields(golden.state_at(c), g);
    for (std::size_t f = 0; f < nfields; ++f) g[f] &= masks[f];
  }
  // Mask of the fields of `s` that differ from golden at `cycle`; `now` is
  // the caller's nfields-slot scratch.
  auto diverging = [&](const rtl::ArchState& s, std::uint64_t cycle,
                       std::uint32_t* now) {
    map.get_fields(s, now);
    const std::uint32_t* g = &gold[cycle * nfields];
    std::uint64_t diff = 0;
    for (std::size_t f = 0; f < nfields; ++f) {
      diff |= std::uint64_t{(now[f] & masks[f]) != g[f]} << f;
    }
    return diff;
  };

  // Bits are independent: each worker repositions its own machine (no
  // per-injection allocation) and writes only the slots of its bits. A
  // bit's injections accumulate in cycle order on one thread, so the
  // doubles are bitwise-identical at every thread count. grain = 1 because
  // memory-type bits run the full horizon while the rest converge early.
  std::vector<std::unique_ptr<Machine>> machines(
      resolve_thread_count(threads));
  auto characterize = [&](std::size_t worker, std::size_t b, std::size_t e) {
    auto& m = machines[worker];
    if (!m) m = std::make_unique<Machine>(golden.program());
    std::vector<std::uint32_t> now(nfields);
    for (std::size_t j = b; j < e; ++j) {
      const int flat = bits[j];
      auto& bc = bits_[static_cast<std::size_t>(flat)];
      const std::uint64_t others =
          ~(std::uint64_t{1} << map.locate(flat).first);

      for (std::uint64_t c = config.first_cycle; c < length;
           c += config.stride) {
        golden.restore_into(*m, c);
        map.flip_bit(m->mutable_state(), flat);

        double lifetime = static_cast<double>(config.horizon);
        std::uint64_t contaminated = 0;
        for (std::uint64_t k = 0; k < config.horizon; ++k) {
          const std::uint64_t diff =
              diverging(m->state(), std::min(c + k, length), now.data());
          if (diff == 0) {
            lifetime = static_cast<double>(k);
            break;
          }
          contaminated |= diff & others;
          m->step();
        }

        bc.avg_lifetime += lifetime;
        bc.max_lifetime = std::max(bc.max_lifetime, lifetime);
        bc.avg_contamination +=
            static_cast<double>(std::popcount(contaminated));
        ++bc.samples;
      }

      if (bc.samples > 0) {
        bc.avg_lifetime /= bc.samples;
        bc.avg_contamination /= bc.samples;
      }
    }
  };
  parallel_for(bits.size(), threads, /*grain=*/1, characterize);
}

bool RegisterCharacterization::characterized(int flat_bit) const {
  FAV_ENSURE(flat_bit >= 0 &&
            flat_bit < static_cast<int>(done_.size()));
  return done_[static_cast<std::size_t>(flat_bit)] != 0;
}

const BitCharacterization& RegisterCharacterization::bit(int flat_bit) const {
  FAV_ENSURE_MSG(characterized(flat_bit),
                "bit " << flat_bit << " was not characterized");
  return bits_[static_cast<std::size_t>(flat_bit)];
}

bool RegisterCharacterization::is_memory_type(int flat_bit) const {
  if (!characterized(flat_bit)) return false;
  const auto& bc = bits_[static_cast<std::size_t>(flat_bit)];
  return bc.samples > 0 &&
         bc.avg_lifetime >= config_.lifetime_threshold &&
         bc.avg_contamination <= config_.contamination_threshold;
}

std::vector<int> RegisterCharacterization::memory_type_bits() const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(bits_.size()); ++i) {
    if (is_memory_type(i)) out.push_back(i);
  }
  return out;
}

double RegisterCharacterization::lifetime(int flat_bit) const {
  if (!characterized(flat_bit)) return 0.0;
  return bits_[static_cast<std::size_t>(flat_bit)].avg_lifetime;
}

}  // namespace fav::precharac
