#include "repro/memsys/directory.hpp"

#include <algorithm>
#include <bit>

#include "repro/common/assert.hpp"

namespace repro::memsys {

Directory::Directory(std::size_t num_procs)
    : num_procs_(num_procs), words_per_entry_((num_procs + 63) / 64) {
  REPRO_REQUIRE(num_procs >= 1 && num_procs <= 65536);
  if (words_per_entry_ > 1) {
    scratch_high_.resize(words_per_entry_ - 1);
  }
}

unsigned Directory::AccessOutcome::invalidations() const {
  auto count = static_cast<unsigned>(std::popcount(invalidate_mask));
  for (const std::uint64_t word : invalidate_high) {
    count += static_cast<unsigned>(std::popcount(word));
  }
  return count;
}

bool Directory::live(std::size_t page) const {
  const std::uint64_t* w = words(page);
  for (std::size_t i = 0; i < words_per_entry_; ++i) {
    if (w[i] != 0) {
      return true;
    }
  }
  return false;
}

std::size_t Directory::ensure(VPage page) {
  if (page.value() >= meta_.size()) {
    meta_.resize(page.value() + 1);
    words_.resize(meta_.size() * words_per_entry_, 0);
  }
  return page.value();
}

Directory::AccessOutcome Directory::on_read(ProcId proc, VPage page) {
  REPRO_REQUIRE(proc.value() < num_procs_);
  const std::size_t p = ensure(page);
  if (!live(p)) {
    ++tracked_;
  }
  words(p)[proc.value() / 64] |= 1ULL << (proc.value() % 64);
  Meta& m = meta_[p];
  if (m.has_owner && m.owner != proc.value()) {
    // A reader joins: the writer loses exclusivity but keeps its copy.
    m.has_owner = false;
  }
  return {};
}

Directory::AccessOutcome Directory::on_write(ProcId proc, VPage page) {
  REPRO_REQUIRE(proc.value() < num_procs_);
  const std::size_t p = ensure(page);
  if (!live(p)) {
    ++tracked_;
  }
  std::uint64_t* w = words(p);
  const std::size_t self_word = proc.value() / 64;
  const std::uint64_t self_bit = 1ULL << (proc.value() % 64);
  AccessOutcome out;
  out.invalidate_mask = w[0] & (self_word == 0 ? ~self_bit : ~0ULL);
  if (words_per_entry_ > 1) {
    for (std::size_t i = 1; i < words_per_entry_; ++i) {
      scratch_high_[i - 1] = w[i] & (self_word == i ? ~self_bit : ~0ULL);
    }
    out.invalidate_high = scratch_high_;
  }
  std::fill(w, w + words_per_entry_, 0);
  w[self_word] = self_bit;
  meta_[p].owner = proc.value();
  meta_[p].has_owner = true;
  return out;
}

void Directory::on_evict(ProcId proc, VPage page) {
  REPRO_REQUIRE(proc.value() < num_procs_);
  const std::size_t p = page.value();
  if (p >= meta_.size() || !live(p)) {
    return;
  }
  words(p)[proc.value() / 64] &= ~(1ULL << (proc.value() % 64));
  Meta& m = meta_[p];
  if (m.has_owner && m.owner == proc.value()) {
    m.has_owner = false;
  }
  if (!live(p)) {
    meta_[p] = Meta{};
    --tracked_;
  }
}

std::uint64_t Directory::digest() const {
  // Pages whose sharer set emptied are reset, so live entries are
  // exactly the behaviourally relevant ones. High words are mixed only
  // on > 64-proc machines, keeping 16-node digests byte-identical to
  // the single-word layout.
  StateHash hash;
  hash.mix(tracked_);
  for (std::size_t p = 0; p < meta_.size(); ++p) {
    if (!live(p)) {
      continue;
    }
    const std::uint64_t* w = words(p);
    hash.mix(p);
    for (std::size_t i = 0; i < words_per_entry_; ++i) {
      hash.mix(w[i]);
    }
    const Meta& m = meta_[p];
    hash.mix(m.has_owner ? m.owner + 1ull : 0ull);
  }
  return hash.value();
}

std::uint64_t Directory::sharers(VPage page) const {
  return page.value() < meta_.size() ? words(page.value())[0] : 0;
}

bool Directory::is_exclusive(ProcId proc, VPage page) const {
  const std::size_t p = page.value();
  if (p >= meta_.size()) {
    return false;
  }
  const Meta& m = meta_[p];
  if (!m.has_owner || m.owner != proc.value()) {
    return false;
  }
  const std::uint64_t* w = words(p);
  for (std::size_t i = 0; i < words_per_entry_; ++i) {
    const std::uint64_t expected =
        i == proc.value() / 64 ? 1ULL << (proc.value() % 64) : 0;
    if (w[i] != expected) {
      return false;
    }
  }
  return true;
}

}  // namespace repro::memsys
