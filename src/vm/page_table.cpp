#include "repro/vm/page_table.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace repro::vm {

PageTable::PageTable(std::size_t num_procs)
    : num_procs_(num_procs), high_words_((num_procs + 63) / 64 - 1) {
  REPRO_REQUIRE(num_procs >= 1);
}

PageTable::Entry& PageTable::mutable_entry(VPage page) {
  Entry* e = find(page);
  REPRO_REQUIRE_MSG(e != nullptr, "page not mapped");
  return *e;
}

void PageTable::clear_high_mappers(VPage page) {
  const auto first = mapper_high_.begin() +
                     static_cast<std::ptrdiff_t>(page.value() * high_words_);
  std::fill(first, first + static_cast<std::ptrdiff_t>(high_words_), 0);
}

void PageTable::map(VPage page, FrameId frame) {
  REPRO_REQUIRE_MSG(!is_mapped(page), "page already mapped");
  if (page.value() >= table_.size()) {
    table_.resize(page.value() + 1);
    mapper_high_.resize(table_.size() * high_words_, 0);
  }
  Entry& e = table_[page.value()];
  e.frame = frame;
  e.mapped = true;
  ++mapped_count_;
}

FrameId PageTable::unmap(VPage page) {
  Entry& e = mutable_entry(page);
  const FrameId old = e.frame;
  if (e.replicated) {
    replicas_[page.value()].clear();
  }
  clear_high_mappers(page);
  e = Entry{};
  --mapped_count_;
  return old;
}

FrameId PageTable::remap(VPage page, FrameId frame) {
  Entry& e = mutable_entry(page);
  REPRO_REQUIRE_MSG(!e.replicated,
                    "collapse replicas before migrating a page");
  const FrameId old = e.frame;
  e.frame = frame;
  e.mapper_mask = 0;
  clear_high_mappers(page);
  ++e.migrations;
  return old;
}

const PageTable::Entry& PageTable::entry(VPage page) const {
  const Entry* e = find(page);
  REPRO_REQUIRE_MSG(e != nullptr, "page not mapped");
  return *e;
}

void PageTable::note_mapper(VPage page, ProcId proc) {
  add_mapper(page, mutable_entry(page), proc);
}

void PageTable::mark_dirty(VPage page) { mutable_entry(page).dirty = true; }

void PageTable::clear_dirty(VPage page) {
  mutable_entry(page).dirty = false;
}

bool PageTable::is_dirty(VPage page) const { return entry(page).dirty; }

void PageTable::add_replica(VPage page, FrameId frame) {
  Entry& e = mutable_entry(page);
  REPRO_REQUIRE_MSG(frame != e.frame, "replica must differ from primary");
  if (page.value() >= replicas_.size()) {
    replicas_.resize(page.value() + 1);
  }
  std::vector<FrameId>& list = replicas_[page.value()];
  for (const FrameId existing : list) {
    REPRO_REQUIRE_MSG(existing != frame, "duplicate replica frame");
  }
  list.push_back(frame);
  e.replicated = true;
}

std::vector<FrameId> PageTable::take_replicas(VPage page) {
  Entry& e = mutable_entry(page);
  if (!e.replicated) {
    return {};
  }
  e.replicated = false;
  return std::exchange(replicas_[page.value()], {});
}

std::uint64_t PageTable::digest() const {
  StateHash hash;
  hash.mix(mapped_count_);
  for (std::size_t p = 0; p < table_.size(); ++p) {
    const Entry& e = table_[p];
    if (!e.mapped) {
      continue;
    }
    hash.mix(p);
    hash.mix(e.frame.value());
    hash.mix(e.mapper_mask);
    // High mapper words are mixed only when one is set, preceded by the
    // count up to the highest nonzero word, so <= 64-proc digests stay
    // byte-identical to the single-word layout (the 16-node golden
    // traces). Bits are only set, and cleared all at once, so that
    // count is also the number of words ever touched since the clear.
    const std::uint64_t* high = mapper_high_.data() + p * high_words_;
    std::size_t used = high_words_;
    while (used > 0 && high[used - 1] == 0) {
      --used;
    }
    if (used > 0) {
      hash.mix(used);
      for (std::size_t w = 0; w < used; ++w) {
        hash.mix(high[w]);
      }
    }
    hash.mix(e.dirty ? 1 : 0);
    const std::span<const FrameId> copies = replicas(VPage(p));
    hash.mix(copies.size());
    for (const FrameId replica : copies) {
      hash.mix(replica.value());
    }
  }
  return hash.value();
}

std::vector<std::pair<VPage, PageTable::Entry>> PageTable::entries() const {
  std::vector<std::pair<VPage, Entry>> out;
  out.reserve(mapped_count_);
  for (std::size_t p = 0; p < table_.size(); ++p) {
    if (table_[p].mapped) {
      out.emplace_back(VPage(p), table_[p]);
    }
  }
  return out;
}

unsigned PageTable::mapper_count(VPage page) const {
  const Entry& e = entry(page);
  auto count = static_cast<unsigned>(std::popcount(e.mapper_mask));
  const std::uint64_t* high = mapper_high_.data() + page.value() * high_words_;
  for (std::size_t w = 0; w < high_words_; ++w) {
    count += static_cast<unsigned>(std::popcount(high[w]));
  }
  return count;
}

}  // namespace repro::vm
