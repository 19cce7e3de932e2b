#include "src/serve/cache.hpp"

#include "src/common/stats.hpp"

namespace tml {

namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::shared_ptr<const CachedModel> compile_entry(const std::string& source) {
  const PrismModel parsed = parse_prism(source);
  auto entry = std::make_shared<CachedModel>();
  entry->deterministic = parsed.type == PrismModel::Type::kDtmc;
  entry->num_states = parsed.mdp.num_states();
  entry->num_choices = parsed.mdp.num_choices();
  entry->model = entry->deterministic ? compile(parsed.dtmc())
                                      : compile(parsed.mdp);
  entry->content_hash = entry->model.content_hash();
  // Force-build the lazy graph caches before the entry becomes visible to
  // other threads: afterwards every access through the shared const entry
  // is a pure read.
  if (entry->model.num_states() > 0) {
    (void)entry->model.scc();
    (void)entry->model.predecessors(0);
  }
  return entry;
}

}  // namespace

ModelCache::ModelCache(std::size_t capacity) : capacity_(capacity) {}

ModelCache::Result ModelCache::get(const std::string& source) {
  static stats::Counter& c_hits = stats::counter("serve.cache.hits");
  static stats::Counter& c_misses = stats::counter("serve.cache.misses");
  static stats::Counter& c_evictions = stats::counter("serve.cache.evictions");

  const std::uint64_t source_hash = fnv1a(source);
  std::promise<std::shared_ptr<const CachedModel>> promise;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto src_it = sources_.find(source_hash);
    if (src_it != sources_.end() && src_it->second.source == source) {
      const auto entry_it = entries_.find(src_it->second.content_hash);
      if (entry_it != entries_.end()) {
        touch(entry_it->second);
        ++hits_;
        c_hits.bump();
        return {entry_it->second.model, true};
      }
      // The entry was evicted out from under its index row; fall through
      // to a recompile, which re-inserts both.
    }
    const auto flight_it = in_flight_.find(source);
    if (flight_it != in_flight_.end()) {
      // Another request is compiling this source: wait for its entry (or
      // rethrow its error) instead of compiling it again.
      const auto pending = flight_it->second;
      lock.unlock();
      std::shared_ptr<const CachedModel> entry = pending.get();
      lock.lock();
      ++hits_;
      c_hits.bump();
      return {std::move(entry), true};
    }
    in_flight_.emplace(source, promise.get_future().share());
  }

  // Miss path: parse + compile outside the lock, so a slow compile never
  // stalls concurrent fast-path hits.
  std::shared_ptr<const CachedModel> compiled;
  try {
    compiled = compile_entry(source);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      in_flight_.erase(source);
    }
    promise.set_exception(std::current_exception());
    throw;
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  in_flight_.erase(source);
  ++misses_;
  c_misses.bump();
  sources_[source_hash] = SourceKey{source, compiled->content_hash};
  // Keep the source index bounded: many distinct sources can point at few
  // (or evicted) entries, so occasionally drop rows whose entry is gone.
  // The row just written is exempt — its entry is inserted below.
  if (sources_.size() > 8 * capacity_ + 8) {
    for (auto it = sources_.begin(); it != sources_.end();) {
      const bool stale = it->first != source_hash &&
                         entries_.count(it->second.content_hash) == 0;
      it = stale ? sources_.erase(it) : std::next(it);
    }
  }
  auto entry_it = entries_.find(compiled->content_hash);
  if (entry_it != entries_.end()) {
    // Distinct source text, identical compiled artifact — reuse the cached
    // entry (and its warm graph caches) rather than the fresh compile.
    touch(entry_it->second);
    promise.set_value(entry_it->second.model);
    return {entry_it->second.model, false};
  }
  promise.set_value(compiled);
  if (capacity_ == 0) return {std::move(compiled), false};
  while (entries_.size() >= capacity_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++evictions_;
    c_evictions.bump();
  }
  lru_.push_front(compiled->content_hash);
  entries_[compiled->content_hash] = Entry{compiled, lru_.begin()};
  return {std::move(compiled), false};
}

void ModelCache::touch(Entry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru_pos);
  entry.lru_pos = lru_.begin();
}

std::size_t ModelCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t ModelCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t ModelCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t ModelCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

}  // namespace tml
