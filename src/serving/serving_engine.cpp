#include "serving/serving_engine.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "common/logging.h"

namespace pathrank::serving {

std::vector<int32_t> PathToSequence(const routing::Path& path) {
  std::vector<int32_t> seq;
  seq.reserve(path.vertices.size());
  for (graph::VertexId v : path.vertices) {
    seq.push_back(static_cast<int32_t>(v));
  }
  return seq;
}

namespace {

std::atomic<uint64_t> g_model_generation{0};

/// 64-bit hash of a whole id sequence. It only picks a memo bucket; a hit
/// always compares every id.
uint64_t HashSequence(const std::vector<int32_t>& seq) {
  uint64_t h = seq.size();
  for (int32_t id : seq) {
    h = ((h << 5) | (h >> 59)) ^ static_cast<uint32_t>(id);
    h *= 0x9e3779b97f4a7c15ULL;
  }
  // splitmix64's finaliser spreads every input bit over the low bits
  // that pick the bucket.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

/// One snapshot's bounded score memo: two halves, each a flat int32 arena
/// of path ids plus an open-addressing index of {offset, length, score}
/// slots over it. When the current half fills, the older half is
/// cleared and becomes the current one (a "flip"); a hit found in the
/// older half is copied into the current one, so paths in use survive
/// flips. The whole memo is allocated at construction and never grows.
class ServingEngine::ScoreMemo {
 public:
  /// Looks every row of `seqs` up: stores a hit's score in (*scores)[i]
  /// and appends a miss's index i to `missed`. Returns the flips that
  /// copying older-half hits forward caused.
  uint64_t LookUp(const std::vector<std::vector<int32_t>>& seqs,
                  std::vector<float>* scores, std::vector<size_t>* missed)
      EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    uint64_t flips = 0;
    for (size_t i = 0; i < seqs.size(); ++i) {
      const uint64_t hash = HashSequence(seqs[i]);
      if (const Slot* hit = Find(halves_[current_], seqs[i], hash)) {
        (*scores)[i] = hit->score;
      } else if (const Slot* old = Find(halves_[current_ ^ 1], seqs[i], hash)) {
        (*scores)[i] = old->score;
        flips += Store(seqs[i], hash, old->score) ? 1 : 0;
      } else {
        missed->push_back(i);
      }
    }
    return flips;
  }

  /// Stores row j's score scores[j]; a row the current half already
  /// holds (another caller scored it meanwhile) is skipped. Returns the
  /// flips this caused.
  uint64_t Insert(const std::vector<std::vector<int32_t>>& rows,
                  const std::vector<float>& scores) EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    uint64_t flips = 0;
    for (size_t j = 0; j < rows.size(); ++j) {
      const uint64_t hash = HashSequence(rows[j]);
      if (Find(halves_[current_], rows[j], hash) == nullptr) {
        flips += Store(rows[j], hash, scores[j]) ? 1 : 0;
      }
    }
    return flips;
  }

  /// Vertex ids both halves hold.
  size_t held_ids() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return halves_[0].ids.size() + halves_[1].ids.size();
  }

 private:
  /// Index slots per half: a power of two, filled to at most 3/4 so that
  /// every probe sequence meets an empty slot. route_live's rows average
  /// 15 ids, so a half fills by ids (about 4300 rows) before by entries.
  static constexpr size_t kSlots = 8192;
  static constexpr size_t kMaxEntries = kSlots / 4 * 3;
  /// Longest row stored; longer rows are always scored afresh.
  static constexpr size_t kMaxLength =
      std::min<size_t>(std::numeric_limits<uint16_t>::max(),
                       kScoreMemoHalfIds);
  static_assert(kScoreMemoHalfIds <= size_t{1} << 16,
                "a slot's offset is 16 bits");

  /// 8 bytes: no hash tag is kept, as the length check and the first ids
  /// reject nearly every other row in the probe sequence.
  struct Slot {
    uint16_t offset = 0;  // first id in the half's arena
    uint16_t length = 0;  // ids in the row; 0 marks an empty slot
    float score = 0.0f;
  };

  struct Half {
    std::vector<int32_t> ids;
    std::vector<Slot> slots = std::vector<Slot>(kSlots);
    size_t entries = 0;

    Half() { ids.reserve(kScoreMemoHalfIds); }
    void Clear() {
      ids.clear();
      std::fill(slots.begin(), slots.end(), Slot{});
      entries = 0;
    }
  };

  /// The slot holding exactly `seq` in `half`, or nullptr.
  static const Slot* Find(const Half& half, const std::vector<int32_t>& seq,
                          uint64_t hash) {
    for (size_t i = hash & (kSlots - 1);; i = (i + 1) & (kSlots - 1)) {
      const Slot& slot = half.slots[i];
      if (slot.length == 0) return nullptr;
      if (slot.length == seq.size() &&
          std::equal(seq.begin(), seq.end(),
                     half.ids.begin() + slot.offset)) {
        return &slot;
      }
    }
  }

  /// Appends `seq` to the current half, flipping first when it is full.
  /// Returns whether it flipped. The caller checked the current half
  /// does not hold `seq`.
  bool Store(const std::vector<int32_t>& seq, uint64_t hash, float score)
      REQUIRES(mu_) {
    if (seq.empty() || seq.size() > kMaxLength) return false;
    bool flipped = false;
    if (halves_[current_].ids.size() + seq.size() > kScoreMemoHalfIds ||
        halves_[current_].entries == kMaxEntries) {
      current_ ^= 1;
      halves_[current_].Clear();
      flipped = true;
    }
    Half& half = halves_[current_];
    size_t i = hash & (kSlots - 1);
    while (half.slots[i].length != 0) i = (i + 1) & (kSlots - 1);
    half.slots[i] = {static_cast<uint16_t>(half.ids.size()),
                     static_cast<uint16_t>(seq.size()), score};
    half.ids.insert(half.ids.end(), seq.begin(), seq.end());
    ++half.entries;
    return flipped;
  }

  /// Ranked after engine.snapshot, and never held together with it:
  /// ScoreBatch looks up, releases, scores, then inserts.
  mutable common::Mutex mu_{common::LockRank::kEngineScoreMemo,
                            "engine.score_memo"};
  Half halves_[2] GUARDED_BY(mu_);
  size_t current_ GUARDED_BY(mu_) = 0;
};

uint64_t ModelGeneration() {
  return g_model_generation.load(std::memory_order_acquire);
}

ServingEngine::ServingEngine(const graph::RoadNetwork& network,
                             std::shared_ptr<const ModelSnapshot> snapshot,
                             const ServingOptions& /*options*/)
    : network_(&network) {
  PR_CHECK(snapshot != nullptr) << "ServingEngine needs a snapshot";
  PR_CHECK(snapshot->vocab_size() == network.num_vertices())
      << "model/network vertex-count mismatch";
  served_.snapshot = std::move(snapshot);
  served_.memo = std::make_shared<ScoreMemo>();
}

ServingEngine::ServingEngine(const graph::RoadNetwork& network,
                             const core::PathRankModel& model,
                             const ServingOptions& options)
    : ServingEngine(network, ModelSnapshot::Capture(model), options) {}

ServingEngine::~ServingEngine() = default;

std::shared_ptr<const ModelSnapshot> ServingEngine::SwapSnapshot(
    std::shared_ptr<const ModelSnapshot> next) {
  PR_CHECK(next != nullptr) << "SwapSnapshot needs a snapshot";
  PR_CHECK(next->vocab_size() == network_->num_vertices())
      << "model/network vertex-count mismatch";
  // Allocated before the lock; the old memo is freed after it, by
  // whichever of this call and the last in-flight request drops it last.
  auto memo = std::make_shared<ScoreMemo>();
  // One locked exchange is the entire cut-over: requests that already
  // copied the old pair finish on it (their shared_ptr copies keep it
  // alive); requests that copy after this line see `next` and its empty
  // memo.
  common::MutexLock lock(snapshot_mu_);
  served_.snapshot.swap(next);
  served_.memo.swap(memo);
  // Count only once `next` serves: /healthz never reports a swap early,
  // and a planner that reads the new generation (acquire pairs with this
  // release) can only capture `next` or a later snapshot.
  swap_count_.fetch_add(1, std::memory_order_relaxed);
  g_model_generation.fetch_add(1, std::memory_order_release);
  return next;
}

ScoreMemoStats ServingEngine::memo_stats() const {
  ScoreMemoStats stats;
  stats.hits = memo_hits_.load(std::memory_order_relaxed);
  stats.misses = memo_misses_.load(std::memory_order_relaxed);
  stats.rows_scored = rows_scored_.load(std::memory_order_relaxed);
  stats.vertices_scored = vertices_scored_.load(std::memory_order_relaxed);
  stats.flips = memo_flips_.load(std::memory_order_relaxed);
  stats.held_ids = CaptureServed().memo->held_ids();
  return stats;
}

std::vector<float> ServingEngine::ScoreOn(
    const ModelSnapshot& snap, const nn::SequenceBatch& batch) const {
  // One scratch per thread, shared by every engine and snapshot the
  // thread scores on: ForwardInference resizes and overwrites every
  // buffer, so its earlier contents never influence a score.
  thread_local core::InferenceScratch scratch;
  return snap.model().ForwardInference(batch, snap.tables(), &scratch);
}

std::vector<float> ServingEngine::ScoreSequences(
    const nn::SequenceBatch& batch) const {
  // Capture once: the whole batch scores on one snapshot even if a swap
  // lands mid-call.
  const auto snap = shared_snapshot();
  return ScoreOn(*snap, batch);
}

std::vector<ScoredPath> ServingEngine::ScoreBatch(
    std::vector<routing::Path> paths) const {
  if (paths.empty()) return {};
  // Capture once: the whole batch scores on one snapshot, and reads and
  // fills only that snapshot's memo, even if a swap lands mid-call.
  const Served served = CaptureServed();
  std::vector<std::vector<int32_t>> seqs;
  seqs.reserve(paths.size());
  for (const auto& p : paths) seqs.push_back(PathToSequence(p));

  std::vector<float> scores(paths.size());
  std::vector<size_t> missed;
  uint64_t flips = served.memo->LookUp(seqs, &scores, &missed);
  memo_hits_.fetch_add(paths.size() - missed.size(),
                       std::memory_order_relaxed);
  memo_misses_.fetch_add(missed.size(), std::memory_order_relaxed);
  if (!missed.empty()) {
    std::vector<std::vector<int32_t>> rows;
    rows.reserve(missed.size());
    for (size_t i : missed) rows.push_back(std::move(seqs[i]));
    // No memo lock is held while the model scores, and a batch that
    // throws here stores nothing.
    const auto fresh =
        ScoreOn(*served.snapshot, nn::SequenceBatch::FromSequences(rows));
    PR_CHECK(fresh.size() == rows.size()) << "one score per path";
    flips += served.memo->Insert(rows, fresh);
    uint64_t vertices = 0;
    for (size_t j = 0; j < rows.size(); ++j) {
      scores[missed[j]] = fresh[j];
      vertices += rows[j].size();
    }
    rows_scored_.fetch_add(rows.size(), std::memory_order_relaxed);
    vertices_scored_.fetch_add(vertices, std::memory_order_relaxed);
  }
  memo_flips_.fetch_add(flips, std::memory_order_relaxed);

  std::vector<ScoredPath> scored;
  scored.reserve(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    scored.push_back({std::move(paths[i]), static_cast<double>(scores[i])});
  }
  // Determinism note: exact float scores make ties sort identically for
  // identical inputs, so the order is reproducible despite std::sort
  // being unstable.
  std::sort(scored.begin(), scored.end(),
            [](const ScoredPath& a, const ScoredPath& b) {
              return a.score > b.score;
            });
  return scored;
}

}  // namespace pathrank::serving
