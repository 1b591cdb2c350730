#include "common/lock_rank.h"

#include <cstdio>
#include <cstdlib>

namespace pathrank::common {

const char* LockRankName(int rank) {
  switch (rank) {
    case LockRank::kHttpStop: return "http.stop";
    case LockRank::kHttpConn: return "http.conn";
    case LockRank::kHttpAdmit: return "http.admit";
    case LockRank::kGraphRebuild: return "graph.rebuild";
    case LockRank::kGraphStore: return "graph.store";
    case LockRank::kRouteCache: return "planner.cache";
    case LockRank::kEngineSnapshot: return "engine.snapshot";
    case LockRank::kEngineScoreMemo: return "engine.score_memo";
    case LockRank::kHttpEndpointStats: return "http.endpoint_stats";
    case LockRank::kStderrLog: return "log.stderr";
    default: return "unranked";
  }
}

#if defined(PATHRANK_DEBUG_LOCK_RANK)

namespace {

/// One held ranked lock. `name` is the construction-site literal (static
/// storage — Mutex keeps only the pointer), never owned here.
struct HeldLock {
  int rank = 0;
  const char* name = nullptr;
};

/// Deeper than any legitimate acquisition chain in this tree (the
/// longest real one is four deep); hitting the cap is itself a bug.
constexpr size_t kMaxHeldLocks = 32;

thread_local HeldLock t_held[kMaxHeldLocks];
thread_local size_t t_depth = 0;

/// Prints the acquiring lock plus the whole held stack, then aborts.
/// Raw fprintf on purpose: logging itself takes a ranked mutex, and the
/// process is about to die — no layering underneath us can be trusted.
[[noreturn]] void FailInversion(int rank, const char* name,
                                const char* why) {
  std::fprintf(stderr,
               "pathrank lock-rank violation: %s \"%s\" (rank %d); held "
               "locks, outermost first:\n",
               why, name != nullptr ? name : "?", rank);
  for (size_t i = 0; i < t_depth; ++i) {
    std::fprintf(stderr, "  \"%s\" (rank %d)\n",
                 t_held[i].name != nullptr ? t_held[i].name : "?",
                 t_held[i].rank);
  }
  std::fprintf(stderr,
               "lock ranks must strictly increase along every "
               "acquisition chain; see src/common/lock_rank.h and "
               "docs/static_analysis.md#lock-hierarchy\n");
  std::fflush(stderr);
  std::abort();
}

void Push(int rank, const char* name) {
  if (t_depth == kMaxHeldLocks) {
    FailInversion(rank, name, "held-lock stack overflow acquiring");
  }
  t_held[t_depth].rank = rank;
  t_held[t_depth].name = name;
  ++t_depth;
}

}  // namespace

void LockRankOnAcquire(int rank, const char* name) {
  if (rank == 0) return;
  // Compare against the MAXIMUM held rank, not the top of stack: a
  // successful out-of-order try_lock (allowed — it cannot deadlock) may
  // have pushed a lower rank on top.
  int max_held = 0;
  for (size_t i = 0; i < t_depth; ++i) {
    if (t_held[i].rank > max_held) max_held = t_held[i].rank;
  }
  if (rank <= max_held) {
    FailInversion(rank, name, "acquiring");
  }
  Push(rank, name);
}

void LockRankOnTryAcquire(int rank, const char* name) {
  if (rank == 0) return;
  Push(rank, name);
}

void LockRankOnRelease(int rank, const char* name) noexcept {
  if (rank == 0) return;
  // Search from the top: manual lock()/unlock() pairs may release out of
  // LIFO order, and two same-rank locks are told apart by name pointer.
  for (size_t i = t_depth; i > 0; --i) {
    if (t_held[i - 1].rank == rank && t_held[i - 1].name == name) {
      for (size_t j = i - 1; j + 1 < t_depth; ++j) {
        t_held[j] = t_held[j + 1];
      }
      --t_depth;
      return;
    }
  }
  // Releasing a lock that was never recorded: tolerated (a Mutex built
  // before the checker was compiled in cannot occur — same binary — so
  // this only happens for rank-0, already returned above).
}

size_t LockRankHeldCount() noexcept { return t_depth; }

#endif  // PATHRANK_DEBUG_LOCK_RANK

}  // namespace pathrank::common
