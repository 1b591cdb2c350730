// The global lock-order hierarchy, and the debug runtime checker that
// enforces it.
//
// Clang's thread-safety analysis (common/thread_annotations.h) proves
// WHERE a lock is held; nothing in that proof constrains the ORDER two
// locks nest in, so an ABBA deadlock between, say, the graph store's
// rebuild lock and the route planner's cache lock would compile clean
// and only hang when a test happens to interleave it. This header is the
// single source of truth for the order: every common::Mutex in src/ is
// constructed with one of the ranks below, and a thread may only acquire
// a ranked mutex whose rank is STRICTLY GREATER than every ranked mutex
// it already holds. Rank increases inward: outermost locks (taken first,
// held longest) have the smallest ranks, leaf locks that may be taken
// under anything (the stderr logging mutex) have the largest.
//
// Three independent enforcement layers (docs/static_analysis.md):
//   1. static   — ACQUIRED_BEFORE / ACQUIRED_AFTER annotations on mutex
//                 members express the within-class slices of this table;
//                 clang's analysis (-Wthread-safety-beta, on in the CI
//                 static-analysis job) rejects out-of-order acquisition
//                 at build time.
//   2. runtime  — builds with -DPATHRANK_DEBUG_LOCK_RANK=ON compile the
//                 checker below into Mutex::lock(): each thread keeps a
//                 stack of held ranked locks, and acquiring out of order
//                 aborts immediately with both locks' names and the full
//                 held stack — deterministically, on the first wrong
//                 nesting, not only on the unlucky interleaving.
//   3. dynamic  — the TSan CI job runs with detect_deadlocks=1, which
//                 reports lock-order inversions between ANY mutexes
//                 (ranked or not) that actually occur during the tests.
//
// Picking a rank for a new mutex: find every lock that can be held when
// yours is acquired (callers' locks) and every lock code under yours can
// acquire (callees' locks — remember logging), then pick a rank strictly
// between them. The table leaves gaps of 10 for exactly this. Two
// mutexes may share a rank ONLY when no thread ever holds both at once
// (the per-replica scoring locks do this; a caller holds exactly one).
// When off (the default), the checker costs nothing: Mutex carries no
// extra state and lock()/unlock() compile to the bare std::mutex calls.
#pragma once

#include <cstddef>

namespace pathrank::common {

/// The rank registry: one named slot per mutex (or per interchangeable
/// family) in src/, in acquisition order. Outermost first; a thread's
/// held ranks must be strictly increasing. See docs/static_analysis.md
/// ("Lock hierarchy") for the prose version of every entry.
struct LockRank {
  // -- serving front end (HttpServer) -----------------------------------
  /// HttpServer::stop_mu_ — serialises Stop() callers; held across the
  /// connection and admission locks while shutting down.
  static constexpr int kHttpStop = 10;
  /// HttpServer::conn_mu_ — connection queue + active-fd set.
  static constexpr int kHttpConn = 20;
  /// HttpServer::admit_mu_ — admission budget (inflight / waiting).
  static constexpr int kHttpAdmit = 30;

  // -- live graph (GraphStore) ------------------------------------------
  /// GraphStore::rebuild_mu_ — writer serialisation; held across the
  /// whole validate + copy-on-write rebuild + publish sequence.
  static constexpr int kGraphRebuild = 40;
  /// GraphStore::mu_ — the served (snapshot, artifact) slot; taken under
  /// rebuild_mu_ by Publish, alone by every reader.
  static constexpr int kGraphStore = 50;

  // -- route planner -----------------------------------------------------
  /// RoutePlanner::flight_mu_ — the single-flight table.
  static constexpr int kRouteFlightTable = 60;
  /// RoutePlanner::Flight::mu — one in-progress enumeration's state. A
  /// thread holds at most one flight's lock at a time.
  static constexpr int kRouteFlight = 70;
  /// RoutePlanner::cache_mu_ — the LRU answer cache.
  static constexpr int kRouteCache = 80;

  // -- model serving -----------------------------------------------------
  /// ServingEngine::snapshot_mu_ — the served-snapshot slot.
  static constexpr int kEngineSnapshot = 100;
  /// ServingEngine::ScoreMemo::mu_ — one snapshot's score memo. Never
  /// held with engine.snapshot or a replica lock: ScoreBatch looks up,
  /// releases, scores, then inserts.
  static constexpr int kEngineScoreMemo = 110;

  // -- leaves ------------------------------------------------------------
  /// ServingEngine round-robin Replica::mu — per-caller scoring scratch.
  /// A caller holds exactly one replica, so all replicas share this rank.
  /// The inference under it runs serially on the caller's thread.
  static constexpr int kEngineReplica = 150;
  /// HttpServer::Endpoint::mu — per-endpoint latency/error counters.
  static constexpr int kHttpEndpointStats = 160;
  /// logging's StderrMutex — serialises emission to stderr. The absolute
  /// innermost lock: any code path may log while holding anything.
  static constexpr int kStderrLog = 170;
};

/// Hierarchy name for a registry rank above ("http.stop", "engine.replica",
/// ...); "unranked" for 0 and anything not in the table. For logs, tests
/// and the checker's abort message.
const char* LockRankName(int rank);

/// True in builds compiled with -DPATHRANK_DEBUG_LOCK_RANK=ON (tests use
/// this to skip the death fixture instead of failing it).
constexpr bool LockRankCheckingEnabled() {
#if defined(PATHRANK_DEBUG_LOCK_RANK)
  return true;
#else
  return false;
#endif
}

#if defined(PATHRANK_DEBUG_LOCK_RANK)
/// Records `rank` as acquired on this thread, after verifying it is
/// strictly greater than every ranked lock already held; on violation,
/// prints the acquiring lock and the full held stack (names + ranks) to
/// stderr and aborts. Rank 0 (unranked) is invisible to the checker.
void LockRankOnAcquire(int rank, const char* name);

/// Records a SUCCESSFUL try_lock. No order check: an out-of-order
/// try_lock cannot deadlock (it would just fail), but the lock must
/// still be on the stack so later blocking acquisitions are checked
/// against it.
void LockRankOnTryAcquire(int rank, const char* name);

/// Removes `rank`/`name` from this thread's held stack (wherever it
/// sits — manual lock()/unlock() pairs need not be LIFO).
void LockRankOnRelease(int rank, const char* name) noexcept;

/// Ranked locks the calling thread currently holds (test hook).
size_t LockRankHeldCount() noexcept;
#else
inline size_t LockRankHeldCount() noexcept { return 0; }
#endif

}  // namespace pathrank::common
