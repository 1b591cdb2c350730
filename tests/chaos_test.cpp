// Deadline propagation, cooperative cancellation, and chaos-tested
// graceful degradation:
//
//   * Deadline/CancelToken unit semantics (sticky latch, parent
//     chaining, deterministic TripAfterChecks).
//   * The planner's degradation contract, driven DETERMINISTICALLY by
//     tripping the token after an exact number of checkpoints — every
//     possible cut point yields ok, degraded-partial, or
//     deadline_exceeded; nothing else, and partial sets never poison
//     the answer cache.
//   * Deadline-free plans are bitwise identical with and without the
//     cancellation plumbing armed.
//   * FaultInjector spec parsing + deterministic firing.
//   * HTTP-level: an injected stall between deadline anchoring and
//     Plan() consumes the budget, so a small X-Deadline-Ms / budget_ms
//     deterministically answers 504 with the deadline_exceeded slug.
//   * A chaos hammer over the served stack with injected stalls and
//     errors plus concurrent hot swaps: every request completes with an
//     expected status, the server never hangs, and admission slots never
//     leak.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "core/model.h"
#include "graph/network_builder.h"
#include "serving/fault_injector.h"
#include "serving/http_server.h"
#include "serving/json.h"
#include "serving/model_snapshot.h"
#include "serving/route_planner.h"
#include "serving/serving_engine.h"
#include "support/http_client.h"

namespace pathrank::serving {
namespace {

core::PathRankConfig SmallConfig() {
  core::PathRankConfig cfg;
  cfg.embedding_dim = 8;
  cfg.hidden_size = 12;
  cfg.seed = 3;
  return cfg;
}

// ---- Deadline / CancelToken unit semantics -----------------------------

TEST(Deadline, UnboundedNeverExpiresAndZeroBudgetAlreadyHas) {
  const Deadline unbounded;
  EXPECT_FALSE(unbounded.bounded());
  EXPECT_FALSE(unbounded.Expired());
  EXPECT_EQ(unbounded.Remaining(), std::chrono::microseconds::max());

  const Deadline spent = Deadline::After(std::chrono::microseconds(0));
  EXPECT_TRUE(spent.bounded());
  EXPECT_TRUE(spent.Expired());
  EXPECT_EQ(spent.Remaining(), std::chrono::microseconds::zero());

  EXPECT_FALSE(Deadline::AfterMs(60'000).Expired());
}

TEST(CancelToken, CancelIsStickyAndParentPropagates) {
  const CancelToken parent;
  const CancelToken child(Deadline{}, &parent);
  EXPECT_FALSE(child.Expired());
  parent.Cancel();
  EXPECT_TRUE(child.Expired());
  EXPECT_TRUE(child.Expired());  // sticky: never un-expires
}

TEST(CancelToken, TripAfterChecksFiresOnTheExactCall) {
  CancelToken token;
  token.TripAfterChecks(3);
  EXPECT_FALSE(token.Expired());  // check 0
  EXPECT_FALSE(token.Expired());  // check 1
  EXPECT_FALSE(token.Expired());  // check 2
  EXPECT_TRUE(token.Expired());   // check 3 trips the latch
  EXPECT_TRUE(token.Expired());
}

// ---- Planner degradation, deterministically ----------------------------

struct PlannerFixture {
  graph::RoadNetwork network = graph::BuildTestNetwork();
  core::PathRankModel model;
  ServingEngine engine;

  explicit PlannerFixture()
      : model(network.num_vertices(), SmallConfig()),
        engine(network, model) {}

  std::unique_ptr<RoutePlanner> MakePlanner(size_t cache_capacity) const {
    RoutePlannerConfig config;
    config.network = &network;
    config.cache_capacity = cache_capacity;
    return std::make_unique<RoutePlanner>(
        config, [this](std::vector<routing::Path> paths) {
          return engine.ScoreBatch(paths);
        });
  }
};

/// Sweeps the cancellation cut point across the whole enumeration: for
/// every trip-after-n-checks the outcome must be one of the three legal
/// shapes, and each shape must actually occur somewhere in the sweep —
/// an n too small to find a path 504s, a mid-range n degrades, a large
/// n finishes clean. No clocks involved: the sweep is exact and
/// repeatable down to the iteration.
TEST(PlannerDegradation, EveryCancellationCutPointYieldsALegalOutcome) {
  const PlannerFixture fx;
  const auto planner = fx.MakePlanner(/*cache_capacity=*/0);
  const auto reference = fx.MakePlanner(/*cache_capacity=*/0);
  const RouteResult full = reference->Plan({0, 63, /*k=*/8});
  ASSERT_EQ(full.status, RouteStatus::kOk);
  ASSERT_FALSE(full.degraded);
  const size_t full_size = full.ranked.size();
  ASSERT_GT(full_size, 1u);

  int exceeded = 0, degraded = 0, clean = 0;
  for (uint64_t n = 0; n < 400; ++n) {
    CancelToken trip;
    trip.TripAfterChecks(n);
    RouteRequest request{0, 63, /*k=*/8};
    request.cancel = &trip;
    const RouteResult result = planner->Plan(request);
    switch (result.status) {
      case RouteStatus::kDeadlineExceeded:
        ++exceeded;
        EXPECT_TRUE(result.ranked.empty());
        EXPECT_FALSE(result.degraded);
        break;
      case RouteStatus::kOk:
        ASSERT_FALSE(result.ranked.empty());
        if (result.degraded) {
          ++degraded;
          EXPECT_LE(result.ranked.size(), full_size);
        } else {
          ++clean;
          // An uncancelled run must be THE full answer, score for score.
          ASSERT_EQ(result.ranked.size(), full_size);
          for (size_t i = 0; i < full_size; ++i) {
            EXPECT_EQ(result.ranked[i].score, full.ranked[i].score);
          }
        }
        break;
      default:
        FAIL() << "unexpected status "
               << RouteStatusSlug(result.status) << " at n=" << n;
    }
  }
  // The sweep must traverse all three regimes, or it proves nothing.
  EXPECT_GT(exceeded, 0) << "no cut point hit the 504 path";
  EXPECT_GT(degraded, 0) << "no cut point hit the degraded path";
  EXPECT_GT(clean, 0) << "no cut point let the query finish";
  EXPECT_EQ(planner->deadline_exceeded_count(), static_cast<uint64_t>(exceeded));
  EXPECT_EQ(planner->degraded_count(), static_cast<uint64_t>(degraded));
}

TEST(PlannerDegradation, PartialResultsNeverPoisonTheCache) {
  const PlannerFixture fx;
  const auto planner = fx.MakePlanner(/*cache_capacity=*/64);

  // Trip almost immediately: out of budget before the first candidate.
  {
    CancelToken trip;
    trip.TripAfterChecks(0);
    RouteRequest request{0, 63, /*k=*/8};
    request.cancel = &trip;
    EXPECT_EQ(planner->Plan(request).status, RouteStatus::kDeadlineExceeded);
  }
  // Trip mid-enumeration: degraded partial set.
  bool saw_degraded = false;
  for (uint64_t n = 1; n < 200 && !saw_degraded; ++n) {
    CancelToken trip;
    trip.TripAfterChecks(n);
    RouteRequest request{0, 63, /*k=*/8};
    request.cancel = &trip;
    const RouteResult result = planner->Plan(request);
    saw_degraded = result.degraded;
  }
  ASSERT_TRUE(saw_degraded);

  // Neither outcome may have seeded the cache: the next unhurried query
  // must MISS, re-enumerate, and return the full set.
  EXPECT_EQ(planner->cache_size(), 0u);
  const RouteResult fresh = planner->Plan({0, 63, /*k=*/8});
  EXPECT_EQ(fresh.status, RouteStatus::kOk);
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_FALSE(fresh.degraded);
  // And THAT one is cached like any clean miss.
  const RouteResult hit = planner->Plan({0, 63, /*k=*/8});
  EXPECT_TRUE(hit.cache_hit);
  ASSERT_EQ(hit.ranked.size(), fresh.ranked.size());
  for (size_t i = 0; i < hit.ranked.size(); ++i) {
    EXPECT_EQ(hit.ranked[i].score, fresh.ranked[i].score);
  }
}

TEST(PlannerDeadline, GenerousDeadlineIsBitwiseIdenticalToNoDeadline) {
  const PlannerFixture fx;
  const auto planner = fx.MakePlanner(/*cache_capacity=*/0);
  const RouteResult bare = planner->Plan({7, 56, /*k=*/6});
  RouteRequest with_deadline{7, 56, /*k=*/6};
  with_deadline.deadline = Deadline::AfterMs(600'000);  // will not expire
  const RouteResult guarded = planner->Plan(with_deadline);
  // Arming the cancellable path must not perturb a single bit of the
  // answer — the checkpoints only READ the token.
  ASSERT_EQ(bare.status, RouteStatus::kOk);
  ASSERT_EQ(guarded.status, RouteStatus::kOk);
  EXPECT_FALSE(guarded.degraded);
  ASSERT_EQ(bare.ranked.size(), guarded.ranked.size());
  for (size_t i = 0; i < bare.ranked.size(); ++i) {
    EXPECT_EQ(bare.ranked[i].score, guarded.ranked[i].score);
    EXPECT_EQ(bare.ranked[i].path.vertices, guarded.ranked[i].path.vertices);
  }
}

TEST(PlannerDeadline, AlreadyExpiredBudgetIs504NotUnreachable) {
  const PlannerFixture fx;
  const auto planner = fx.MakePlanner(/*cache_capacity=*/64);
  RouteRequest request{0, 63, /*k=*/8};
  request.deadline = Deadline::After(std::chrono::microseconds(0));
  const RouteResult result = planner->Plan(request);
  EXPECT_EQ(result.status, RouteStatus::kDeadlineExceeded);
  EXPECT_TRUE(result.ranked.empty());
  EXPECT_EQ(planner->deadline_exceeded_count(), 1u);
  // The poisoning rule again: the pair is NOT "unreachable" now.
  const RouteResult retry = planner->Plan({0, 63, /*k=*/8});
  EXPECT_EQ(retry.status, RouteStatus::kOk);
  EXPECT_FALSE(retry.cache_hit);
}

// ---- FaultInjector -----------------------------------------------------

TEST(FaultInjector, ParsesTheGrammarAndRejectsJunk) {
  EXPECT_NE(FaultInjector::Parse("", 1), nullptr);
  const auto plan =
      FaultInjector::Parse("route:delay_ms=5;score:error:p=0.5", 1);
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->enabled());

  EXPECT_THROW(FaultInjector::Parse("route", 1), FaultSpecError);
  EXPECT_THROW(FaultInjector::Parse("route:delay_ms=x", 1), FaultSpecError);
  EXPECT_THROW(FaultInjector::Parse("route:p=1.5:error", 1), FaultSpecError);
  EXPECT_THROW(FaultInjector::Parse("route:frobnicate", 1), FaultSpecError);
  EXPECT_THROW(FaultInjector::Parse(";route:error", 1), FaultSpecError);
  EXPECT_THROW(FaultInjector::Parse("a:error;a:error", 1), FaultSpecError);
}

TEST(FaultInjector, MalformedSpecsThrowWithFieldDiagnostics) {
  // Each malformed grammar must throw — never parse to a silently
  // fault-free plan — and the message must name the rule and the
  // offending token in the common/parse "<field> expects ..., got
  // '<token>'" convention.
  const auto message_of = [](const std::string& spec) -> std::string {
    try {
      FaultInjector::Parse(spec, 1);
    } catch (const FaultSpecError& e) {
      return e.what();
    }
    return "";  // no throw: every EXPECT below fails loudly
  };

  // Missing fields: "site:" splits into an empty (unknown) field.
  EXPECT_NE(message_of("route:").find("unknown field ''"),
            std::string::npos);
  // Missing value after the key.
  EXPECT_NE(message_of("route:delay_ms=")
                .find("delay_ms expects a non-negative integer, got ''"),
            std::string::npos);
  // Junk probability.
  EXPECT_NE(message_of("route:error:p=fast")
                .find("p expects a number in [0,1], got 'fast'"),
            std::string::npos);
  EXPECT_NE(message_of("route:error:p=0..5").find("p expects"),
            std::string::npos);
  // Overflow: past INT64_MAX must throw, not truncate or wrap.
  EXPECT_NE(message_of("route:delay_ms=99999999999999999999")
                .find("delay_ms expects a non-negative integer"),
            std::string::npos);
  // Negative delay (whole-token parse accepts the sign; range does not).
  EXPECT_NE(message_of("route:delay_ms=-5").find("delay_ms expects"),
            std::string::npos);
  // The rule index is 1-based and names the offending rule, not rule 1.
  EXPECT_NE(message_of("a:error;b:delay_ms=x").find("fault spec rule 2:"),
            std::string::npos);
}

TEST(FaultInjector, FiresDeterministicallyPerSeedAndOrdinal) {
  const auto run = [](uint64_t seed) {
    const auto plan = FaultInjector::Parse("s:error:p=0.5", seed);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      try {
        plan->Inject("s");
        fired.push_back(false);
      } catch (const FaultInjectedError&) {
        fired.push_back(true);
      }
    }
    return fired;
  };
  const auto a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a, b);  // same seed -> identical firing sequence
  EXPECT_NE(a, c);  // different seed -> different plan
  EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
  EXPECT_GT(std::count(a.begin(), a.end(), false), 0);
  // Unknown sites cost nothing and never fire.
  const auto plan = FaultInjector::Parse("s:error", 1);
  EXPECT_NO_THROW(plan->Inject("other"));
  EXPECT_EQ(plan->injected_errors(), 0u);
}

// ---- HTTP fixtures -----------------------------------------------------

/// HTTP server over a real model with optional fault injection, wired
/// exactly like `pathrank_cli serve`: faults wrap the seams BEFORE the
/// planner captures backend.score, and the "route" site fires between
/// deadline anchoring and Plan().
struct ChaosServerFixture {
  graph::RoadNetwork network = graph::BuildTestNetwork();
  core::PathRankModel model;
  ServingEngine engine;
  std::shared_ptr<FaultInjector> faults;
  std::unique_ptr<RoutePlanner> planner;
  std::unique_ptr<HttpServer> server;

  explicit ChaosServerFixture(const std::string& fault_spec = "",
                              uint64_t fault_seed = 1,
                              HttpServerOptions options = DefaultOptions())
      : model(network.num_vertices(), SmallConfig()),
        engine(network, model) {
    faults = FaultInjector::Parse(fault_spec, fault_seed);

    HttpBackend backend;
    backend.num_vertices = network.num_vertices();
    backend.score = [this](std::vector<routing::Path> paths) {
      return engine.ScoreBatch(paths);
    };
    backend.swap_count = [this] { return engine.swap_count(); };
    if (faults->enabled()) {
      backend.score = [this, inner = backend.score](
                          std::vector<routing::Path> paths) {
        faults->Inject("score");
        return inner(std::move(paths));
      };
    }

    RoutePlannerConfig route_config;
    route_config.network = &network;
    route_config.cache_capacity = 64;
    planner = std::make_unique<RoutePlanner>(route_config, backend.score);
    backend.route = [this](const RouteRequest& request) {
      if (faults->enabled()) faults->Inject("route");
      return planner->Plan(request);
    };

    server = std::make_unique<HttpServer>(std::move(backend), options);
    server->Start();
  }

  static HttpServerOptions DefaultOptions() {
    HttpServerOptions options;
    options.port = 0;
    options.num_threads = 6;
    options.max_inflight = 4;
    options.retry_after_s = 0;
    return options;
  }

  void Swap() { engine.SwapSnapshot(ModelSnapshot::Capture(model)); }
};

std::string RouteBody(graph::VertexId source, graph::VertexId destination,
                      int k = 0, int budget_ms = 0) {
  json::Object object;
  object["source"] = json::Value(static_cast<uint64_t>(source));
  object["destination"] = json::Value(static_cast<uint64_t>(destination));
  if (k > 0) object["k"] = json::Value(static_cast<uint64_t>(k));
  if (budget_ms > 0) {
    object["budget_ms"] = json::Value(static_cast<uint64_t>(budget_ms));
  }
  return json::Dump(json::Value(std::move(object)));
}

// ---- HTTP deadline semantics -------------------------------------------

TEST(HttpDeadline, InjectedStallBeforePlanConsumesTheBudget) {
  // The "route" fault site sits between the deadline anchor (HTTP
  // parse) and Plan(): a 60 ms stall against a 10 ms budget therefore
  // 504s deterministically — no race against real enumeration speed.
  ChaosServerFixture fx("route:delay_ms=60");
  HttpClient client;
  client.Connect(fx.server->port());

  const auto response =
      client.Request("POST", "/v1/route", RouteBody(0, 63, 4, /*budget_ms=*/10));
  EXPECT_EQ(response.status, 504) << response.body;
  EXPECT_NE(response.body.find("\"deadline_exceeded\""), std::string::npos)
      << response.body;

  // The counters saw it: server-level, /statsz, and per-endpoint.
  const auto statsz = json::Parse(client.Request("GET", "/statsz").body);
  ASSERT_TRUE(statsz);
  EXPECT_EQ(statsz->Find("deadline_exceeded_count")->number_value(), 1.0);
  EXPECT_EQ(statsz->Find("degraded_count")->number_value(), 0.0);
  const json::Value* route_stats =
      statsz->Find("endpoints")->Find("/v1/route");
  ASSERT_NE(route_stats, nullptr);
  EXPECT_EQ(route_stats->Find("timeouts")->number_value(), 1.0);
  EXPECT_EQ(fx.server->stats().deadline_exceeded_total, 1u);

  // Same request without a budget: the stall just makes it slower.
  EXPECT_EQ(client.Request("POST", "/v1/route", RouteBody(0, 63, 4)).status,
            200);
}

TEST(HttpDeadline, XDeadlineMsHeaderWorksAndBodyFieldWins) {
  ChaosServerFixture fx("route:delay_ms=60");
  // Raw request with the header (HttpClient emits fixed headers only).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string body = RouteBody(0, 63, 4);
  const std::string request =
      "POST /v1/route HTTP/1.1\r\nHost: t\r\nX-Deadline-Ms: 10\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[1024];
  while (response.find("\"deadline_exceeded\"") == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(response.substr(0, 12), "HTTP/1.1 504") << response;

  // budget_ms in the body overrides the header: a generous body budget
  // under a hostile header must succeed.
  HttpClient client;
  client.Connect(fx.server->port());
  const auto ok = client.Request("POST", "/v1/route",
                                 RouteBody(0, 63, 4, /*budget_ms=*/60'000));
  EXPECT_EQ(ok.status, 200) << ok.body;
}

TEST(HttpDeadline, DeadlineFreeBodyIsByteIdenticalAcrossFaultedServer) {
  // A server with injection armed (but a route delay only) must answer a
  // deadline-free query with the EXACT bytes of an unfaulted server —
  // the whole cancellation/fault seam is invisible until it fires.
  ChaosServerFixture clean;
  ChaosServerFixture faulted("route:delay_ms=5");
  HttpClient a, b;
  a.Connect(clean.server->port());
  b.Connect(faulted.server->port());
  const auto clean_body =
      a.Request("POST", "/v1/route", RouteBody(7, 56, 5)).body;
  const auto faulted_body =
      b.Request("POST", "/v1/route", RouteBody(7, 56, 5)).body;
  EXPECT_EQ(clean_body, faulted_body);
  EXPECT_EQ(clean_body.find("degraded"), std::string::npos);
}

TEST(HttpDeadline, MaxDeadlineMsCapsAndDefaultApplies) {
  // default_deadline_ms + a route stall: a client that sends NO budget
  // still gets the server-side default, and max_deadline_ms clamps an
  // extravagant client ask down to something the stall exhausts.
  HttpServerOptions options = ChaosServerFixture::DefaultOptions();
  options.default_deadline_ms = 10;
  options.max_deadline_ms = 15;
  ChaosServerFixture fx("route:delay_ms=60", 1, options);
  HttpClient client;
  client.Connect(fx.server->port());
  // No budget sent: server default (10 ms) < stall -> 504.
  EXPECT_EQ(client.Request("POST", "/v1/route", RouteBody(0, 63, 4)).status,
            504);
  // Client asks for 100 s: capped to 15 ms -> still 504.
  EXPECT_EQ(client.Request("POST", "/v1/route",
                           RouteBody(0, 63, 4, /*budget_ms=*/100'000))
                .status,
            504);
}

// ---- The chaos hammer --------------------------------------------------

/// Hammers one composition with stalls + errors + tight budgets while
/// snapshots hot-swap underneath. Every request must complete with an
/// explainable status, nothing may hang, and the server must come out
/// healthy with zero in-flight slots.
TEST(Chaos, ShedsDegradesOr504sButNeverHangs) {
  // score errors at p=0.25 -> 500s; route stalls at p=0.5 x 3 ms against
  // 8 ms budgets -> a mix of 504/degraded/ok; the same stalls on
  // budget-free /v1/route requests keep admission pressure on
  // (max_inflight 4).
  ChaosServerFixture fx("score:error:p=0.25;route:delay_ms=3:p=0.5",
                        /*fault_seed=*/7);

  std::atomic<bool> stop_swapping{false};
  std::thread swapper([&] {
    while (!stop_swapping.load()) {
      fx.Swap();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 30;
  std::atomic<int> unexpected{0};
  std::atomic<int> slow{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&fx, &unexpected, &slow, t] {
      HttpClient client;
      client.Connect(fx.server->port());
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const graph::VertexId s = static_cast<graph::VertexId>((t * 7 + i) % 63);
        const graph::VertexId d = static_cast<graph::VertexId>(63 - s % 8);
        const auto started = std::chrono::steady_clock::now();
        int status = 0;
        try {
          if (i % 3 == 0) {
            status = client
                         .Request("POST", "/v1/route",
                                  RouteBody(s, d == s ? (s + 1) % 64 : d, 4,
                                            /*budget_ms=*/8))
                         .status;
          } else if (i % 3 == 1) {
            status = client
                         .Request("POST", "/v1/route",
                                  RouteBody(s, d == s ? (s + 1) % 64 : d))
                         .status;
          } else {
            status = client.Request("GET", "/healthz").status;
          }
        } catch (const std::exception&) {
          // Transport failure (server closed on us): reconnect and go
          // on — the assertion is about hangs and leaks, not about
          // every connection surviving.
          try {
            client.Connect(fx.server->port());
          } catch (const std::exception&) {
          }
          continue;
        }
        const auto elapsed = std::chrono::steady_clock::now() - started;
        // "Never hangs": every answer lands in bounded time. The bound
        // is generous (scheduler noise, sanitizers) but finite — orders
        // of magnitude below the idle/request timeouts.
        if (elapsed > std::chrono::seconds(5)) slow.fetch_add(1);
        switch (status) {
          case 200:   // served (possibly degraded)
          case 429:   // shed by admission control
          case 500:   // injected backend error
          case 504:   // budget exhausted before the first candidate
            break;
          default:
            unexpected.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  stop_swapping.store(true);
  swapper.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(slow.load(), 0);

  // The server survives the assault: healthy, no leaked admission
  // slots, no stuck waiters.
  HttpClient prober;
  prober.Connect(fx.server->port());
  EXPECT_EQ(prober.Request("GET", "/healthz").status, 200);
  const auto stats = fx.server->stats();
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.admission_waiting, 0u);
  // And a clean stop: no in-flight request pins the join.
  fx.server->Stop();
}

}  // namespace
}  // namespace pathrank::serving
