// HttpServer: loopback round-trips bitwise equal to the in-process
// ServingEngine path (the serialization layer must never round a score),
// request-head parsing without a socket (ParseRequestHead), protocol
// errors (malformed JSON / oversized body / unknown route / wrong method
// -> 4xx), concurrent clients, the admission-control shed path (429 +
// Retry-After when max_inflight is saturated), /healthz flipping across
// SwapSnapshot, /statsz counters, and the JSON codec's double fidelity
// the round-trip guarantee rests on.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/model.h"
#include "data/candidate_generation.h"
#include "graph/network_builder.h"
#include "serving/graph_store.h"
#include "serving/http_request.h"
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

/// Test server over a real ServingEngine and a RoutePlanner pinned to
/// the test grid, on the loopback.
struct ServerFixture {
  graph::RoadNetwork network = graph::BuildTestNetwork();
  core::PathRankModel model;  // initialised after network (member order)
  ServingEngine engine;
  RoutePlanner planner;
  HttpServer server;

  static HttpServerOptions Options() {
    HttpServerOptions options;
    options.port = 0;  // ephemeral
    options.num_threads = 4;
    options.max_inflight = 16;
    return options;
  }

  static RoutePlannerConfig PlannerConfig(const graph::RoadNetwork& network) {
    RoutePlannerConfig config;
    config.network = &network;
    return config;
  }

  HttpBackend Backend() {
    HttpBackend backend;
    backend.score = [this](std::vector<routing::Path> paths) {
      return engine.ScoreBatch(paths);
    };
    backend.route = [this](const RouteRequest& request) {
      return planner.Plan(request);
    };
    backend.swap_count = [this] { return engine.swap_count(); };
    backend.num_vertices = network.num_vertices();
    return backend;
  }

  /// Caller-supplied options — the adversarial connection tests need
  /// short idle/request timeouts.
  explicit ServerFixture(const HttpServerOptions& options = Options())
      : model(network.num_vertices(), SmallConfig()),
        engine(network, model),
        planner(PlannerConfig(network),
                [this](std::vector<routing::Path> paths) {
                  return engine.ScoreBatch(paths);
                }),
        server(Backend(), options) {
    server.Start();
  }
};

std::string RouteBody(graph::VertexId source, graph::VertexId destination) {
  json::Object object;
  object["source"] = json::Value(static_cast<uint64_t>(source));
  object["destination"] = json::Value(static_cast<uint64_t>(destination));
  return json::Dump(json::Value(std::move(object)));
}

/// Decodes a response body's ranked list — "candidates" for /v1/score,
/// "routes" for /v1/route — into (score, vertices) rows.
struct WireCandidate {
  double score = 0.0;
  std::vector<graph::VertexId> vertices;
};

std::vector<WireCandidate> ParseCandidates(const std::string& body,
                                           const char* key = "candidates") {
  std::string error;
  const auto parsed = json::Parse(body, &error);
  EXPECT_TRUE(parsed) << error << " in body: " << body;
  std::vector<WireCandidate> out;
  if (!parsed) return out;
  const json::Value* candidates = parsed->Find(key);
  EXPECT_TRUE(candidates != nullptr && candidates->is_array()) << body;
  if (candidates == nullptr || !candidates->is_array()) return out;
  for (const auto& entry : candidates->array()) {
    WireCandidate candidate;
    const json::Value* score = entry.Find("score");
    EXPECT_TRUE(score != nullptr && score->is_number());
    if (score) candidate.score = score->number_value();
    const json::Value* vertices = entry.Find("vertices");
    EXPECT_TRUE(vertices != nullptr && vertices->is_array());
    if (vertices) {
      for (const auto& v : vertices->array()) {
        candidate.vertices.push_back(
            static_cast<graph::VertexId>(v.number_value()));
      }
    }
    out.push_back(std::move(candidate));
  }
  return out;
}

void ExpectMatchesRanking(const std::vector<ScoredPath>& expected,
                          const std::vector<WireCandidate>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    // EXPECT_EQ on doubles: BITWISE equality, the serving stack's
    // headline guarantee carried over the wire by shortest-round-trip
    // (std::to_chars) serialization.
    EXPECT_EQ(expected[i].score, actual[i].score) << "rank " << i;
    EXPECT_EQ(expected[i].path.vertices, actual[i].vertices) << "rank " << i;
  }
}

TEST(HttpServerOptions, OutOfRangeOptionsThrowNamingTheField) {
  HttpBackend backend;
  backend.score = [](std::vector<routing::Path>) {
    return std::vector<ScoredPath>{};
  };
  const auto message_for = [&backend](const HttpServerOptions& options) {
    try {
      HttpServer server(backend, options);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  HttpServerOptions options;
  options.max_inflight = 0;
  EXPECT_NE(message_for(options).find("max_inflight"), std::string::npos);
  options = HttpServerOptions{};
  options.idle_timeout_s = 0;
  EXPECT_NE(message_for(options).find("idle_timeout_s"), std::string::npos);
  options = HttpServerOptions{};
  options.request_deadline_s = -1;
  EXPECT_NE(message_for(options).find("request_deadline_s"),
            std::string::npos);
  // num_threads 0 is the automatic sizing, not an error.
  options = HttpServerOptions{};
  options.num_threads = 0;
  EXPECT_EQ(message_for(options), "no throw");
}

TEST(HttpRoute, RoundTripBitwiseEqualToInProcessPlanner) {
  ServerFixture fx;
  HttpClient client;
  client.Connect(fx.server.port());

  const std::vector<RouteRequest> queries = {{0, 63}, {7, 56}, {21, 42}};
  for (const auto& query : queries) {
    const auto route = client.Request(
        "POST", "/v1/route", RouteBody(query.source, query.destination));
    ASSERT_EQ(route.status, 200) << route.body;
    ExpectMatchesRanking(fx.planner.Plan(query).ranked,
                         ParseCandidates(route.body, "routes"));
  }
}

TEST(HttpScore, RoundTripBitwiseEqualToInProcessScoreBatch) {
  ServerFixture fx;
  data::CandidateGenConfig gen;
  gen.k = 5;
  const auto paths = data::GenerateCandidatePaths(fx.network, 0, 63, gen);
  ASSERT_FALSE(paths.empty());

  json::Array path_array;
  for (const auto& path : paths) {
    json::Array vertices;
    for (const auto v : path.vertices) {
      vertices.emplace_back(static_cast<uint64_t>(v));
    }
    path_array.emplace_back(std::move(vertices));
  }
  json::Object object;
  object["paths"] = json::Value(std::move(path_array));

  HttpClient client;
  client.Connect(fx.server.port());
  const auto response =
      client.Request("POST", "/v1/score", json::Dump(json::Value(object)));
  ASSERT_EQ(response.status, 200) << response.body;
  ExpectMatchesRanking(fx.engine.ScoreBatch(paths),
                       ParseCandidates(response.body));
}

// ---- Request-head parsing, without a socket ----------------------------

constexpr size_t kTestBodyLimit = 64;

RequestHead Parse(const std::string& bytes) {
  return ParseRequestHead(bytes, kTestBodyLimit);
}

TEST(HttpParse, RejectionsCarryTheirStatus) {
  const std::string post = "POST /v1/route HTTP/1.1\r\nHost: t\r\n";
  const struct {
    const char* name;
    std::string bytes;
    int status;
  } cases[] = {
      {"no target", "GET\r\n\r\n", 400},
      {"no version", "GET /healthz\r\n\r\n", 400},
      {"unknown version", "GET /healthz HTTP/2.0\r\n\r\n", 400},
      {"junk after version", "GET /healthz HTTP/1.1 x\r\n\r\n", 400},
      {"header without colon", post + "Accept\r\n\r\n", 400},
      {"empty header name", post + ": x\r\n\r\n", 400},
      {"space before colon", post + "Content-Length : 2\r\n\r\n", 400},
      {"tab before colon", post + "Content-Length\t: 2\r\n\r\n", 400},
      {"duplicate length",
       post + "Content-Length: 2\r\ncontent-length: 2\r\n\r\n", 400},
      {"chunked", post + "Transfer-Encoding: chunked\r\n\r\n", 400},
      {"identity", post + "Transfer-Encoding: identity\r\n\r\n", 400},
      {"empty transfer coding", post + "Transfer-Encoding:\r\n\r\n", 400},
      {"chunked beside a length",
       post + "Content-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n",
       400},
      {"negative length", post + "Content-Length: -1\r\n\r\n", 400},
      {"signed length", post + "Content-Length: +5\r\n\r\n", 400},
      {"non-digit length", post + "Content-Length: 5x\r\n\r\n", 400},
      {"empty length", post + "Content-Length:\r\n\r\n", 400},
      {"length past uint64",
       post + "Content-Length: 99999999999999999999\r\n\r\n", 400},
      {"body over the limit", post + "Content-Length: 65\r\n\r\n", 413},
      {"head over the limit", std::string(kMaxHeaderBytes + 1, 'a'), 431},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(Parse(c.bytes).status, c.status) << c.name;
  }
}

TEST(HttpParse, IncompleteHeadAsksForMoreBytes) {
  EXPECT_EQ(Parse("").status, kHeadIncomplete);
  EXPECT_EQ(Parse("GET /healthz HTTP/1.1\r\nHost: t\r\n").status,
            kHeadIncomplete);
  // At the cap it still waits; one byte past it is a 431.
  EXPECT_EQ(Parse(std::string(kMaxHeaderBytes, 'a')).status, kHeadIncomplete);
}

TEST(HttpParse, ParsesRequestLineHeadersAndLength) {
  const std::string head =
      "POST /v1/route HTTP/1.1\r\nHOST: t\r\nContent-Length:\t64 \r\n"
      "X-Deadline-Ms:  25\r\nExpect: 100-Continue\r\n\r\n";
  const RequestHead parsed = Parse(head + "body");
  ASSERT_EQ(parsed.status, 200);
  EXPECT_EQ(parsed.request.method, "POST");
  EXPECT_EQ(parsed.request.target, "/v1/route");
  EXPECT_EQ(parsed.request.Header("host"), "t");
  EXPECT_EQ(parsed.request.Header("x-deadline-ms"), "25");
  // A body exactly at the limit is accepted.
  EXPECT_EQ(parsed.request.content_length, kTestBodyLimit);
  EXPECT_EQ(parsed.body_offset, head.size());
  EXPECT_TRUE(parsed.request.body.empty());
  // The expectation token is case-insensitive.
  EXPECT_TRUE(parsed.request.expect_continue);
}

TEST(HttpParse, KeepAliveDefaultsFollowTheVersion) {
  const struct {
    const char* head;
    bool keep_alive;
  } cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", false},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", true},
  };
  for (const auto& c : cases) {
    const RequestHead parsed = Parse(c.head);
    ASSERT_EQ(parsed.status, 200) << c.head;
    EXPECT_EQ(parsed.request.keep_alive, c.keep_alive) << c.head;
    EXPECT_FALSE(parsed.request.expect_continue) << c.head;
  }
}

TEST(HttpParse, PipelinedSecondRequestStartsAfterTheFirstBody) {
  const std::string first =
      "POST /v1/score HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  const std::string second = "GET /healthz HTTP/1.1\r\n\r\n";
  const std::string bytes = first + second;
  const RequestHead one = Parse(bytes);
  ASSERT_EQ(one.status, 200);
  EXPECT_EQ(one.request.target, "/v1/score");
  EXPECT_EQ(bytes.substr(one.body_offset, one.request.content_length),
            "hello");
  const size_t next = one.body_offset + one.request.content_length;
  EXPECT_EQ(next, first.size());
  const RequestHead two = Parse(bytes.substr(next));
  ASSERT_EQ(two.status, 200);
  EXPECT_EQ(two.request.method, "GET");
  EXPECT_EQ(two.request.target, "/healthz");
  EXPECT_EQ(two.body_offset, second.size());
  EXPECT_EQ(two.request.content_length, 0u);
}

TEST(HttpProtocol, MalformedJsonIs400) {
  ServerFixture fx;
  HttpClient client;
  client.Connect(fx.server.port());
  EXPECT_EQ(client.Request("POST", "/v1/route", "{not json").status, 400);
  EXPECT_EQ(client.Request("POST", "/v1/route", "").status, 400);
  // Valid JSON, wrong shape.
  EXPECT_EQ(client.Request("POST", "/v1/route", "[1,2]").status, 400);
  EXPECT_EQ(client.Request("POST", "/v1/route",
                           "{\"source\": 0}").status, 400);
  // Out-of-range vertex id: would be an out-of-bounds embedding lookup.
  EXPECT_EQ(client.Request("POST", "/v1/route",
                           RouteBody(0, 1u << 30)).status, 400);
  // Beyond VertexId entirely: the cast itself would be UB if admitted.
  EXPECT_EQ(client.Request("POST", "/v1/route",
                           "{\"source\": 0, \"destination\": 1e18}").status,
            400);
  EXPECT_EQ(client.Request("POST", "/v1/route",
                           "{\"source\": -1, \"destination\": 1}").status,
            400);
  EXPECT_EQ(client.Request("POST", "/v1/score",
                           "{\"paths\": [[]]}").status, 400);
  // The connection survives all of that (keep-alive, no close).
  EXPECT_EQ(client.Request("GET", "/healthz").status, 200);
}

/// Sends raw bytes on a fresh connection and returns the full response
/// stream — for protocol tests HttpClient would refuse to produce.
std::string RawRequest(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// Request-smuggling vectors: a body framed two ways (Transfer-Encoding
// alongside Content-Length, or conflicting duplicate Content-Lengths)
// must be rejected outright, never framed by one of the candidates. A
// syntactically invalid Content-Length is 400, not an interpretation.
TEST(HttpProtocol, SmugglingShapedFramingIsRejected) {
  ServerFixture fx;
  EXPECT_EQ(RawRequest(fx.server.port(),
                       "POST /v1/route HTTP/1.1\r\nHost: t\r\n"
                       "Content-Length: 5\r\nTransfer-Encoding: chunked\r\n"
                       "\r\n0\r\n\r\n")
                .substr(0, 12),
            "HTTP/1.1 400");
  EXPECT_EQ(RawRequest(fx.server.port(),
                       "POST /v1/route HTTP/1.1\r\nHost: t\r\n"
                       "Content-Length: 5\r\nContent-Length: 50\r\n"
                       "\r\nhello")
                .substr(0, 12),
            "HTTP/1.1 400");
  EXPECT_EQ(RawRequest(fx.server.port(),
                       "POST /v1/route HTTP/1.1\r\nHost: t\r\n"
                       "Content-Length: -1\r\n\r\n")
                .substr(0, 12),
            "HTTP/1.1 400");
  EXPECT_EQ(RawRequest(fx.server.port(),
                       "POST /v1/route HTTP/1.1\r\nHost: t\r\n"
                       "Content-Length: +5\r\n\r\nhello")
                .substr(0, 12),
            "HTTP/1.1 400");
  // Whitespace before the colon would otherwise store the header under
  // "content-length " and frame the body as zero-length (desync).
  EXPECT_EQ(RawRequest(fx.server.port(),
                       "POST /v1/route HTTP/1.1\r\nHost: t\r\n"
                       "Content-Length : 31\r\n\r\n"
                       "{\"source\": 1, \"destination\": 2}")
                .substr(0, 12),
            "HTTP/1.1 400");
}

// X-Deadline-Ms has the bound of the budget_ms body field: a positive
// integer up to INT32_MAX. A budget near 10^13 ms would overflow the
// deadline's nanosecond count.
TEST(HttpProtocol, XDeadlineMsIsBoundedLikeBudgetMs) {
  ServerFixture fx;
  const std::string body = RouteBody(0, 63);
  const auto send = [&](const std::string& value) {
    return RawRequest(fx.server.port(),
                      "POST /v1/route HTTP/1.1\r\nHost: t\r\n"
                      "Connection: close\r\nX-Deadline-Ms: " +
                          value + "\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body);
  };
  for (const char* value : {"9999999999999", "2147483648", "0", "-5", "12x"}) {
    const std::string response = send(value);
    EXPECT_EQ(response.substr(0, 12), "HTTP/1.1 400") << value;
    EXPECT_NE(response.find("\"status\":\"bad_request\""), std::string::npos)
        << value << ": " << response;
  }
  EXPECT_EQ(send("2147483647").substr(0, 12), "HTTP/1.1 200");
}

TEST(HttpProtocol, OversizedBodyIs413) {
  ServerFixture fx;
  HttpClient client;
  client.Connect(fx.server.port());
  const std::string big(fx.server.options().max_body_bytes + 1, 'x');
  EXPECT_EQ(client.Request("POST", "/v1/route", big).status, 413);
}

TEST(HttpProtocol, UnknownRouteIs404AndWrongMethodIs405) {
  ServerFixture fx;
  HttpClient client;
  client.Connect(fx.server.port());
  EXPECT_EQ(client.Request("GET", "/nope").status, 404);
  EXPECT_EQ(client.Request("POST", "/v1/routez", RouteBody(0, 1)).status, 404);
  EXPECT_EQ(client.Request("GET", "/v1/route").status, 405);
  EXPECT_EQ(client.Request("POST", "/healthz").status, 405);
  // /v1/route is the one route endpoint: the former /v1/rank alias is an
  // unknown path like any other.
  const auto rank = client.Request("POST", "/v1/rank", RouteBody(0, 63));
  EXPECT_EQ(rank.status, 404);
  EXPECT_EQ(rank.body, "{\"error\":\"no such endpoint: /v1/rank\"}");
}

TEST(HttpConcurrency, ParallelClientsAllGetBitwiseCorrectAnswers) {
  ServerFixture fx;
  const std::vector<RouteRequest> queries = {{0, 63}, {7, 56}, {3, 60},
                                             {21, 42}, {14, 49}, {8, 55}};
  // Expected rankings computed in-process, once.
  std::vector<std::vector<ScoredPath>> expected;
  expected.reserve(queries.size());
  for (const auto& query : queries) {
    expected.push_back(fx.planner.Plan(query).ranked);
  }

  constexpr size_t kClients = 8;
  constexpr size_t kRequestsPerClient = 12;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client;
      client.Connect(fx.server.port());
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        const size_t q = (c + r) % queries.size();
        const auto response = client.Request(
            "POST", "/v1/route",
            RouteBody(queries[q].source, queries[q].destination));
        if (response.status != 200) {
          ++failures;
          continue;
        }
        const auto actual = ParseCandidates(response.body, "routes");
        if (actual.size() != expected[q].size()) {
          ++failures;
          continue;
        }
        for (size_t i = 0; i < actual.size(); ++i) {
          if (actual[i].score != expected[q][i].score ||
              actual[i].vertices != expected[q][i].path.vertices) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
}

/// Server over a backend whose route() parks every call until Release() —
/// the admission-state transitions become deterministic: a slot is
/// provably occupied while a request is parked.
struct BlockingServerFixture {
  graph::RoadNetwork network = graph::BuildTestNetwork();
  std::mutex mu;
  std::condition_variable cv;
  size_t entered = 0;
  bool released = false;
  HttpServer server;

  explicit BlockingServerFixture(const HttpServerOptions& options)
      : server(MakeBackend(), options) {
    server.Start();
  }

  HttpBackend MakeBackend() {
    HttpBackend backend;
    backend.num_vertices = network.num_vertices();
    backend.route = [this](const RouteRequest&) {
      std::unique_lock<std::mutex> lock(mu);
      ++entered;
      cv.notify_all();
      cv.wait(lock, [this] { return released; });
      return RouteResult{};
    };
    backend.score = [](std::vector<routing::Path>) {
      return std::vector<ScoredPath>{};
    };
    return backend;
  }

  /// Blocks until `count` route calls are parked inside the backend.
  void WaitEntered(size_t count) {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return entered >= count; }));
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }

  /// One request on its own connection, status only.
  std::future<int> AsyncRoute(graph::VertexId s, graph::VertexId d) {
    return std::async(std::launch::async, [this, s, d] {
      HttpClient client;
      client.Connect(server.port());
      return client.Request("POST", "/v1/route", RouteBody(s, d)).status;
    });
  }
};

TEST(HttpAdmission, SaturatedMaxInflightSheds429WithRetryAfter) {
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 4;
  options.max_inflight = 1;
  options.max_queue_wait_us = 0;  // shed immediately when saturated
  options.retry_after_s = 7;
  BlockingServerFixture fx(options);

  // Client A occupies the only slot...
  auto blocked = fx.AsyncRoute(0, 1);
  fx.WaitEntered(1);

  // ...so client B is shed with 429 + Retry-After.
  HttpClient prober;
  prober.Connect(fx.server.port());
  const auto shed = prober.Request("POST", "/v1/route", RouteBody(2, 3));
  EXPECT_EQ(shed.status, 429);
  EXPECT_EQ(shed.retry_after_s, 7);

  // /healthz and /statsz bypass admission: they answer during overload.
  EXPECT_EQ(prober.Request("GET", "/healthz").status, 200);
  const auto statsz = prober.Request("GET", "/statsz");
  EXPECT_EQ(statsz.status, 200);
  const auto stats = json::Parse(statsz.body);
  ASSERT_TRUE(stats);
  EXPECT_EQ(stats->Find("shed_total")->number_value(), 1.0);
  EXPECT_EQ(stats->Find("inflight")->number_value(), 1.0);

  fx.Release();
  EXPECT_EQ(blocked.get(), 200);

  // With the slot free again, the same endpoint admits.
  EXPECT_EQ(prober.Request("POST", "/v1/route", RouteBody(0, 1)).status, 200);
  EXPECT_EQ(fx.server.stats().shed_total, 1u);
}

TEST(HttpAdmission, TimedWaitAdmitsWhenSlotFreesWithinWindow) {
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 4;
  options.max_inflight = 1;
  options.max_queue_wait_us = 10'000'000;  // far longer than the test
  BlockingServerFixture fx(options);

  auto holder = fx.AsyncRoute(0, 1);
  fx.WaitEntered(1);

  // The second request queues for the slot instead of shedding.
  auto waiter = fx.AsyncRoute(2, 3);
  HttpClient prober;
  prober.Connect(fx.server.port());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  for (;;) {  // the waiter shows up in the admission queue depth
    const auto stats = fx.server.stats();
    if (stats.admission_waiting == 1) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "request never queued for admission";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_NE(waiter.wait_for(std::chrono::milliseconds(50)),
            std::future_status::ready);

  // Releasing the holder frees the slot; the waiter is admitted (200,
  // not 429) well before its wait window expires.
  fx.Release();
  EXPECT_EQ(holder.get(), 200);
  EXPECT_EQ(waiter.get(), 200);
  const auto stats = fx.server.stats();
  EXPECT_EQ(stats.shed_total, 0u);
  EXPECT_EQ(stats.admission_waiting, 0u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(HttpAdmission, TimedWaitShedsAfterWindowExpires) {
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 4;
  options.max_inflight = 1;
  options.max_queue_wait_us = 30'000;  // 30 ms window, never released
  BlockingServerFixture fx(options);

  auto holder = fx.AsyncRoute(0, 1);
  fx.WaitEntered(1);

  HttpClient prober;
  prober.Connect(fx.server.port());
  const auto shed = prober.Request("POST", "/v1/route", RouteBody(2, 3));
  EXPECT_EQ(shed.status, 429);

  fx.Release();
  EXPECT_EQ(holder.get(), 200);
  const auto stats = fx.server.stats();
  EXPECT_EQ(stats.shed_total, 1u);
  EXPECT_EQ(stats.admission_waiting, 0u);
}

// ---- Adversarial connections -------------------------------------------
//
// Misbehaving clients must cost the server a bounded amount of worker
// time and nothing else: no hang, no leaked slot, no crash.

/// Opens a raw connection without sending a full request.
int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Drains the connection until the server closes it; returns the bytes
/// received and asserts the close arrives within `limit`.
std::string DrainUntilClose(int fd, std::chrono::seconds limit) {
  const auto started = std::chrono::steady_clock::now();
  std::string received;
  char chunk[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // 0 = orderly close, <0 = reset/timeout
    received.append(chunk, static_cast<size_t>(n));
    EXPECT_LT(std::chrono::steady_clock::now() - started, limit)
        << "server kept the connection alive past the deadline";
  }
  EXPECT_LT(std::chrono::steady_clock::now() - started, limit);
  return received;
}

HttpServerOptions ShortTimeoutOptions() {
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 4;
  options.max_inflight = 16;
  options.idle_timeout_s = 1;
  options.request_deadline_s = 1;
  return options;
}

TEST(HttpAdversarial, SlowLorisPartialHeadersGetDisconnected) {
  ServerFixture fx(ShortTimeoutOptions());
  // Drip a request line and half a header, then go silent: the read
  // deadline must sever the connection instead of pinning a worker.
  const int fd = RawConnect(fx.server.port());
  const std::string drip = "POST /v1/route HTTP/1.1\r\nHost: t\r\nConte";
  ASSERT_EQ(::send(fd, drip.data(), drip.size(), 0),
            static_cast<ssize_t>(drip.size()));
  DrainUntilClose(fd, std::chrono::seconds(5));
  ::close(fd);
  // The worker pool survived the loris: a normal request still lands.
  HttpClient client;
  client.Connect(fx.server.port());
  EXPECT_EQ(client.Request("GET", "/healthz").status, 200);
  EXPECT_EQ(fx.server.stats().inflight, 0u);
}

TEST(HttpAdversarial, TruncatedContentLengthBodyGetsDisconnected) {
  ServerFixture fx(ShortTimeoutOptions());
  // Promise 100 bytes, deliver 5, never finish. The server must not
  // wait forever for the missing 95.
  const int fd = RawConnect(fx.server.port());
  const std::string lie =
      "POST /v1/route HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\nhello";
  ASSERT_EQ(::send(fd, lie.data(), lie.size(), 0),
            static_cast<ssize_t>(lie.size()));
  DrainUntilClose(fd, std::chrono::seconds(5));
  ::close(fd);
  HttpClient client;
  client.Connect(fx.server.port());
  EXPECT_EQ(client.Request("GET", "/healthz").status, 200);
  EXPECT_EQ(fx.server.stats().inflight, 0u);
}

TEST(HttpAdversarial, ClientDisconnectMidResponseDoesNotLeakASlot) {
  HttpServerOptions options = ShortTimeoutOptions();
  options.max_inflight = 1;  // a leaked slot would wedge the server
  BlockingServerFixture fx(options);
  // Park a request in the backend, then vanish before the response.
  const int fd = RawConnect(fx.server.port());
  const std::string body = RouteBody(0, 1);
  const std::string request =
      "POST /v1/route HTTP/1.1\r\nHost: t\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  fx.WaitEntered(1);
  ::close(fd);  // gone before the backend answers
  fx.Release();
  // The admission slot must come back even though the write will fail.
  const auto started = std::chrono::steady_clock::now();
  while (fx.server.stats().inflight != 0) {
    ASSERT_LT(std::chrono::steady_clock::now() - started,
              std::chrono::seconds(5))
        << "in-flight slot leaked after client disconnect";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // And the only slot is usable by the next client.
  HttpClient client;
  client.Connect(fx.server.port());
  EXPECT_EQ(client.Request("POST", "/v1/route", RouteBody(2, 3)).status, 200);
}

TEST(HttpHealth, HealthzFlipsAcrossSwapSnapshot) {
  ServerFixture fx;
  HttpClient client;
  client.Connect(fx.server.port());

  const auto before = json::Parse(client.Request("GET", "/healthz").body);
  ASSERT_TRUE(before);
  EXPECT_EQ(before->Find("status")->string_value(), "ok");
  EXPECT_EQ(before->Find("swap_count")->number_value(), 0.0);

  // Hot-swap the served model; the health endpoint must reflect it so an
  // external watcher can observe the rollout landing.
  core::PathRankModel next(fx.network.num_vertices(), SmallConfig());
  fx.engine.SwapSnapshot(ModelSnapshot::Capture(next));

  const auto after = json::Parse(client.Request("GET", "/healthz").body);
  ASSERT_TRUE(after);
  EXPECT_EQ(after->Find("status")->string_value(), "ok");
  EXPECT_EQ(after->Find("swap_count")->number_value(), 1.0);

  // And ranking still works on the new snapshot, bitwise.
  const auto response = client.Request("POST", "/v1/route", RouteBody(0, 63));
  ASSERT_EQ(response.status, 200);
  ExpectMatchesRanking(fx.planner.Plan({0, 63}).ranked,
                       ParseCandidates(response.body, "routes"));
}

TEST(HttpStats, StatszTracksPerEndpointLatency) {
  ServerFixture fx;
  HttpClient client;
  client.Connect(fx.server.port());
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(client.Request("POST", "/v1/route", RouteBody(0, 63)).status,
              200);
  }
  // A rejected request counts once, as a request and as an error.
  ASSERT_EQ(client.Request("POST", "/v1/route", "{not json").status, 400);
  const auto stats = json::Parse(client.Request("GET", "/statsz").body);
  ASSERT_TRUE(stats);
  const json::Value* endpoints = stats->Find("endpoints");
  ASSERT_TRUE(endpoints != nullptr);
  const json::Value* route = endpoints->Find("/v1/route");
  ASSERT_TRUE(route != nullptr);
  EXPECT_EQ(route->Find("requests")->number_value(), 4.0);
  EXPECT_EQ(route->Find("errors")->number_value(), 1.0);
  EXPECT_GT(route->Find("latency_p50_s")->number_value(), 0.0);
  EXPECT_GE(route->Find("latency_p99_s")->number_value(),
            route->Find("latency_p50_s")->number_value());
  EXPECT_EQ(endpoints->Find("/v1/score")->Find("requests")->number_value(),
            0.0);
  EXPECT_EQ(endpoints->Find("/v1/rank"), nullptr);
  EXPECT_EQ(stats->Find("requests_total")->number_value(), 5.0);
}

/// Server wired to a live GraphStore + epoch-aware RoutePlanner: the
/// POST /v1/traffic ingestion path and its observability surfaces.
struct TrafficServerFixture {
  graph::RoadNetwork network = graph::BuildTestNetwork();
  core::PathRankModel model;
  ServingEngine engine;
  GraphStore store;
  SpurEngine spur = SpurEngine::kDijkstra;
  RoutePlanner planner;
  HttpServer server;

  RoutePlannerConfig PlannerConfig() {
    RoutePlannerConfig config;
    config.store = &store;
    config.cache_capacity = 64;
    config.spur_engine = spur;
    return config;
  }

  HttpBackend Backend() {
    HttpBackend backend;
    backend.score = [this](std::vector<routing::Path> paths) {
      return engine.ScoreBatch(paths);
    };
    backend.route = [this](const RouteRequest& request) {
      return planner.Plan(request);
    };
    backend.traffic = [this](const std::vector<graph::TrafficUpdate>& u) {
      return store.ApplyTraffic(u);
    };
    backend.graph_epoch = [this] { return store.epoch(); };
    backend.route_planner_stats = [this] { return planner.stats(); };
    backend.preprocessing_stats = [this] {
      return store.preprocessing_stats();
    };
    return backend;
  }

  explicit TrafficServerFixture(SpurEngine spur_engine = SpurEngine::kDijkstra)
      : model(network.num_vertices(), SmallConfig()),
        engine(network, model),
        store(graph::BuildTestNetwork()),
        spur(spur_engine),
        planner(PlannerConfig(),
                [this](std::vector<routing::Path> paths) {
                  return engine.ScoreBatch(paths);
                }),
        server(Backend(), ServerFixture::Options()) {
    if (spur == SpurEngine::kAlt) {
      PreprocessOptions pre;
      pre.num_landmarks = 3;
      store.EnablePreprocessing(pre);
    }
    server.Start();
  }
};

TEST(TrafficHttp, ValidBatchBumpsEpochAndInvalidatesRouteCache) {
  TrafficServerFixture fx;
  HttpClient client;
  client.Connect(fx.server.port());

  // Seed and hit the route cache at epoch 0; the epoch is on the wire.
  const auto miss = client.Request("POST", "/v1/route", RouteBody(3, 59));
  ASSERT_EQ(miss.status, 200);
  EXPECT_NE(miss.body.find("\"cache_hit\":false"), std::string::npos);
  EXPECT_NE(miss.body.find("\"graph_epoch\":0"), std::string::npos)
      << miss.body;
  const auto hit = client.Request("POST", "/v1/route", RouteBody(3, 59));
  ASSERT_EQ(hit.status, 200);
  EXPECT_NE(hit.body.find("\"cache_hit\":true"), std::string::npos);

  const auto applied = client.Request(
      "POST", "/v1/traffic",
      "{\"updates\": [{\"edge\": 0, \"travel_time_s\": 123.5}, "
      "{\"edge\": 1, \"closed\": true}]}");
  ASSERT_EQ(applied.status, 200) << applied.body;
  const auto ack = json::Parse(applied.body);
  ASSERT_TRUE(ack);
  EXPECT_EQ(ack->Find("epoch")->number_value(), 1.0);
  EXPECT_EQ(ack->Find("cost_updates")->number_value(), 1.0);
  EXPECT_EQ(ack->Find("closures")->number_value(), 1.0);
  EXPECT_EQ(ack->Find("reopenings")->number_value(), 0.0);

  // The epoch moved: the cached entry is stale and must NOT be served.
  const auto after = client.Request("POST", "/v1/route", RouteBody(3, 59));
  ASSERT_EQ(after.status, 200);
  EXPECT_NE(after.body.find("\"cache_hit\":false"), std::string::npos)
      << "stale cache entry served across /v1/traffic";
  EXPECT_NE(after.body.find("\"graph_epoch\":1"), std::string::npos)
      << after.body;

  // Observability: /healthz and /statsz expose the live epoch and the
  // planner's invalidation counters.
  const auto health = json::Parse(client.Request("GET", "/healthz").body);
  ASSERT_TRUE(health);
  ASSERT_NE(health->Find("graph_epoch"), nullptr);
  EXPECT_EQ(health->Find("graph_epoch")->number_value(), 1.0);
  const auto stats = json::Parse(client.Request("GET", "/statsz").body);
  ASSERT_TRUE(stats);
  EXPECT_EQ(stats->Find("graph_epoch")->number_value(), 1.0);
  const json::Value* planner_stats = stats->Find("route_planner");
  ASSERT_NE(planner_stats, nullptr);
  EXPECT_EQ(planner_stats->Find("cache_hits")->number_value(), 1.0);
  EXPECT_EQ(planner_stats->Find("invalidations")->number_value(), 1.0);
  EXPECT_GE(planner_stats->Find("enumerations")->number_value(), 2.0);
  const json::Value* traffic_endpoint =
      stats->Find("endpoints")->Find("/v1/traffic");
  ASSERT_NE(traffic_endpoint, nullptr);
  EXPECT_EQ(traffic_endpoint->Find("requests")->number_value(), 1.0);
  EXPECT_EQ(traffic_endpoint->Find("errors")->number_value(), 0.0);
}

/// Slug and status of an error body, or "" for a 200.
std::string StatusSlug(const HttpClient::Response& response) {
  if (response.status == 200) return "";
  const auto parsed = json::Parse(response.body);
  if (!parsed || parsed->Find("status") == nullptr) return "<no slug>";
  return parsed->Find("status")->string_value();
}

// /v1/route answers on the live graph, at the current epoch: never over
// roads /v1/traffic has closed.
TEST(TrafficHttp, RouteAnswersOnTheLiveGraph) {
  TrafficServerFixture fx;
  HttpClient client;
  client.Connect(fx.server.port());

  // Close every edge that the query's /v1/route candidates use.
  const auto before = client.Request("POST", "/v1/route", RouteBody(0, 63));
  ASSERT_EQ(before.status, 200) << before.body;
  const auto routes = json::Parse(before.body);
  ASSERT_TRUE(routes);
  std::set<uint64_t> used;
  for (const auto& route : routes->Find("routes")->array()) {
    for (const auto& edge : route.Find("edges")->array()) {
      used.insert(static_cast<uint64_t>(edge.number_value()));
    }
  }
  ASSERT_FALSE(used.empty());
  std::string updates;
  for (const uint64_t edge : used) {
    if (!updates.empty()) updates += ", ";
    updates += "{\"edge\": " + std::to_string(edge) + ", \"closed\": true}";
  }
  const auto applied = client.Request("POST", "/v1/traffic",
                                      "{\"updates\": [" + updates + "]}");
  ASSERT_EQ(applied.status, 200) << applied.body;

  // The closed-off query is unreachable now.
  const auto route = client.Request("POST", "/v1/route", RouteBody(0, 63));
  EXPECT_EQ(route.status, 404) << route.body;
  EXPECT_EQ(StatusSlug(route), "unreachable");

  // A query that stays reachable returns the in-process planner's paths
  // and scores, at the same epoch.
  const RouteResult expected = fx.planner.Plan({3, 59});
  ASSERT_EQ(expected.status, RouteStatus::kOk);
  EXPECT_EQ(expected.graph_epoch, 1u);
  const auto live_route = client.Request("POST", "/v1/route", RouteBody(3, 59));
  ASSERT_EQ(live_route.status, 200) << live_route.body;
  EXPECT_NE(live_route.body.find("\"graph_epoch\":1"), std::string::npos);
  ExpectMatchesRanking(expected.ranked,
                       ParseCandidates(live_route.body, "routes"));
  for (const auto& scored : expected.ranked) {
    for (const auto edge : scored.path.edges) {
      EXPECT_EQ(used.count(edge), 0u) << "route over closed edge " << edge;
    }
  }
}

/// Satellite surface checks for the spur-engine seam: every /v1/route
/// body names the engine that produced its candidate set, the algo a
/// cache hit reports is the one that SEEDED the entry (hit and miss
/// bodies stay byte-identical modulo cache_hit), and /statsz grows a
/// `preprocessing` block fed by GraphStore::preprocessing_stats().
TEST(RouteHttp, DefaultEngineReportsDijkstraAlgoOnMissAndHit) {
  TrafficServerFixture fx;
  HttpClient client;
  client.Connect(fx.server.port());

  const auto miss = client.Request("POST", "/v1/route", RouteBody(3, 59));
  ASSERT_EQ(miss.status, 200);
  EXPECT_NE(miss.body.find("\"algo\":\"dijkstra\""), std::string::npos)
      << miss.body;
  const auto hit = client.Request("POST", "/v1/route", RouteBody(3, 59));
  ASSERT_EQ(hit.status, 200);
  EXPECT_NE(hit.body.find("\"algo\":\"dijkstra\""), std::string::npos)
      << hit.body;

  // Preprocessing was never enabled: the block reports disabled zeros.
  const auto stats = json::Parse(client.Request("GET", "/statsz").body);
  ASSERT_TRUE(stats);
  const json::Value* pre = stats->Find("preprocessing");
  ASSERT_NE(pre, nullptr);
  EXPECT_EQ(pre->Find("enabled")->bool_value(), false);
  const json::Value* planner_stats = stats->Find("route_planner");
  ASSERT_NE(planner_stats, nullptr);
  ASSERT_NE(planner_stats->Find("alt_fallbacks"), nullptr);
  EXPECT_EQ(planner_stats->Find("alt_fallbacks")->number_value(), 0.0);
}

TEST(RouteHttp, AltEngineReportsAlgoAndPreprocessingStatsz) {
  TrafficServerFixture fx(SpurEngine::kAlt);
  HttpClient client;
  client.Connect(fx.server.port());

  const auto miss = client.Request("POST", "/v1/route", RouteBody(3, 59));
  ASSERT_EQ(miss.status, 200);
  EXPECT_NE(miss.body.find("\"algo\":\"alt\""), std::string::npos)
      << miss.body;
  // The cached algo travels with the candidate set: a hit reports the
  // engine that seeded it and the body is byte-identical modulo the
  // cache_hit flag.
  const auto hit = client.Request("POST", "/v1/route", RouteBody(3, 59));
  ASSERT_EQ(hit.status, 200);
  EXPECT_NE(hit.body.find("\"algo\":\"alt\""), std::string::npos)
      << hit.body;
  std::string normalized_miss = miss.body;
  std::string normalized_hit = hit.body;
  const auto strip = [](std::string* body) {
    const auto pos = body->find("\"cache_hit\":");
    ASSERT_NE(pos, std::string::npos);
    const auto comma = body->find(',', pos);
    body->erase(pos, comma - pos);
  };
  strip(&normalized_miss);
  strip(&normalized_hit);
  EXPECT_EQ(normalized_miss, normalized_hit);

  const auto stats = json::Parse(client.Request("GET", "/statsz").body);
  ASSERT_TRUE(stats);
  const json::Value* pre = stats->Find("preprocessing");
  ASSERT_NE(pre, nullptr);
  EXPECT_EQ(pre->Find("enabled")->bool_value(), true);
  EXPECT_EQ(pre->Find("landmarks")->number_value(), 3.0);
  ASSERT_NE(pre->Find("rebuilds"), nullptr);
  ASSERT_NE(pre->Find("rebuild_p50_s"), nullptr);
  ASSERT_NE(pre->Find("rebuild_p99_s"), nullptr);
  EXPECT_EQ(pre->Find("epochs_behind")->number_value(), 0.0);
}

void ExpectTrafficError(HttpClient& client, const std::string& body,
                        const std::string& slug) {
  const auto response = client.Request("POST", "/v1/traffic", body);
  EXPECT_EQ(response.status, 400) << body << " -> " << response.body;
  EXPECT_NE(response.body.find("\"status\":\"" + slug + "\""),
            std::string::npos)
      << body << " -> " << response.body;
}

TEST(TrafficHttp, MalformedBatchesAre400WithStableSlugs) {
  TrafficServerFixture fx;
  HttpClient client;
  client.Connect(fx.server.port());

  // Shape/type failures: the HTTP layer's generic bad_request slug.
  ExpectTrafficError(client, "{not json", "bad_request");
  ExpectTrafficError(client, "[1, 2]", "bad_request");
  ExpectTrafficError(client, "{}", "bad_request");
  ExpectTrafficError(client, "{\"updates\": 5}", "bad_request");
  ExpectTrafficError(client, "{\"updates\": [7]}", "bad_request");
  ExpectTrafficError(client, "{\"updates\": [{}]}", "bad_request");
  ExpectTrafficError(client, "{\"updates\": [{\"edge\": -1}]}",
                     "bad_request");
  ExpectTrafficError(client, "{\"updates\": [{\"edge\": 1.5}]}",
                     "bad_request");
  ExpectTrafficError(client, "{\"updates\": [{\"edge\": 1e300}]}",
                     "bad_request");
  ExpectTrafficError(
      client, "{\"updates\": [{\"edge\": \"0\", \"closed\": true}]}",
      "bad_request");
  ExpectTrafficError(
      client, "{\"updates\": [{\"edge\": 0, \"travel_time_s\": \"fast\"}]}",
      "bad_request");
  ExpectTrafficError(client,
                     "{\"updates\": [{\"edge\": 0, \"closed\": 1}]}",
                     "bad_request");
  // A literal NaN is not JSON (RFC 8259): rejected at the parse, with
  // the same slug — it must never reach the graph as a cost.
  ExpectTrafficError(
      client, "{\"updates\": [{\"edge\": 0, \"travel_time_s\": NaN}]}",
      "bad_request");

  // Semantic failures: the backend's specific slugs.
  ExpectTrafficError(client, "{\"updates\": []}", "empty_batch");
  ExpectTrafficError(
      client,
      "{\"updates\": [{\"edge\": 999999, \"travel_time_s\": 1.0}]}",
      "unknown_edge");
  ExpectTrafficError(client,
                     "{\"updates\": [{\"edge\": 0, \"travel_time_s\": 1.0}, "
                     "{\"edge\": 0, \"closed\": true}]}",
                     "duplicate_edge");
  ExpectTrafficError(
      client, "{\"updates\": [{\"edge\": 0, \"travel_time_s\": -5.0}]}",
      "bad_request");
  ExpectTrafficError(
      client, "{\"updates\": [{\"edge\": 0, \"travel_time_s\": 0.0}]}",
      "bad_request");
  // An update that specifies neither a cost nor a closure is a no-op by
  // construction — almost certainly a client bug, so it is rejected.
  ExpectTrafficError(client, "{\"updates\": [{\"edge\": 0}]}",
                     "bad_request");

  // Nothing above may have moved the epoch (all-or-nothing per batch,
  // and rejected batches do not publish).
  const auto stats = json::Parse(client.Request("GET", "/statsz").body);
  ASSERT_TRUE(stats);
  EXPECT_EQ(stats->Find("graph_epoch")->number_value(), 0.0);
}

TEST(TrafficHttp, OversizedBodyIs413AndWrongMethodIs405) {
  TrafficServerFixture fx;
  HttpClient client;
  client.Connect(fx.server.port());
  const std::string big(fx.server.options().max_body_bytes + 1, 'x');
  EXPECT_EQ(client.Request("POST", "/v1/traffic", big).status, 413);
  // The server hangs up after an oversized body (it cannot resync the
  // framing); the method check needs a fresh connection.
  HttpClient fresh;
  fresh.Connect(fx.server.port());
  EXPECT_EQ(fresh.Request("GET", "/v1/traffic").status, 405);
}

TEST(TrafficHttp, MissingTrafficBackendIs404) {
  // A server wired without the traffic seam must answer 404, not crash
  // on a null std::function — and its /healthz body must not grow a
  // graph_epoch field it cannot back.
  ServerFixture fx;
  HttpClient client;
  client.Connect(fx.server.port());
  const auto response = client.Request(
      "POST", "/v1/traffic",
      "{\"updates\": [{\"edge\": 0, \"travel_time_s\": 1.0}]}");
  EXPECT_EQ(response.status, 404);
  const auto health = json::Parse(client.Request("GET", "/healthz").body);
  ASSERT_TRUE(health);
  EXPECT_EQ(health->Find("graph_epoch"), nullptr);
}

// The wire-format property every bitwise assertion above rests on.
TEST(Json, DumpParseRoundTripsDoublesBitwise) {
  const std::vector<double> cases = {0.0,
                                     -0.0,
                                     1.0 / 3.0,
                                     -2.718281828459045,
                                     1e-300,
                                     -1.7976931348623157e308,
                                     5e-324,
                                     0.1f + 0.2f,
                                     42.0,
                                     1e5,
                                     1e6,
                                     9007199254740991.0,
                                     1e300};
  for (const double d : cases) {
    const auto parsed = json::Parse(json::Dump(json::Value(d)));
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->number_value(), d);
    // operator== treats -0.0 == 0.0; bitwise means the sign survives too.
    EXPECT_EQ(std::signbit(parsed->number_value()), std::signbit(d))
        << json::Dump(json::Value(d));
  }
  // Integral values below 2^53 print as integers, never in the exponent
  // form std::to_chars(double) picks when it is shorter ("1e+05"), so a
  // client reads ids and counters back as integers.
  const std::vector<std::pair<double, std::string>> texts = {
      {1e5, "100000"},
      {-3e5, "-300000"},
      {1e6, "1000000"},
      {9007199254740991.0, "9007199254740991"},  // 2^53 - 1
      {-0.0, "-0"},
      {1e300, "1e+300"},
      {0.5, "0.5"}};
  for (const auto& [d, text] : texts) {
    EXPECT_EQ(json::Dump(json::Value(d)), text);
  }
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"\\q\"", "01",
        "{\"a\":1} extra", "\"unterminated", "[1 2]", "nan", "+1",
        "1e999", "-1e999"}) {
    EXPECT_FALSE(json::Parse(bad)) << bad;
  }
  // Deep nesting is rejected, not a stack overflow.
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(json::Parse(deep));
}

TEST(Json, UnderflowFoldsToSignedZeroButOverflowIsRejected) {
  const auto tiny = json::Parse("1e-999");
  ASSERT_TRUE(tiny);
  EXPECT_EQ(tiny->number_value(), 0.0);
  EXPECT_FALSE(std::signbit(tiny->number_value()));
  const auto tiny_negative = json::Parse("-0.0000000001e-2000");
  ASSERT_TRUE(tiny_negative);
  EXPECT_EQ(tiny_negative->number_value(), 0.0);
  EXPECT_TRUE(std::signbit(tiny_negative->number_value()));
  // A 400-digit integer overflows without any exponent field.
  EXPECT_FALSE(json::Parse("9" + std::string(399, '0')));
}

TEST(Json, ParsesEscapesAndStructures) {
  const auto parsed = json::Parse(
      "{\"text\": \"a\\n\\\"b\\\" \\u0041\\u00e9\\ud83d\\ude00\", "
      "\"list\": [1, -2.5, true, false, null]}");
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->Find("text")->string_value(),
            "a\n\"b\" A\xC3\xA9\xF0\x9F\x98\x80");
  const auto& list = parsed->Find("list")->array();
  ASSERT_EQ(list.size(), 5u);
  EXPECT_EQ(list[0].number_value(), 1.0);
  EXPECT_EQ(list[1].number_value(), -2.5);
  EXPECT_TRUE(list[2].bool_value());
  EXPECT_FALSE(list[3].bool_value());
  EXPECT_TRUE(list[4].is_null());
}

// ---- json::Writer -------------------------------------------------------

/// A random JSON string: control characters, the escaped characters,
/// ASCII and raw bytes >= 0x80 (Parse passes those through unchanged).
std::string RandomJsonString(Rng& rng) {
  static const std::string kSpecial("\"\\/\b\f\n\r\t\x01\x1f\x7f\0", 12);
  std::string out;
  const auto length = rng.NextBounded(10);
  for (uint64_t i = 0; i < length; ++i) {
    switch (rng.NextBounded(4)) {
      case 0:
        out.push_back(kSpecial[rng.NextBounded(kSpecial.size())]);
        break;
      case 1:
        out.push_back(static_cast<char>(0x80 + rng.NextBounded(0x80)));
        break;
      default:
        out.push_back(static_cast<char>(0x20 + rng.NextBounded(0x5F)));
    }
  }
  return out;
}

double RandomJsonNumber(Rng& rng) {
  constexpr double kTwoTo53 = 9007199254740992.0;
  switch (rng.NextBounded(9)) {
    case 0:
      return -0.0;
    case 1: {  // a denormal
      const uint64_t bits = 1 + rng.NextBounded((uint64_t{1} << 52) - 1);
      double d = 0;
      std::memcpy(&d, &bits, sizeof(d));
      return rng.NextBounded(2) ? -d : d;
    }
    case 2:
      return rng.NextBounded(2) ? 1e300 : -1e300;
    case 3:  // an integer up to 2^53 either side, the bounds included
      return static_cast<double>(rng.NextBounded(uint64_t{1} << 53) + 1) *
             (rng.NextBounded(2) ? 1.0 : -1.0);
    case 4:  // a uint32 id
      return static_cast<double>(rng.NextBounded(uint64_t{1} << 32));
    case 5:  // a power of ten: exponent notation is shorter from 1e5 on
      return std::pow(10.0, static_cast<double>(rng.NextBounded(23)));
    case 6:
      return rng.NextBounded(2) ? kTwoTo53 : kTwoTo53 + 2.0;
    case 7:
      return rng.NextDouble();
    default: {  // any finite bit pattern
      for (;;) {
        const uint64_t bits = rng.NextU64();
        double d = 0;
        std::memcpy(&d, &bits, sizeof(d));
        if (std::isfinite(d)) return d;
      }
    }
  }
}

json::Value RandomJsonValue(Rng& rng, int depth) {
  switch (rng.NextBounded(depth < 4 ? 6 : 4)) {
    case 0:
      return json::Value();
    case 1:
      return json::Value(rng.NextBounded(2) == 1);
    case 2:
      return json::Value(RandomJsonNumber(rng));
    case 3:
      return json::Value(RandomJsonString(rng));
    case 4: {
      json::Array array;
      const auto size = rng.NextBounded(5);
      for (uint64_t i = 0; i < size; ++i) {
        array.push_back(RandomJsonValue(rng, depth + 1));
      }
      return json::Value(std::move(array));
    }
    default: {
      json::Object object;
      const auto size = rng.NextBounded(5);
      for (uint64_t i = 0; i < size; ++i) {
        object[RandomJsonString(rng)] = RandomJsonValue(rng, depth + 1);
      }
      return json::Value(std::move(object));
    }
  }
}

/// The test's own walk of a DOM through the Writer API.
void WriteThroughWriter(const json::Value& value, json::Writer* writer) {
  switch (value.type()) {
    case json::Value::Type::kNull:
      writer->Null();
      return;
    case json::Value::Type::kBool:
      writer->Bool(value.bool_value());
      return;
    case json::Value::Type::kNumber:
      writer->Number(value.number_value());
      return;
    case json::Value::Type::kString:
      writer->String(value.string_value());
      return;
    case json::Value::Type::kArray:
      writer->BeginArray();
      for (const auto& element : value.array()) {
        WriteThroughWriter(element, writer);
      }
      writer->EndArray();
      return;
    case json::Value::Type::kObject:
      writer->BeginObject();
      for (const auto& [key, element] : value.object()) {
        writer->Key(key);
        WriteThroughWriter(element, writer);
      }
      writer->EndObject();
      return;
  }
}

/// Deep equality with numbers compared bit for bit (-0.0 != 0.0).
bool BitwiseEqual(const json::Value& a, const json::Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case json::Value::Type::kNull:
      return true;
    case json::Value::Type::kBool:
      return a.bool_value() == b.bool_value();
    case json::Value::Type::kNumber: {
      const double x = a.number_value();
      const double y = b.number_value();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case json::Value::Type::kString:
      return a.string_value() == b.string_value();
    case json::Value::Type::kArray: {
      if (a.array().size() != b.array().size()) return false;
      for (size_t i = 0; i < a.array().size(); ++i) {
        if (!BitwiseEqual(a.array()[i], b.array()[i])) return false;
      }
      return true;
    }
    case json::Value::Type::kObject: {
      if (a.object().size() != b.object().size()) return false;
      auto it = b.object().begin();
      for (const auto& [key, element] : a.object()) {
        if (key != it->first || !BitwiseEqual(element, it->second)) {
          return false;
        }
        ++it;
      }
      return true;
    }
  }
  return false;
}

TEST(JsonWriter, MatchesDumpAndParsesBackBitwise) {
  Rng rng(20260101);
  for (int trial = 0; trial < 2000; ++trial) {
    const json::Value value = RandomJsonValue(rng, 0);
    std::string written = "prefix";  // the writer appends after it
    json::Writer writer(&written);
    WriteThroughWriter(value, &writer);
    ASSERT_EQ(written.substr(0, 6), "prefix");
    written.erase(0, 6);
    const std::string dumped = json::Dump(value);
    ASSERT_EQ(written, dumped) << "trial " << trial;
    std::string error;
    const auto parsed = json::Parse(written, &error);
    ASSERT_TRUE(parsed) << error << " in " << written;
    ASSERT_TRUE(BitwiseEqual(*parsed, value)) << written;
  }
}

TEST(JsonWriter, PlacesSeparatorsAndEscapes) {
  std::string out;
  json::Writer writer(&out);
  writer.BeginObject()
      .Key("")
      .BeginArray()
      .EndArray()
      .Key("a")
      .BeginArray()
      .Number(1)
      .BeginObject()
      .EndObject()
      .String(":")
      .Null()
      .EndArray()
      .Key("b\x01")
      .String(std::string("q\"\\\n\0", 5))
      .EndObject();
  EXPECT_EQ(out,
            "{\"\":[],\"a\":[1,{},\":\",null],\"b\\u0001\":\"q\\\"\\\\\\n"
            "\\u0000\"}");
}

// ---- Every body the server writes equals Dump of the DOM it used to
// build. The DOMs below are the pre-Writer server's, kept as the oracle.

template <typename Id>
json::Value DomIds(const std::vector<Id>& ids) {
  json::Array array;
  for (const Id id : ids) array.emplace_back(static_cast<uint64_t>(id));
  return json::Value(std::move(array));
}

json::Value DomRoute(const RouteResult& result) {
  json::Array routes;
  for (const auto& scored : result.ranked) {
    json::Object route;
    route["score"] = json::Value(scored.score);
    route["cost"] = json::Value(scored.path.cost);
    route["length_m"] = json::Value(scored.path.length_m);
    route["time_s"] = json::Value(scored.path.time_s);
    route["vertices"] = DomIds(scored.path.vertices);
    route["edges"] = DomIds(scored.path.edges);
    routes.push_back(json::Value(std::move(route)));
  }
  json::Object object;
  object["algo"] = json::Value(result.algo);
  object["cache_hit"] = json::Value(result.cache_hit);
  if (result.degraded) object["degraded"] = json::Value(true);
  object["graph_epoch"] = json::Value(result.graph_epoch);
  object["routes"] = json::Value(std::move(routes));
  return json::Value(std::move(object));
}

json::Value DomRanking(const std::vector<ScoredPath>& ranking) {
  json::Array candidates;
  for (const auto& scored : ranking) {
    json::Object candidate;
    candidate["score"] = json::Value(scored.score);
    candidate["vertices"] = DomIds(scored.path.vertices);
    candidates.push_back(json::Value(std::move(candidate)));
  }
  json::Object object;
  object["candidates"] = json::Value(std::move(candidates));
  return json::Value(std::move(object));
}

json::Value DomError(const std::string& message, const char* slug) {
  json::Object object;
  object["error"] = json::Value(message);
  if (slug != nullptr) object["status"] = json::Value(slug);
  return json::Value(std::move(object));
}

json::Value DomStatsz(const HttpServerStats& stats,
                      const HttpServerOptions& options) {
  json::Object object;
  object["connections_accepted"] = json::Value(stats.connections_accepted);
  object["requests_total"] = json::Value(stats.requests_total);
  object["shed_total"] = json::Value(stats.shed_total);
  object["deadline_exceeded_count"] =
      json::Value(stats.route_planner.deadline_exceeded);
  object["degraded_count"] = json::Value(stats.route_planner.degraded);
  object["inflight"] = json::Value(stats.inflight);
  object["admission_waiting"] = json::Value(stats.admission_waiting);
  object["max_inflight"] =
      json::Value(static_cast<uint64_t>(options.max_inflight));
  object["max_queue_wait_us"] =
      json::Value(static_cast<int64_t>(options.max_queue_wait_us));
  object["graph_epoch"] = json::Value(stats.graph_epoch);
  json::Object planner;
  planner["cache_hits"] = json::Value(stats.route_planner.cache_hits);
  planner["cache_misses"] = json::Value(stats.route_planner.cache_misses);
  planner["invalidations"] = json::Value(stats.route_planner.invalidations);
  planner["enumerations"] = json::Value(stats.route_planner.enumerations);
  planner["alt_fallbacks"] = json::Value(stats.route_planner.alt_fallbacks);
  object["route_planner"] = json::Value(std::move(planner));
  json::Object preprocessing;
  preprocessing["enabled"] = json::Value(stats.preprocessing.enabled);
  preprocessing["landmarks"] =
      json::Value(static_cast<uint64_t>(stats.preprocessing.landmarks));
  preprocessing["rebuilds"] = json::Value(stats.preprocessing.rebuilds);
  preprocessing["rebuild_p50_s"] =
      json::Value(stats.preprocessing.rebuild_p50_s);
  preprocessing["rebuild_p99_s"] =
      json::Value(stats.preprocessing.rebuild_p99_s);
  preprocessing["epochs_behind"] =
      json::Value(stats.preprocessing.epochs_behind);
  object["preprocessing"] = json::Value(std::move(preprocessing));
  const auto endpoint_json = [](const HttpEndpointStats& endpoint_stats) {
    json::Object endpoint;
    endpoint["requests"] = json::Value(endpoint_stats.requests);
    endpoint["errors"] = json::Value(endpoint_stats.errors);
    endpoint["latency_mean_s"] = json::Value(endpoint_stats.latency_mean_s);
    endpoint["latency_p50_s"] = json::Value(endpoint_stats.latency_p50_s);
    endpoint["latency_p99_s"] = json::Value(endpoint_stats.latency_p99_s);
    return json::Value(std::move(endpoint));
  };
  json::Object endpoints;
  endpoints["/v1/score"] = endpoint_json(stats.score);
  endpoints["/v1/route"] = endpoint_json(stats.route);
  endpoints["/v1/traffic"] = endpoint_json(stats.traffic);
  object["endpoints"] = json::Value(std::move(endpoints));
  return json::Value(std::move(object));
}

ScoredPath MadeUpScoredPath(double score, std::vector<graph::VertexId> vertices,
                            std::vector<graph::EdgeId> edges) {
  ScoredPath scored;
  scored.score = score;
  scored.path.vertices = std::move(vertices);
  scored.path.edges = std::move(edges);
  scored.path.cost = 1234.5678901234567;
  scored.path.length_m = 100000.0;  // integral: prints as an integer
  scored.path.time_s = 0.1 + 0.2;
  return scored;
}

TEST(HttpBodies, EveryBodyEqualsDumpOfTheDomItReplaced) {
  constexpr uint64_t kEpoch = uint64_t{1} << 40;
  RouteResult answer;
  answer.algo = "alt";
  answer.degraded = true;
  answer.graph_epoch = kEpoch;
  answer.ranked = {MadeUpScoredPath(0.8125, {0, 1, 2}, {0, 5}),
                   MadeUpScoredPath(-1.0 / 3.0, {0, 3, 4294967294u}, {7, 9}),
                   MadeUpScoredPath(-0.0, {0}, {})};
  RouteResult unreachable;
  unreachable.status = RouteStatus::kUnreachable;
  unreachable.message = "no path: \"7\" -> \"9\"\n\ttab\x01";
  const std::vector<ScoredPath> ranking = {
      MadeUpScoredPath(2.5e-8, {4, 100000}, {}),
      MadeUpScoredPath(1e300, {}, {})};
  TrafficResult traffic;
  traffic.epoch = kEpoch + 1;
  traffic.cost_updates = 100000;
  traffic.closures = 1;
  traffic.reopenings = 2;
  RoutePlannerStats planner_stats;
  planner_stats.cache_hits = 1000000;
  planner_stats.cache_misses = 3;
  planner_stats.invalidations = 4;
  planner_stats.enumerations = 5;
  planner_stats.alt_fallbacks = 6;
  planner_stats.deadline_exceeded = 7;
  planner_stats.degraded = 8;
  PreprocessingStats preprocessing;
  preprocessing.enabled = true;
  preprocessing.landmarks = 8;
  preprocessing.rebuilds = 9;
  preprocessing.rebuild_p50_s = 0.0123;
  preprocessing.rebuild_p99_s = 1.5;
  preprocessing.epochs_behind = 1;

  HttpBackend backend;
  backend.score = [&ranking](std::vector<routing::Path>) { return ranking; };
  backend.route = [&](const RouteRequest& request) {
    return request.source == 1 ? answer : unreachable;
  };
  backend.traffic = [&traffic](const std::vector<graph::TrafficUpdate>&) {
    return traffic;
  };
  backend.graph_epoch = [] { return kEpoch; };
  backend.swap_count = [] { return uint64_t{300000}; };
  backend.route_planner_stats = [&planner_stats] { return planner_stats; };
  backend.preprocessing_stats = [&preprocessing] { return preprocessing; };
  HttpServerOptions options;
  options.num_threads = 2;
  options.max_inflight = 1;
  options.max_queue_wait_us = 250;
  HttpServer server(backend, options);
  server.Start();
  HttpClient client;
  client.Connect(server.port());

  std::string direct;
  WriteRouteBody(answer, &direct);
  EXPECT_EQ(direct, json::Dump(DomRoute(answer)));
  const auto route = client.Request(
      "POST", "/v1/route", "{\"source\": 1, \"destination\": 2}");
  EXPECT_EQ(route.status, 200);
  EXPECT_EQ(route.body, json::Dump(DomRoute(answer)));

  const auto score =
      client.Request("POST", "/v1/score", "{\"paths\": [[0, 1]]}");
  EXPECT_EQ(score.status, 200);
  EXPECT_EQ(score.body, json::Dump(DomRanking(ranking)));

  const auto with_slug = client.Request(
      "POST", "/v1/route", "{\"source\": 3, \"destination\": 2}");
  EXPECT_EQ(with_slug.status, 404);
  EXPECT_EQ(with_slug.body,
            json::Dump(DomError(unreachable.message,
                                RouteStatusSlug(RouteStatus::kUnreachable))));
  const auto without_slug = client.Request("GET", "/v1/score");
  EXPECT_EQ(without_slug.status, 405);
  EXPECT_EQ(without_slug.body, json::Dump(DomError("use POST", nullptr)));

  const auto traffic_body =
      client.Request("POST", "/v1/traffic",
                     "{\"updates\": [{\"edge\": 0, \"closed\": true}]}");
  EXPECT_EQ(traffic_body.status, 200);
  json::Object traffic_dom;
  traffic_dom["epoch"] = json::Value(traffic.epoch);
  traffic_dom["cost_updates"] =
      json::Value(static_cast<uint64_t>(traffic.cost_updates));
  traffic_dom["closures"] =
      json::Value(static_cast<uint64_t>(traffic.closures));
  traffic_dom["reopenings"] =
      json::Value(static_cast<uint64_t>(traffic.reopenings));
  EXPECT_EQ(traffic_body.body,
            json::Dump(json::Value(std::move(traffic_dom))));

  const auto health = client.Request("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  json::Object health_dom;
  health_dom["status"] = json::Value("ok");
  health_dom["swap_count"] = json::Value(uint64_t{300000});
  health_dom["graph_epoch"] = json::Value(kEpoch);
  health_dom["inflight"] = json::Value(uint64_t{0});
  health_dom["max_inflight"] =
      json::Value(static_cast<uint64_t>(options.max_inflight));
  EXPECT_EQ(health.body, json::Dump(json::Value(std::move(health_dom))));

  // One synchronous client: every counter /statsz read has settled by
  // the time its response arrives (endpoint latencies are recorded
  // before a response is written), so stats() now reads the same values.
  const auto statsz = client.Request("GET", "/statsz");
  EXPECT_EQ(statsz.status, 200);
  EXPECT_EQ(statsz.body,
            json::Dump(DomStatsz(server.stats(), server.options())));
  EXPECT_NE(statsz.body.find("\"cache_hits\":1000000,"), std::string::npos)
      << statsz.body;
}

}  // namespace
}  // namespace pathrank::serving
