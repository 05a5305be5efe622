// Workload `served-sharded`: the shipped serving path as
// `mmdb_serve --shards 4` builds it. A 2x10^3-image helmet corpus is
// mirrored into 4 in-process shards behind a `shard::Coordinator`, which
// one loopback `net::QueryServer` fronts. One closed-loop `net::Client`
// connection issues kBwm range windows and kPlanned conjunctions.

#include <algorithm>
#include <iostream>
#include <memory>
#include <thread>

#include "common.h"
#include "layers.h"
#include "mmdb.h"
#include "mmdb_internal.h"
#include "truth.h"

namespace perfbench {
namespace {

using namespace mmdb;

constexpr int kImages = 2000;
constexpr int kShards = 4;
/// One connection: the process runs on one CPU (see main.cc), and more
/// clients there would only queue behind each other.
constexpr int kClients = 1;
/// Query threads per service, as `mmdb_serve` defaults them.
constexpr int kQueryThreads = 4;
constexpr int kConnectionSlots = 8;
constexpr int kWindows = 256;
constexpr int kConjunctions = 256;

/// The deployment. Members are destroyed in reverse order: clients, then
/// the server, the coordinator, the shard services and the stores.
struct Deployment {
  std::unique_ptr<MultimediaDatabase> db;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<shard::ShardedDatabase> sharded;
  std::vector<std::unique_ptr<QueryService>> shard_services;
  std::unique_ptr<shard::Coordinator> coordinator;
  std::unique_ptr<net::QueryServer> server;
  std::vector<net::Client> clients;
};

Status Deploy(uint64_t seed, Deployment* d) {
  MMDB_ASSIGN_OR_RETURN(d->db, MultimediaDatabase::Open());
  datasets::DatasetSpec spec;
  spec.kind = datasets::DatasetKind::kHelmets;
  spec.total_images = kImages;
  spec.edited_fraction = 0.8;
  spec.widening_probability = 0.8;
  spec.seed = seed;
  MMDB_RETURN_IF_ERROR(
      datasets::BuildAugmentedDatabase(d->db.get(), spec).status());
  QueryServiceOptions service_options;
  service_options.threads = kQueryThreads;
  d->service = std::make_unique<QueryService>(d->db.get(), service_options);

  shard::ShardedDatabaseOptions sharded_options;
  sharded_options.shards = kShards;
  sharded_options.shard_options.query_threads = kQueryThreads;
  MMDB_ASSIGN_OR_RETURN(d->sharded,
                        shard::ShardedDatabase::Open(sharded_options));
  MMDB_RETURN_IF_ERROR(shard::MirrorDatabase(*d->db, d->sharded.get()));
  std::vector<std::vector<std::unique_ptr<shard::ShardBackend>>> backends;
  for (size_t s = 0; s < d->sharded->shard_count(); ++s) {
    d->shard_services.push_back(std::make_unique<QueryService>(
        d->sharded->shard(s), service_options));
    std::vector<std::unique_ptr<shard::ShardBackend>> replicas;
    replicas.push_back(std::make_unique<shard::LocalShardBackend>(
        d->shard_services.back().get(), &d->sharded->catalog(), s));
    backends.push_back(std::move(replicas));
  }
  d->coordinator = std::make_unique<shard::Coordinator>(
      std::move(backends), &d->sharded->catalog());

  net::ServerOptions server_options;
  server_options.connection_threads = kConnectionSlots;
  d->server = std::make_unique<net::QueryServer>(d->db.get(), d->service.get(),
                                                 server_options);
  d->server->AttachCoordinator(d->coordinator.get());
  MMDB_RETURN_IF_ERROR(d->server->Start());
  for (int c = 0; c < kClients; ++c) {
    MMDB_ASSIGN_OR_RETURN(net::Client client,
                          net::Client::Connect("127.0.0.1", d->server->port()));
    d->clients.push_back(std::move(client));
  }
  return Status::OK();
}

struct Request {
  std::string op_class;
  QueryRequest request;
  /// The single store's answer, sorted.
  std::vector<ObjectId> expected;
};

/// What one client thread saw.
struct ClientLog {
  ClassLatencies untraced;
  ClassLatencies traced;
  SpanRecorder spans;
  QueryCounts counts;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  std::string first_error;
};

void RunClient(net::Client& client, const std::vector<Request>& pool,
               int index, const Options& options, Clock::time_point end,
               ClientLog* log) {
  const size_t pairs = pool.size() / 2;
  for (int64_t round = 0;; ++round) {
    const bool trace_round = options.trace && (round % 2 == 1);
    const int64_t step = options.trace ? round / 2 : round;
    const size_t pair = (step * kClients + index) % pairs;
    for (size_t which = 0; which < 2; ++which) {
      const Request& req = pool[pair * 2 + which];
      const int64_t op_id = (round << 8) | (index << 1) | which;
      Result<QueryResult> result = Status::Internal("not run");
      const OpTime time = TimeOp([&] {
        if (trace_round) {
          log->spans.Record("bench.op", op_id, [&] {
            log->spans.Record("net.client", op_id,
                              [&] { result = client.Execute(req.request); });
          });
        } else {
          result = client.Execute(req.request);
        }
      });
      ++log->attempted;
      if (!result.ok()) {
        ++log->failed;
        if (log->first_error.empty()) {
          log->first_error = result.status().ToString();
        }
        continue;
      }
      (trace_round ? log->traced : log->untraced).Add(req.op_class, time);
      std::vector<ObjectId> ids = result->ids;
      std::sort(ids.begin(), ids.end());
      if (ids != req.expected) ++log->mismatches;
      log->counts.Add(req.request, *result);
    }
    if (Clock::now() >= end) break;
  }
}

double MedianOfDiff(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> diff;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    diff.push_back(a[i] - b[i]);
  }
  return Median(diff);
}

/// Re-drives the wire codec, the coordinator and the shard services on
/// the workload's requests.
void RedriveServing(Deployment& d, const std::vector<Request>& pool,
                    SpanRecorder* spans, Report* report) {
  std::vector<double> encode_s;
  std::vector<double> decode_s;
  std::vector<double> client_s;
  std::vector<double> fanout_s;
  std::vector<double> slowest_s;
  net::Client& client = d.clients.front();
  for (int r = 0; r < 2; ++r) {
    for (const Request& req : pool) {
      // Client round trip and in-process fan-out, alternating which runs
      // first.
      double client_time = 0.0;
      double fanout_time = 0.0;
      Result<shard::ShardedResult> merged = Status::Internal("not run");
      auto run_client = [&] {
        const Clock::time_point start = Clock::now();
        spans->Record("net.client", -1, [&] {
          report->Check(client.Execute(req.request).ok(), "client re-drive");
        });
        client_time = SecondsBetween(start, Clock::now());
      };
      auto run_fanout = [&] {
        const Clock::time_point start = Clock::now();
        spans->Record("shard.coordinator", -1,
                      [&] { merged = d.coordinator->Execute(req.request); });
        fanout_time = SecondsBetween(start, Clock::now());
      };
      if (r == 0) {
        run_client();
        run_fanout();
      } else {
        run_fanout();
        run_client();
      }
      if (!merged.ok()) {
        report->Check(false, "coordinator re-drive: " +
                                 merged.status().ToString());
        continue;
      }
      client_s.push_back(client_time);
      fanout_s.push_back(fanout_time);

      // The slowest of the per-shard services on the same request.
      double slowest = 0.0;
      for (auto& service : d.shard_services) {
        const Clock::time_point start = Clock::now();
        spans->Record("core.query_service", -1, [&] {
          report->Check(service->Execute(req.request).ok(),
                        "shard service re-drive");
        });
        slowest = std::max(slowest, SecondsBetween(start, Clock::now()));
      }
      slowest_s.push_back(slowest);

      // The codec on this request and its streamed answer.
      const QueryResult& result = merged->result;
      std::string request_frame;
      std::vector<std::string> chunks;
      std::string done;
      Clock::time_point start = Clock::now();
      spans->Record("net.encode", -1, [&] {
        request_frame = net::EncodeExecuteRequest(req.request);
        for (size_t i = 0; i < result.ids.size(); i += 512) {
          const size_t n = std::min<size_t>(512, result.ids.size() - i);
          chunks.push_back(net::EncodeResultChunk(
              std::span<const ObjectId>(result.ids.data() + i, n)));
        }
        done = net::EncodeResultDone(result.stats, result.ids.size());
      });
      encode_s.push_back(SecondsBetween(start, Clock::now()));
      start = Clock::now();
      bool decoded = true;
      spans->Record("net.decode", -1, [&] {
        Result<net::Frame> frame = net::ParseFrame(request_frame);
        decoded = frame.ok() && net::DecodeExecuteRequest(*frame).ok();
        std::vector<ObjectId> ids;
        for (const std::string& chunk : chunks) {
          Result<net::Frame> chunk_frame = net::ParseFrame(chunk);
          decoded = decoded && chunk_frame.ok() &&
                    net::DecodeResultChunk(*chunk_frame, &ids).ok();
        }
        Result<net::Frame> done_frame = net::ParseFrame(done);
        decoded = decoded && done_frame.ok() &&
                  net::DecodeResultDone(*done_frame).ok();
        decoded = decoded && ids == result.ids;
      });
      decode_s.push_back(SecondsBetween(start, Clock::now()));
      report->Check(decoded, "protocol codec round trip changed the answer");
    }
  }
  report->Layer("net.encode_us", Median(encode_s) * 1e6);
  report->Layer("net.decode_us", Median(decode_s) * 1e6);
  report->Layer("net.roundtrip_overhead_us",
                MedianOfDiff(client_s, fanout_s) * 1e6);
  report->Layer("shard.fanout_us", Median(fanout_s) * 1e6);
  report->Layer("shard.slowest_shard_us", Median(slowest_s) * 1e6);
  report->Layer("shard.merge_us", MedianOfDiff(fanout_s, slowest_s) * 1e6);
}

}  // namespace

int RunServedSharded(const Options& options, Report* report) {
  // Set-up: corpus build, shard mirror, services, coordinator, server
  // start and client connections.
  std::vector<double> setup_seconds;
  auto deployment = std::make_unique<Deployment>();
  for (int i = 0; i < kSetupRepeats; ++i) {
    deployment.reset();
    deployment = std::make_unique<Deployment>();
    const Clock::time_point start = Clock::now();
    const Status deployed = Deploy(options.seed, deployment.get());
    setup_seconds.push_back(SecondsBetween(start, Clock::now()));
    if (!deployed.ok()) {
      std::cerr << "served-sharded setup: " << deployed.ToString() << "\n";
      return 1;
    }
  }
  report->EndToEnd("setup_s", Median(setup_seconds), "s");
  Deployment& d = *deployment;

  // Request pool, interleaved (window, conjunction) pairs, each with the
  // single store's answer.
  Rng rng(options.seed * 7919 + 2);
  const std::vector<RangeQuery> windows = datasets::MakeGroundedRangeWorkload(
      d.db->collection(), d.db->quantizer(),
      datasets::PaletteFor(datasets::DatasetKind::kHelmets), kWindows, rng);
  const std::vector<ConjunctiveQuery> conjunctions =
      GroundedConjunctions(*d.db, kConjunctions, rng);
  std::vector<Request> pool;
  for (size_t i = 0; i < windows.size(); ++i) {
    pool.push_back({"served_range",
                    QueryRequest::Range(windows[i], QueryMethod::kBwm), {}});
    pool.push_back({"served_conj",
                    QueryRequest::Conjunctive(conjunctions[i],
                                              QueryMethod::kPlanned),
                    {}});
  }
  for (Request& req : pool) {
    Result<QueryResult> expected = d.service->Execute(req.request);
    if (!expected.ok()) {
      std::cerr << "served-sharded reference: "
                << expected.status().ToString() << "\n";
      return 1;
    }
    req.expected = expected->ids;
    std::sort(req.expected.begin(), req.expected.end());
  }

  const net::QueryServer::Stats server_before = d.server->GetStats();
  const shard::Coordinator::Stats coord_before = d.coordinator->stats();
  std::vector<ClientLog> logs(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(RunClient, std::ref(d.clients[c]), std::cref(pool),
                           c, std::cref(options), end, &logs[c]);
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double wall = SecondsBetween(start, Clock::now());
  const net::QueryServer::Stats server_after = d.server->GetStats();
  const shard::Coordinator::Stats coord_after = d.coordinator->stats();

  ClientLog all;
  for (ClientLog& log : logs) {
    all.untraced.Merge(log.untraced);
    all.traced.Merge(log.traced);
    all.spans.Merge(log.spans);
    all.counts.Merge(log.counts);
    all.mismatches += log.mismatches;
    report->AddOps(log.attempted, log.failed);
    if (!log.first_error.empty()) {
      std::cerr << "served-sharded: " << log.first_error << "\n";
    }
  }
  report->Check(all.mismatches == 0,
                std::to_string(all.mismatches) +
                    " answers over the wire differ from the single store's");
  ReportLoop(options.trace ? all.traced : all.untraced, wall, report);
  report->Detail("hedges_per_query",
                 static_cast<double>(coord_after.hedges_launched -
                                     coord_before.hedges_launched) /
                     std::max<int64_t>(1, coord_after.queries -
                                              coord_before.queries),
                 "count");
  std::vector<double> selectivity[2];
  for (const Request& req : pool) {
    selectivity[req.request.method == QueryMethod::kBwm ? 0 : 1].push_back(
        static_cast<double>(req.expected.size()) / kImages);
  }
  report->Detail("window_selectivity", Median(selectivity[0]), "ratio");
  report->Detail("conj_selectivity", Median(selectivity[1]), "ratio");
  if (!options.trace) return 0;

  const int64_t requests = server_after.requests - server_before.requests;
  const int64_t fanouts = coord_after.queries - coord_before.queries;
  report->Layer("net.bytes_per_query",
                static_cast<double>(server_after.bytes_received +
                                    server_after.bytes_sent -
                                    server_before.bytes_received -
                                    server_before.bytes_sent) /
                    std::max<int64_t>(1, requests));
  report->Layer("shard.hedges_per_query",
                static_cast<double>(coord_after.hedges_launched -
                                    coord_before.hedges_launched) /
                    std::max<int64_t>(1, fanouts));
  double max_edited = 0.0;
  double sum_edited = 0.0;
  for (size_t s = 0; s < d.sharded->shard_count(); ++s) {
    const double edited =
        static_cast<double>(d.sharded->shard(s)->collection().EditedCount());
    max_edited = std::max(max_edited, edited);
    sum_edited += edited;
  }
  report->Layer("shard.imbalance",
                sum_edited > 0 ? max_edited * kShards / sum_edited : 0.0);
  all.counts.ReportTo(static_cast<double>(d.db->collection().EditedCount()),
                      report);
  double queue_wait = 0.0;
  int64_t shard_queries = 0;
  for (const auto& service : d.shard_services) {
    const QueryService::CounterSnapshot counters = service->Snapshot();
    queue_wait += counters.total_queue_wait_seconds;
    shard_queries += counters.queries;
  }
  report->Layer("core.executor.queue_wait_us",
                queue_wait * 1e6 / std::max<int64_t>(1, shard_queries));

  SpanRecorder redrive;
  RedriveServing(d, pool, &redrive, report);
  redrive::Bounds(*d.db, windows, &redrive, report);
  redrive::Plan(*d.db, windows, conjunctions, &redrive, report);
  redrive::IndexSearch(*d.db, conjunctions, &redrive, report);
  redrive::ServiceOverhead(*d.db, *d.service, windows, &redrive, report);
  redrive::Sizes(*d.db, report);
  ReportTrace(all.spans, all.untraced, all.traced, {"net.client"}, report);
  all.spans.Merge(redrive);
  WriteSpans(all.spans, options, report);
  return 0;
}

}  // namespace perfbench
