// Workload `disk-flag`: durable ingest and fetch on the paper's flag
// dataset. A 10^4-image flag corpus is generated in memory, inserted in id
// order into a fresh disk-backed store at the default buffer pool,
// flushed, closed and reopened; then one closed-loop client fetches
// random binary and edit-stored images with `GetImage`.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>

#include "common.h"
#include "layers.h"
#include "mmdb.h"
#include "mmdb_internal.h"

namespace perfbench {
namespace {

using namespace mmdb;

constexpr int kImages = 10000;
/// Fetched images kept per class for the content checks.
constexpr size_t kCheckedFetches = 100;
/// Images fetched before the close and compared after the reopen.
constexpr int kReopenSample = 20;

/// One image of the corpus, in insertion order.
struct Item {
  ObjectId id = kInvalidObjectId;
  bool binary = true;
  Image image;
  EditScript script;
};

struct Corpus {
  /// In-memory store the corpus was generated into; it also instantiates
  /// edited images for the content checks.
  std::unique_ptr<MultimediaDatabase> source;
  std::vector<Item> items;
};

Result<Corpus> Generate(uint64_t seed) {
  Corpus corpus;
  MMDB_ASSIGN_OR_RETURN(corpus.source, MultimediaDatabase::Open());
  datasets::DatasetSpec spec;
  spec.kind = datasets::DatasetKind::kFlags;
  spec.total_images = kImages;
  spec.edited_fraction = 0.8;
  spec.widening_probability = 0.8;
  spec.seed = seed;
  MMDB_RETURN_IF_ERROR(
      datasets::BuildAugmentedDatabase(corpus.source.get(), spec).status());
  const AugmentedCollection& collection = corpus.source->collection();
  for (ObjectId id : collection.binary_ids()) {
    Item item;
    item.id = id;
    MMDB_ASSIGN_OR_RETURN(item.image, corpus.source->GetImage(id));
    corpus.items.push_back(std::move(item));
  }
  for (ObjectId id : collection.edited_ids()) {
    Item item;
    item.id = id;
    item.binary = false;
    item.script = collection.FindEdited(id)->script;
    corpus.items.push_back(std::move(item));
  }
  std::sort(corpus.items.begin(), corpus.items.end(),
            [](const Item& a, const Item& b) { return a.id < b.id; });
  return corpus;
}

/// Env wrapper counting syncs and bytes moved, for the traced run.
class CountingEnv final : public Env {
 public:
  struct Counts {
    int64_t syncs = 0;
    int64_t bytes_written = 0;
  };

  explicit CountingEnv(Env* base) : base_(base) {}

  Result<std::unique_ptr<File>> OpenFile(const std::string& path) override {
    MMDB_ASSIGN_OR_RETURN(std::unique_ptr<File> file, base_->OpenFile(path));
    return std::unique_ptr<File>(new CountingFile(std::move(file), &counts_));
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  bool FileExists(const std::string& path) const override {
    return base_->FileExists(path);
  }
  const Counts& counts() const { return counts_; }

 private:
  class CountingFile final : public File {
   public:
    CountingFile(std::unique_ptr<File> base, Counts* counts)
        : base_(std::move(base)), counts_(counts) {}
    Status ReadAt(uint64_t offset, void* dst, size_t n) override {
      return base_->ReadAt(offset, dst, n);
    }
    Status WriteAt(uint64_t offset, const void* src, size_t n) override {
      counts_->bytes_written += static_cast<int64_t>(n);
      return base_->WriteAt(offset, src, n);
    }
    Result<uint64_t> Size() const override { return base_->Size(); }
    Status Sync() override {
      ++counts_->syncs;
      return base_->Sync();
    }
    Status Truncate(uint64_t size) override { return base_->Truncate(size); }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<File> base_;
    Counts* counts_;
  };

  Env* base_;
  Counts counts_;
};

int64_t CounterValue(const char* name) {
  return obs::Registry::Default().GetCounter(name, "")->Value();
}

bool SameImage(const Image& a, const Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         a.pixels() == b.pixels();
}

}  // namespace

int RunDiskFlag(const Options& options, Report* report) {
  // Set-up: generate the corpus in memory.
  std::vector<double> setup_seconds;
  Corpus corpus;
  for (int i = 0; i < kSetupRepeats; ++i) {
    corpus = Corpus{};
    const Clock::time_point start = Clock::now();
    Result<Corpus> generated = Generate(options.seed);
    setup_seconds.push_back(SecondsBetween(start, Clock::now()));
    if (!generated.ok()) {
      std::cerr << "disk-flag setup: " << generated.status().ToString()
                << "\n";
      return 1;
    }
    corpus = std::move(generated).value();
  }
  report->EndToEnd("setup_s", Median(setup_seconds), "s");

  const std::string dir =
      options.out_dir + "/disk-flag-" + std::to_string(options.seed);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CountingEnv counting(Env::Default());
  DatabaseOptions db_options;
  db_options.path = dir + "/store.mmdb";
  if (options.trace) db_options.env = &counting;

  // Ingest: durable inserts in id order.
  Result<std::unique_ptr<MultimediaDatabase>> opened =
      MultimediaDatabase::Open(db_options);
  if (!opened.ok()) {
    std::cerr << "disk-flag open: " << opened.status().ToString() << "\n";
    return 1;
  }
  std::unique_ptr<MultimediaDatabase> db = std::move(opened).value();
  ClassLatencies latencies;
  ClassLatencies traced;
  SpanRecorder loop_spans;
  const int64_t pages_written_before =
      CounterValue("mmdb_disk_pages_written_total");
  double user_bytes = 0.0;
  int64_t op_id = 0;
  const Clock::time_point ingest_start = Clock::now();
  for (const Item& item : corpus.items) {
    ++op_id;
    Result<ObjectId> id = Status::Internal("not run");
    auto insert = [&] {
      id = item.binary ? db->InsertBinaryImage(item.image)
                       : db->InsertEditedImage(item.script);
    };
    const bool trace_op = options.trace && (op_id % 2 == 0);
    const OpTime time = TimeOp([&] {
      if (trace_op) {
        loop_spans.Record("bench.op", op_id,
                          [&] { loop_spans.Record("storage", op_id, insert); });
      } else {
        insert();
      }
    });
    report->CountOp(id.ok());
    if (!id.ok()) {
      std::cerr << "disk-flag insert: " << id.status().ToString() << "\n";
      return 1;
    }
    report->Check(*id == item.id, "insert returned id " + std::to_string(*id) +
                                      ", expected " + std::to_string(item.id));
    (trace_op ? traced : latencies)
        .Add(item.binary ? "insert_binary" : "insert_edited", time);
    user_bytes += item.binary
                      ? 3.0 * item.image.width() * item.image.height()
                      : static_cast<double>(EncodeEditScript(item.script).size());
  }
  const double ingest_seconds = SecondsBetween(ingest_start, Clock::now());
  const CountingEnv::Counts ingest_counts = counting.counts();
  const int64_t pages_written =
      CounterValue("mmdb_disk_pages_written_total") - pages_written_before;

  Clock::time_point start = Clock::now();
  const Status flushed = db->Flush();
  const double flush_ms = SecondsBetween(start, Clock::now()) * 1e3;
  if (!flushed.ok()) {
    std::cerr << "disk-flag flush: " << flushed.ToString() << "\n";
    return 1;
  }
  const double file_bytes =
      static_cast<double>(std::filesystem::file_size(db_options.path));

  // Close and reopen; a sample fetched before must read the same after.
  Rng rng(options.seed * 7919 + 3);
  std::vector<std::pair<ObjectId, Image>> before;
  for (int i = 0; i < kReopenSample; ++i) {
    const ObjectId id = corpus.items[rng.Uniform(corpus.items.size())].id;
    Result<Image> image = db->GetImage(id);
    report->Check(image.ok(), "pre-close fetch of " + std::to_string(id));
    if (image.ok()) before.emplace_back(id, std::move(image).value());
  }
  db.reset();
  start = Clock::now();
  opened = MultimediaDatabase::Open(db_options);
  const double reopen_ms = SecondsBetween(start, Clock::now()) * 1e3;
  if (!opened.ok()) {
    std::cerr << "disk-flag reopen: " << opened.status().ToString() << "\n";
    return 1;
  }
  db = std::move(opened).value();
  report->Check(db->collection().BinaryCount() + db->collection().EditedCount() ==
                    corpus.items.size(),
                "image count changed across the reopen");
  for (const auto& [id, image] : before) {
    Result<Image> again = db->GetImage(id);
    report->Check(again.ok() && SameImage(*again, image),
                  "image " + std::to_string(id) + " changed across the reopen");
  }

  // Fetch: one closed-loop client, rounds of one binary and one edited
  // image.
  std::vector<ObjectId> binary_ids;
  std::vector<ObjectId> edited_ids;
  for (const Item& item : corpus.items) {
    (item.binary ? binary_ids : edited_ids).push_back(item.id);
  }
  std::vector<std::pair<ObjectId, Image>> fetched_binary;
  std::vector<std::pair<ObjectId, Image>> fetched_edited;
  const int64_t hits_before = CounterValue("mmdb_buffer_pool_hits_total");
  const int64_t misses_before = CounterValue("mmdb_buffer_pool_misses_total");
  const int64_t reads_before = CounterValue("mmdb_disk_pages_read_total");
  int64_t fetches = 0;
  const Clock::time_point fetch_start = Clock::now();
  double fetch_seconds = 0.0;
  int64_t fetch_rounds = 0;
  for (int64_t round = 0;; ++round) {
    ++fetch_rounds;
    for (int which = 0; which < 2; ++which) {
      const std::vector<ObjectId>& ids = which == 0 ? binary_ids : edited_ids;
      const ObjectId id = ids[rng.Uniform(ids.size())];
      ++op_id;
      Result<Image> image = Status::Internal("not run");
      const bool trace_op = options.trace && (round % 2 == 1);
      const OpTime time = TimeOp([&] {
        if (trace_op) {
          loop_spans.Record("bench.op", op_id, [&] {
            loop_spans.Record("storage", op_id,
                              [&] { image = db->GetImage(id); });
          });
        } else {
          image = db->GetImage(id);
        }
      });
      report->CountOp(image.ok());
      ++fetches;
      if (!image.ok()) {
        std::cerr << "disk-flag fetch " << id << ": "
                  << image.status().ToString() << "\n";
        continue;
      }
      (trace_op ? traced : latencies)
          .Add(which == 0 ? "fetch_binary" : "fetch_edited", time);
      auto& kept = which == 0 ? fetched_binary : fetched_edited;
      if (kept.size() < kCheckedFetches) {
        kept.emplace_back(id, std::move(image).value());
      }
    }
    fetch_seconds = SecondsBetween(fetch_start, Clock::now());
    if (fetch_seconds >= options.seconds) break;
  }
  const int64_t hits = CounterValue("mmdb_buffer_pool_hits_total") - hits_before;
  const int64_t misses =
      CounterValue("mmdb_buffer_pool_misses_total") - misses_before;
  const int64_t pages_read =
      CounterValue("mmdb_disk_pages_read_total") - reads_before;

  // Content checks: binary rasters byte-identical to the inserted ones,
  // edited images equal to the in-memory instantiation of their script.
  for (const auto& [id, image] : fetched_binary) {
    auto it = std::lower_bound(
        corpus.items.begin(), corpus.items.end(), id,
        [](const Item& item, ObjectId value) { return item.id < value; });
    report->Check(it != corpus.items.end() && it->id == id &&
                      SameImage(image, it->image),
                  "binary image " + std::to_string(id) +
                      " differs from the inserted raster");
  }
  for (const auto& [id, image] : fetched_edited) {
    Result<Image> expected = corpus.source->GetImage(id);
    report->Check(expected.ok() && SameImage(image, *expected),
                  "edited image " + std::to_string(id) +
                      " differs from its in-memory instantiation");
  }
  const auto* disk_store =
      dynamic_cast<const DiskObjectStore*>(&db->object_store());
  Result<DiskObjectStore::ScrubReport> scrub =
      disk_store != nullptr ? disk_store->Scrub()
                            : Status::Internal("store is not disk-backed");
  report->Check(scrub.ok() && scrub->clean(), "Scrub reported damage");

  // ops_per_s covers the time-bounded fetch loop; the fixed-size ingest
  // enters through the insert classes' medians in p50_ms.
  ReportLoop(options.trace ? traced : latencies, fetch_seconds, report,
             2 * fetch_rounds);
  report->Detail("ingest_images_per_s",
                 static_cast<double>(corpus.items.size()) / ingest_seconds,
                 "1/s");
  report->Detail("store_bytes_per_image",
                 file_bytes / static_cast<double>(corpus.items.size()),
                 "bytes/image");
  report->Detail("page_file_over_pool",
                 file_bytes / (static_cast<double>(db_options.pool_pages) *
                               kPageSize),
                 "ratio");

  if (options.trace) {
    const double inserts = static_cast<double>(corpus.items.size());
    report->Layer("storage.insert_binary_us",
                  traced.MedianOf("insert_binary") * 1e3);
    report->Layer("storage.insert_edited_us",
                  traced.MedianOf("insert_edited") * 1e3);
    report->Layer("storage.fsyncs_per_insert",
                  static_cast<double>(ingest_counts.syncs) / inserts);
    report->Layer("storage.pages_written_per_insert",
                  static_cast<double>(pages_written) / inserts);
    report->Layer("storage.write_amplification",
                  static_cast<double>(ingest_counts.bytes_written) /
                      std::max(1.0, user_bytes));
    report->Layer("storage.flush_ms", flush_ms);
    report->Layer("storage.reopen_ms", reopen_ms);
    report->Layer("storage.pool_hit_rate",
                  hits + misses > 0 ? static_cast<double>(hits) /
                                          static_cast<double>(hits + misses)
                                    : 0.0);
    report->Layer("storage.pages_read_per_fetch",
                  static_cast<double>(pages_read) /
                      static_cast<double>(std::max<int64_t>(1, fetches)));
    std::vector<ObjectId> sample;
    for (const auto& [id, image] : fetched_edited) sample.push_back(id);
    SpanRecorder redrive;
    redrive::Instantiate(*db, sample, &redrive, report);
    redrive::Sizes(*db, report);
    ReportTrace(loop_spans, latencies, traced, {"storage"}, report);
    loop_spans.Merge(redrive);
    WriteSpans(loop_spans, options, report);
  }
  db.reset();
  std::filesystem::remove_all(dir);
  return 0;
}

}  // namespace perfbench
