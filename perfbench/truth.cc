#include "truth.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

using namespace mmdb;

namespace {

/// Divisions per RGB axis of the default quantizer: 4 x 4 x 4 = 64 bins.
constexpr int kDivisions = 4;
constexpr double kTolerance = 1e-9;

int OwnBin(const Rgb& color) {
  const int r = color.r * kDivisions / 256;
  const int g = color.g * kDivisions / 256;
  const int b = color.b * kDivisions / 256;
  return (r * kDivisions + g) * kDivisions + b;
}

std::vector<double> OwnFractions(const Image& image) {
  std::vector<int64_t> counts(kDivisions * kDivisions * kDivisions, 0);
  for (const Rgb& pixel : image.pixels()) ++counts[OwnBin(pixel)];
  const int64_t total = static_cast<int64_t>(image.pixels().size());
  std::vector<double> out(counts.size(), 0.0);
  if (total > 0) {
    for (size_t i = 0; i < counts.size(); ++i) {
      out[i] = static_cast<double>(counts[i]) / static_cast<double>(total);
    }
  }
  return out;
}

double OwnL1(const std::vector<double>& x, const std::vector<double>& y) {
  double sum = 0.0;
  for (size_t i = 0; i < x.size(); ++i) sum += std::fabs(x[i] - y[i]);
  return sum;
}

}  // namespace

Result<OwnTruth> OwnTruth::Build(const MultimediaDatabase& db,
                                 int edited_sample, uint64_t seed) {
  if (db.quantizer().BinCount() != kDivisions * kDivisions * kDivisions) {
    return Status::InvalidArgument("expected the default 64-bin quantizer");
  }
  OwnTruth truth;
  truth.binary_ids_ = db.collection().binary_ids();
  std::sort(truth.binary_ids_.begin(), truth.binary_ids_.end());
  for (ObjectId id : truth.binary_ids_) {
    MMDB_ASSIGN_OR_RETURN(Image image, db.GetImage(id));
    truth.fractions_[id] = OwnFractions(image);
  }
  std::vector<ObjectId> edited = db.collection().edited_ids();
  Rng rng(seed);
  const size_t want = std::min(edited.size(), static_cast<size_t>(edited_sample));
  for (size_t i = 0; i < want; ++i) {
    std::swap(edited[i], edited[i + rng.Uniform(edited.size() - i)]);
    MMDB_ASSIGN_OR_RETURN(Image image, db.GetImage(edited[i]));
    truth.fractions_[edited[i]] = OwnFractions(image);
    truth.edited_sample_.push_back(edited[i]);
  }
  return truth;
}

double OwnTruth::BinaryShare(const std::vector<ObjectId>& ids) const {
  int64_t listed = 0;
  for (ObjectId id : ids) {
    if (std::binary_search(binary_ids_.begin(), binary_ids_.end(), id)) {
      ++listed;
    }
  }
  return binary_ids_.empty() ? 0.0
                             : static_cast<double>(listed) /
                                   static_cast<double>(binary_ids_.size());
}

void OwnTruth::CheckAnswer(const std::vector<ObjectId>& ids,
                           const Predicate& satisfies, const std::string& what,
                           Report* report) const {
  const std::set<ObjectId> answer(ids.begin(), ids.end());
  int64_t missing = 0;
  int64_t extra = 0;
  for (ObjectId id : binary_ids_) {
    const bool expected = satisfies(fractions_.at(id));
    const bool got = answer.count(id) > 0;
    if (expected && !got) ++missing;
    if (!expected && got) ++extra;
  }
  report->Check(missing == 0 && extra == 0,
                what + ": binary ids differ from the pixel counts (" +
                    std::to_string(missing) + " missing, " +
                    std::to_string(extra) + " extra)");
  int64_t false_negatives = 0;
  for (ObjectId id : edited_sample_) {
    if (satisfies(fractions_.at(id)) && answer.count(id) == 0) {
      ++false_negatives;
    }
  }
  report->Check(false_negatives == 0,
                what + ": " + std::to_string(false_negatives) +
                    " sampled edited images satisfy it but are not listed");
}

void OwnTruth::CheckTopK(const SimilarityQuery& query,
                         const QueryResult& result, Report* report) const {
  std::vector<double> q(query.histogram.BinCount(), 0.0);
  const int64_t total = query.histogram.Total();
  for (BinIndex bin = 0; bin < query.histogram.BinCount(); ++bin) {
    q[bin] = total > 0 ? static_cast<double>(query.histogram.Count(bin)) /
                             static_cast<double>(total)
                       : 0.0;
  }
  report->Check(result.matches.size() == result.ids.size(),
                "top-k: matches and ids differ in length");
  std::vector<double> his;
  std::set<ObjectId> answer;
  for (const SimilarityMatch& match : result.matches) {
    his.push_back(match.distance_hi);
    answer.insert(match.id);
    auto it = fractions_.find(match.id);
    if (it == fractions_.end()) continue;
    const double truth = OwnL1(q, it->second);
    if (std::binary_search(binary_ids_.begin(), binary_ids_.end(), match.id)) {
      report->Check(std::fabs(match.distance_lo - truth) <= kTolerance &&
                        std::fabs(match.distance_hi - truth) <= kTolerance,
                    "top-k: binary distance of " + std::to_string(match.id) +
                        " differs from the benchmark's L1");
    } else {
      report->Check(truth >= match.distance_lo - kTolerance &&
                        truth <= match.distance_hi + kTolerance,
                    "top-k: true distance of " + std::to_string(match.id) +
                        " lies outside its interval");
    }
  }
  std::sort(his.begin(), his.end());
  const double cutoff = his.size() >= query.k && query.k > 0
                            ? his[query.k - 1]
                            : std::numeric_limits<double>::infinity();
  int64_t missing = 0;
  for (const auto& [id, fractions] : fractions_) {
    if (OwnL1(q, fractions) <= cutoff - kTolerance && answer.count(id) == 0) {
      ++missing;
    }
  }
  report->Check(missing == 0, "top-k: " + std::to_string(missing) +
                                  " images within the k-th distance_hi are "
                                  "missing from the answer");
}

std::vector<ConjunctiveQuery> GroundedConjunctions(const MultimediaDatabase& db,
                                                   int count, Rng& rng) {
  std::vector<ConjunctiveQuery> out;
  const std::vector<ObjectId>& ids = db.collection().binary_ids();
  while (static_cast<int>(out.size()) < count) {
    const ColorHistogram& histogram =
        db.collection().FindBinary(ids[rng.Uniform(ids.size())])->histogram;
    std::vector<BinIndex> occupied;
    for (BinIndex bin = 0; bin < histogram.BinCount(); ++bin) {
      if (histogram.Fraction(bin) >= 0.02) occupied.push_back(bin);
    }
    const size_t want = 2 + rng.Uniform(2);
    if (occupied.size() < want) continue;
    ConjunctiveQuery query;
    for (size_t i = 0; i < want; ++i) {
      std::swap(occupied[i], occupied[i + rng.Uniform(occupied.size() - i)]);
      const double fraction = histogram.Fraction(occupied[i]);
      query.conjuncts.push_back({occupied[i], std::max(0.0, fraction - 0.02),
                                 std::min(1.0, fraction + 0.02)});
    }
    out.push_back(std::move(query));
  }
  return out;
}

}  // namespace perfbench
