#ifndef MMDB_PERFBENCH_TRUTH_H_
#define MMDB_PERFBENCH_TRUTH_H_

// The benchmark's own ground truth for query answers: per-bin pixel
// fractions counted from fetched pixels with the benchmark's own bin
// mapping, and the checks that compare the program's answers with them.

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "mmdb.h"

namespace perfbench {

class OwnTruth {
 public:
  using Predicate = std::function<bool(const std::vector<double>&)>;

  /// Counts the fractions of every binary image and of `edited_sample`
  /// edited images drawn with `seed` (instantiated by `GetImage`).
  static mmdb::Result<OwnTruth> Build(const mmdb::MultimediaDatabase& db,
                                      int edited_sample, uint64_t seed);

  const std::vector<mmdb::ObjectId>& binary_ids() const { return binary_ids_; }
  const std::vector<mmdb::ObjectId>& edited_sample() const {
    return edited_sample_;
  }
  /// Fractions of a binary or sampled edited image.
  const std::vector<double>& Fractions(mmdb::ObjectId id) const {
    return fractions_.at(id);
  }

  /// Share of the binary images that `ids` lists.
  double BinaryShare(const std::vector<mmdb::ObjectId>& ids) const;

  /// The binary ids in `ids` must be exactly the binary images that
  /// satisfy `satisfies`, and every sampled edited image that satisfies
  /// it must be listed (no false negatives).
  void CheckAnswer(const std::vector<mmdb::ObjectId>& ids,
                   const Predicate& satisfies, const std::string& what,
                   Report* report) const;

  /// Top-k soundness: binary distances equal the benchmark's own L1,
  /// each sampled edited image's true distance lies in its interval, and
  /// every image whose true distance is at most the k-th smallest
  /// returned `distance_hi` is in the answer.
  void CheckTopK(const mmdb::SimilarityQuery& query,
                 const mmdb::QueryResult& result, Report* report) const;

 private:
  std::map<mmdb::ObjectId, std::vector<double>> fractions_;
  std::vector<mmdb::ObjectId> binary_ids_;
  std::vector<mmdb::ObjectId> edited_sample_;
};

/// Selective conjunctions grounded in stored binary images: 2-3 of one
/// image's occupied bins, each a +-2% window around its fraction.
std::vector<mmdb::ConjunctiveQuery> GroundedConjunctions(
    const mmdb::MultimediaDatabase& db, int count, mmdb::Rng& rng);

}  // namespace perfbench

#endif  // MMDB_PERFBENCH_TRUTH_H_
