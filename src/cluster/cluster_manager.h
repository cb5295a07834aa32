#ifndef SEMCLUST_CLUSTER_CLUSTER_MANAGER_H_
#define SEMCLUST_CLUSTER_CLUSTER_MANAGER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "buffer/buffer_pool.h"
#include "cluster/affinity.h"
#include "cluster/dependency_graph.h"
#include "cluster/page_splitter.h"
#include "cluster/policy.h"
#include "objmodel/object_graph.h"
#include "storage/storage_manager.h"
#include "util/small_vector.h"

/// \file
/// The run-time (re)clustering algorithm — the paper's primary
/// contribution (§2.1). For every newly created instance it chooses an
/// initial placement next to the relatives it is most frequently
/// co-referenced with (frequencies inherited from the type and refined at
/// run time); on updates that change object structure it reconsiders the
/// placement. Candidate-page search is bounded by the configured pool
/// (within-buffer / k-I/O-limit / whole DB), and overflow is handled by
/// the configured page-splitting policy.
///
/// The manager mutates StorageManager placement synchronously and reports
/// the physical I/O it *owes* (candidate exams, split flush); the
/// simulation model charges those to the I/O subsystem.

namespace oodb::cluster {

/// What one placement/reclustering decision did and what it cost.
struct PlacementReport {
  /// Where the object ended up.
  store::PageId page = store::kInvalidPage;
  /// Non-resident candidate pages that were examined with a disk read and
  /// NOT chosen (the caller owes one read each; the chosen page's read is
  /// charged by the caller's own Fix). A typical placement examines a few
  /// pages, so the first eight stay inline. The report owns the list: the
  /// execution model awaits a disk read between entries, during which
  /// other users place objects through the same manager.
  SmallVector<store::PageId, 8> exam_reads;
  /// True if placement fell back to arrival-order append.
  bool appended = false;
  /// True if the decision split a page.
  bool split = false;
  store::PageId split_new_page = store::kInvalidPage;
  /// Objects relocated by the split (excluding the placed object).
  int objects_moved = 0;
  double split_broken_cost = 0;
  /// True if Recluster moved the object to a better page.
  bool relocated = false;
  store::PageId old_page = store::kInvalidPage;
};

/// Aggregate counters over a manager's lifetime.
struct ClusterStats {
  uint64_t placements = 0;
  /// Recluster() calls (reclustering *attempts*, relocated or not).
  uint64_t reclusterings = 0;
  uint64_t appends = 0;
  uint64_t relocations = 0;
  uint64_t splits = 0;
  uint64_t exam_reads = 0;
  uint64_t objects_moved_by_splits = 0;
  /// Split-algorithm effort summed over executed splits (arcs examined by
  /// the greedy pass plus branch-and-bound expansions for NP split).
  uint64_t split_search_steps = 0;
  double split_broken_cost = 0;
};

/// Executes the clustering policy against storage.
class ClusterManager {
 public:
  /// `buffer` may be null (no residency information: every candidate exam
  /// then costs I/O under kIoLimit/kWithinDb, and kWithinBuffer finds no
  /// candidates).
  ClusterManager(obj::ObjectGraph* graph, store::StorageManager* storage,
                 AffinityModel* affinity, const buffer::BufferPool* buffer,
                 ClusterConfig config);

  ClusterManager(const ClusterManager&) = delete;
  ClusterManager& operator=(const ClusterManager&) = delete;

  /// Places a newly created, not-yet-placed object.
  PlacementReport PlaceNew(obj::ObjectId id);

  /// Places the newly created objects first, first + 1, ... (object
  /// first + i of `sizes[i]` bytes) in arrival order in one pass: the
  /// placements, stats included, of sizes.size() PlaceNew calls under
  /// kNoClustering, the only pool it serves. Appends one run per page
  /// the objects landed on to `runs` (StorageManager::PlaceAppendRun).
  void AppendNew(obj::ObjectId first, std::span<const uint32_t> sizes,
                 std::vector<store::PageRun>& runs);

  /// Re-evaluates the placement of a placed object whose structure just
  /// changed; relocates it when the affinity gain clears the configured
  /// threshold.
  PlacementReport Recluster(obj::ObjectId id);

  const ClusterConfig& config() const { return config_; }
  const ClusterStats& stats() const { return stats_; }
  const store::StorageManager& storage() const { return *storage_; }
  /// Sizes the storage directory once for object ids below `objects`
  /// (StorageManager::ReserveObjects).
  void ReserveObjects(size_t objects) { storage_->ReserveObjects(objects); }
  void ResetStats() { stats_ = ClusterStats{}; }

  /// Attaches an event sink (may be null). Every placement/reclustering
  /// decision then records a kRecluster event (candidates scored, exam
  /// I/Os owed, whether the object moved), and every executed split a
  /// kPageSplit event (objects moved, broken affinity cost).
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

  /// A scored candidate page for placing `id`.
  struct Candidate {
    store::PageId page = store::kInvalidPage;
    double score = 0;
  };

  /// Scores candidate pages by summed structural affinity of `id` to the
  /// objects already resident on them (hint boosts applied), best first.
  /// Exposed for tests and benchmarks. The returned reference points at a
  /// scratch buffer owned by the manager and is invalidated by the next
  /// ScoreCandidates/PlaceNew/Recluster call (the manager, like the whole
  /// simulation cell, is single-threaded).
  const std::vector<Candidate>& ScoreCandidates(obj::ObjectId id) const;

 private:
  /// Shared engine behind PlaceNew/Recluster. `current_page` is the page
  /// the object occupies now (kInvalidPage when unplaced).
  PlacementReport PlaceImpl(obj::ObjectId id, store::PageId current_page);

  /// Executes a page split of `page` with `incoming` pending; returns true
  /// and fills `report` on success.
  bool TrySplit(obj::ObjectId incoming_id, uint32_t incoming_size,
                store::PageId page, double next_best_score,
                PlacementReport& report);

  bool IsResident(store::PageId page) const {
    return buffer_ != nullptr && buffer_->Contains(page);
  }

  obj::ObjectGraph* graph_;
  store::StorageManager* storage_;
  AffinityModel* affinity_;
  const buffer::BufferPool* buffer_;
  ClusterConfig config_;
  ClusterStats stats_;
  obs::TraceSink* trace_ = nullptr;

  // Scratch state reused across ScoreCandidates calls: placement runs once
  // per object write, and a fresh hash map per call dominated its profile.
  // Scores accumulate into a PageId-indexed flat array; a stamp per page
  // ("touched by the current call") replaces clearing, and touched_pages_
  // lists the candidates in first-touch order. MMseqs2's prefilter uses
  // the same batched flat-accumulator shape for its k-mer hit scores.
  mutable std::vector<double> page_score_;
  mutable std::vector<uint32_t> page_stamp_;
  mutable std::vector<store::PageId> touched_pages_;
  mutable uint32_t score_stamp_ = 0;
  mutable std::vector<Candidate> candidates_scratch_;
};

}  // namespace oodb::cluster

#endif  // SEMCLUST_CLUSTER_CLUSTER_MANAGER_H_
