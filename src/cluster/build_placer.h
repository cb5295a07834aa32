#ifndef SEMCLUST_CLUSTER_BUILD_PLACER_H_
#define SEMCLUST_CLUSTER_BUILD_PLACER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "buffer/buffer_pool.h"
#include "cluster/cluster_manager.h"
#include "objmodel/object_graph.h"
#include "storage/storage_manager.h"

/// \file
/// Placement of a freshly generated database. Both database builders
/// (workload::DbBuilder, ocb::OcbBuilder) first create and relate a batch
/// of objects, then hand it here to be placed in creation order through
/// the ClusterManager under test. Placement of object k sees every object
/// created before it placed and every later one unplaced, as if each
/// object had been placed when it was created: a later object's edges
/// and siblings name no page, so they neither score nor join a split
/// (DESIGN.md §12).

namespace oodb::cluster {

/// The most objects one batch holds; every per-batch buffer of the
/// builders and of the placer is bounded by it.
inline constexpr size_t kBuildBatchObjects = 4096;

/// Places builder batches and mirrors their residency into the buffer.
class BuildPlacer {
 public:
  /// `buffer` may be null (no residency mirroring and no interleaved
  /// reads).
  BuildPlacer(const obj::ObjectGraph* graph, ClusterManager* cluster,
              buffer::BufferPool* buffer);

  /// Objects a generating builder hands over at once. Only arrival-order
  /// placement gains from a batch, which it appends in one pass. A
  /// clustering pool reads the graph around each object, and in a batch
  /// it would step over the edges and siblings of the batch's later,
  /// still unplaced objects (a 48 MB No_limit build ran about 10% slower
  /// at 64 to 4096 objects per batch), so it takes one object at a time.
  size_t batch_objects() const {
    return cluster_->config().pool == CandidatePool::kNoClustering
               ? kBuildBatchObjects
               : 1;
  }

  /// True if a placement may be followed by an interleaved read: other
  /// tools reading a random existing page while the database is built.
  /// Only a pool that consults the buffer sees those reads, so under
  /// No_Clustering (or with no buffer) the builders draw none.
  bool interleaved_reads() const {
    return buffer_ != nullptr &&
           cluster_->config().pool != CandidatePool::kNoClustering;
  }

  /// Places the created, unplaced objects first .. first + count - 1 in
  /// order. The buffer mirrors the run-time write path: each examined
  /// candidate page and the written (and split-off) page are fixed and
  /// the written ones marked dirty. When interleaved_reads(), after
  /// object `id` is placed, `read(id, page_count)` returns the page the
  /// interleaved read fixes, or kInvalidPage for none. Under
  /// No_Clustering the objects are appended in one pass per
  /// kBuildBatchObjects, and each page fixed once for all its objects.
  template <typename ReadFn>
  void Place(obj::ObjectId first, size_t count, ReadFn&& read);

  /// Sizes the storage directory once for object ids below `objects`.
  void Reserve(size_t objects) { cluster_->ReserveObjects(objects); }

  /// Largest capacity any batch buffer of the placer has reached.
  size_t buffer_capacity() const {
    return std::max(sizes_.capacity(), runs_.capacity());
  }

 private:
  /// PlaceNew of one object plus its buffer mirror.
  void PlaceOne(obj::ObjectId id);
  /// Arrival-order placement of at most kBuildBatchObjects objects.
  void AppendBatch(obj::ObjectId first, size_t count);

  const obj::ObjectGraph* graph_;
  ClusterManager* cluster_;
  buffer::BufferPool* buffer_;
  // AppendBatch scratch: the batch's object sizes and the page runs they
  // landed on (a run holds at least one object).
  std::vector<uint32_t> sizes_;
  std::vector<store::PageRun> runs_;
};

template <typename ReadFn>
void BuildPlacer::Place(obj::ObjectId first, size_t count, ReadFn&& read) {
  if (cluster_->config().pool == CandidatePool::kNoClustering) {
    for (size_t done = 0; done < count; done += kBuildBatchObjects) {
      AppendBatch(static_cast<obj::ObjectId>(first + done),
                  std::min(kBuildBatchObjects, count - done));
    }
    return;
  }
  const bool reads = interleaved_reads();
  for (size_t k = 0; k < count; ++k) {
    const auto id = static_cast<obj::ObjectId>(first + k);
    PlaceOne(id);
    if (!reads) continue;
    const store::PageId page = read(id, cluster_->storage().page_count());
    if (page != store::kInvalidPage) buffer_->Fix(page);
  }
}

}  // namespace oodb::cluster

#endif  // SEMCLUST_CLUSTER_BUILD_PLACER_H_
