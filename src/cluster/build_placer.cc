#include "cluster/build_placer.h"

namespace oodb::cluster {

BuildPlacer::BuildPlacer(const obj::ObjectGraph* graph,
                         ClusterManager* cluster, buffer::BufferPool* buffer)
    : graph_(graph), cluster_(cluster), buffer_(buffer) {
  OODB_CHECK(graph != nullptr);
  OODB_CHECK(cluster != nullptr);
}

void BuildPlacer::PlaceOne(obj::ObjectId id) {
  const PlacementReport report = cluster_->PlaceNew(id);
  if (buffer_ == nullptr) return;
  for (store::PageId p : report.exam_reads) buffer_->Fix(p);
  buffer_->Fix(report.page);
  buffer_->MarkDirty(report.page);
  if (report.split && report.split_new_page != store::kInvalidPage) {
    buffer_->Fix(report.split_new_page);
    buffer_->MarkDirty(report.split_new_page);
  }
}

void BuildPlacer::AppendBatch(obj::ObjectId first, size_t count) {
  OODB_CHECK_LE(count, kBuildBatchObjects);
  sizes_.resize(count);
  for (size_t k = 0; k < count; ++k) {
    sizes_[k] = graph_->object(static_cast<obj::ObjectId>(first + k))
                    .size_bytes;
  }
  runs_.clear();
  cluster_->AppendNew(first, sizes_, runs_);
  if (buffer_ == nullptr) return;
  // Consecutive appends to one page: its first Fix may miss, the rest
  // hit, and each marks the page dirty.
  for (const store::PageRun& run : runs_) {
    buffer_->FixRepeated(run.page, run.count);
    buffer_->MarkDirty(run.page);
  }
}

}  // namespace oodb::cluster
