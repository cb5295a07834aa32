#include "cluster/cluster_manager.h"

#include <algorithm>
#include <limits>

namespace oodb::cluster {

ClusterManager::ClusterManager(obj::ObjectGraph* graph,
                               store::StorageManager* storage,
                               AffinityModel* affinity,
                               const buffer::BufferPool* buffer,
                               ClusterConfig config)
    : graph_(graph),
      storage_(storage),
      affinity_(affinity),
      buffer_(buffer),
      config_(config) {
  OODB_CHECK(graph != nullptr);
  OODB_CHECK(storage != nullptr);
  OODB_CHECK(affinity != nullptr);
}

const std::vector<ClusterManager::Candidate>& ClusterManager::ScoreCandidates(
    obj::ObjectId id) const {
  // Flat PageId-indexed accumulation. A page's first touch this call
  // stores the weight; later touches add. Both the per-page addition
  // sequence and the operand order match the former hash-map version
  // (map's value-initialised 0.0 + w == w), so every score is
  // bit-identical; the final sort's strict total order (score desc, page
  // asc — pages unique) then yields the identical candidate list.
  if (page_score_.size() < storage_->page_count()) {
    // Geometric growth: page_count advances by one page at a time during
    // the build, and this runs once per placement.
    const size_t n =
        std::max(storage_->page_count(), page_score_.size() * 2);
    page_score_.resize(n, 0.0);
    page_stamp_.resize(n, 0);
  }
  ++score_stamp_;
  const uint32_t stamp = score_stamp_;
  touched_pages_.clear();
  const auto add_score = [&](store::PageId p, double w) {
    if (page_stamp_[p] != stamp) {
      page_stamp_[p] = stamp;
      page_score_[p] = w;
      touched_pages_.push_back(p);
    } else {
      page_score_[p] += w;
    }
  };

  // Batched affinity lookup: `id`'s type is fixed for the whole scan, so
  // the per-kind blended weights (plus the inheritance dereference factor)
  // are resolved once instead of per edge. The hint boost stays per-edge
  // to preserve the original multiplication order.
  const obj::TypeId type = graph_->object(id).type;
  double kind_weight[obj::kNumRelKinds];
  for (const obj::RelKind kind : obj::kAllRelKinds) {
    double w = affinity_->Weight(type, kind);
    if (kind == obj::RelKind::kInstanceInheritance) w *= 1.5;
    kind_weight[static_cast<size_t>(kind)] = w;
  }

  // No liveness probe on edge targets or siblings: an edge always joins
  // two live objects. Relate checks both ends, and Remove -- the only way
  // an object dies -- detaches the mirror edge from every neighbour
  // (DESIGN.md §12). StructureValidator::CheckEdges reports any edge to a
  // dead object as kDanglingEdge; LivenessInvariantTest in
  // tests/integration_test.cc runs it after deletes under run-time
  // clustering.
  for (const obj::Edge e : graph_->edges(id)) {
    const store::PageId p = storage_->PageOf(e.target);
    double w = kind_weight[static_cast<size_t>(e.kind)];
    if (config_.use_hints && e.kind == config_.hint_kind) {
      w *= config_.hint_boost;
    }
    if (p != store::kInvalidPage) add_score(p, w);

    // Configuration siblings are co-referenced with `id` whenever the
    // composite's components are retrieved, so their pages are candidates
    // too (at half the direct-edge affinity). This is what keeps a module
    // together once its composite's page fills up.
    if (config_.sibling_candidates &&
        e.kind == obj::RelKind::kConfiguration &&
        e.dir == obj::Direction::kUp) {
      graph_->ForEachNeighbor(
          e.target, obj::RelKind::kConfiguration, obj::Direction::kDown,
          [&](obj::ObjectId sibling) {
            if (sibling == id) return;
            const store::PageId sp = storage_->PageOf(sibling);
            if (sp != store::kInvalidPage) add_score(sp, 0.5 * w);
          });
    }
  }
  std::vector<Candidate>& candidates = candidates_scratch_;
  candidates.clear();
  candidates.reserve(touched_pages_.size());
  for (const store::PageId page : touched_pages_) {
    candidates.push_back(Candidate{page, page_score_[page]});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.page < b.page;  // deterministic tie-break
            });
  return candidates;
}

PlacementReport ClusterManager::PlaceNew(obj::ObjectId id) {
  OODB_CHECK(!storage_->IsPlaced(id));
  ++stats_.placements;
  return PlaceImpl(id, store::kInvalidPage);
}

void ClusterManager::AppendNew(obj::ObjectId first,
                               std::span<const uint32_t> sizes,
                               std::vector<store::PageRun>& runs) {
  OODB_CHECK(config_.pool == CandidatePool::kNoClustering);
  storage_->PlaceAppendRun(first, sizes, runs);
  stats_.placements += sizes.size();
  stats_.appends += sizes.size();
}

PlacementReport ClusterManager::Recluster(obj::ObjectId id) {
  const store::PageId current = storage_->PageOf(id);
  OODB_CHECK_NE(current, store::kInvalidPage);
  ++stats_.reclusterings;
  return PlaceImpl(id, current);
}

PlacementReport ClusterManager::PlaceImpl(obj::ObjectId id,
                                          store::PageId current_page) {
  PlacementReport report;
  report.old_page = current_page;
  const bool placing_new = current_page == store::kInvalidPage;
  const uint32_t size = placing_new ? graph_->object(id).size_bytes
                                    : storage_->SizeOf(id);

  if (config_.pool == CandidatePool::kNoClustering) {
    if (placing_new) {
      auto page = storage_->PlaceAppend(id, size);
      OODB_CHECK(page.ok());
      report.page = *page;
      report.appended = true;
      ++stats_.appends;
    } else {
      report.page = current_page;  // never reclusters
    }
    return report;
  }

  const std::vector<Candidate>& candidates = ScoreCandidates(id);

  double current_score = 0;
  if (!placing_new) {
    for (const Candidate& c : candidates) {
      if (c.page == current_page) {
        current_score = c.score;
        break;
      }
    }
  }

  int io_budget;
  switch (config_.pool) {
    case CandidatePool::kWithinBuffer:
      io_budget = 0;
      break;
    case CandidatePool::kIoLimit:
      io_budget = config_.io_limit;
      break;
    default:
      io_budget = std::numeric_limits<int>::max();
      break;
  }

  store::PageId chosen = store::kInvalidPage;
  bool placed_by_split = false;
  bool considered_any = false;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& cand = candidates[i];
    if (cand.page == current_page) continue;
    if (!placing_new &&
        cand.score - current_score < config_.recluster_gain_threshold) {
      break;  // sorted descending: nothing later clears the threshold
    }
    if (!IsResident(cand.page)) {
      if (io_budget <= 0) continue;  // pool forbids examining this page
      --io_budget;
      report.exam_reads.push_back(cand.page);
    }
    considered_any = true;
    if (storage_->page(cand.page).Fits(size)) {
      chosen = cand.page;
      break;
    }
    // Preferred candidate is full: split it if that is cheaper than
    // settling for the next-best candidate (paper §2.1(b)).
    if (config_.split != SplitPolicy::kNoSplit) {
      const double next_best_score =
          i + 1 < candidates.size() ? candidates[i + 1].score : 0.0;
      if (TrySplit(id, size, cand.page, next_best_score, report)) {
        chosen = report.page;
        placed_by_split = true;
        break;
      }
    }
  }

  if (chosen == store::kInvalidPage) {
    if (placing_new) {
      if (considered_any && config_.fresh_page_on_overflow) {
        // Candidate pages were examined but all were full (and splitting
        // was not chosen): open a fresh page as the nucleus this object's
        // future relatives will cluster around, rather than scattering
        // into the shared arrival-order stream. A pool that could not
        // legitimately examine any candidate (e.g. within-buffer with no
        // resident relatives) degrades to arrival order instead — the
        // paper's observed No_Clustering-like behaviour at low hit ratio.
        const store::PageId fresh = storage_->AllocatePage();
        OODB_CHECK(storage_->Place(id, size, fresh).ok());
        report.page = fresh;
      } else {
        auto page = storage_->PlaceAppend(id, size);
        OODB_CHECK(page.ok());
        report.page = *page;
        report.appended = true;
        ++stats_.appends;
      }
    } else {
      report.page = current_page;
    }
  } else if (!placed_by_split) {
    if (placing_new) {
      OODB_CHECK(storage_->Place(id, size, chosen).ok());
    } else {
      OODB_CHECK(storage_->Relocate(id, chosen).ok());
      report.relocated = true;
      ++stats_.relocations;
    }
    report.page = chosen;
  } else if (!placing_new) {
    report.relocated = report.page != current_page;
    if (report.relocated) ++stats_.relocations;
  }

  // The chosen page's demand read is charged by the caller's Fix; drop it
  // from the exam list so it is not double-counted.
  if (report.page != store::kInvalidPage) {
    auto it = std::find(report.exam_reads.begin(), report.exam_reads.end(),
                        report.page);
    if (it != report.exam_reads.end()) report.exam_reads.erase(it);
  }
  stats_.exam_reads += report.exam_reads.size();
  if (trace_ != nullptr) {
    trace_->Record(obs::Subsystem::kCluster,
                   obs::TraceEventType::kRecluster, candidates.size(),
                   report.exam_reads.size(), report.relocated ? 1 : 0);
  }
  return report;
}

bool ClusterManager::TrySplit(obj::ObjectId incoming_id,
                              uint32_t incoming_size, store::PageId page,
                              double next_best_score,
                              PlacementReport& report) {
  const uint32_t capacity = storage_->page_size_bytes();
  DependencyGraph dep = DependencyGraph::Build(
      *graph_, *affinity_, *storage_, page,
      DepNode{incoming_id, incoming_size});

  SplitResult split;
  switch (config_.split) {
    case SplitPolicy::kLinearGreedy:
      split = GreedyLinearSplit(dep, capacity);
      break;
    case SplitPolicy::kExhaustive:
      split = ExhaustiveMinCutSplit(dep, capacity);
      break;
    case SplitPolicy::kNoSplit:
      return false;
  }
  if (!split.feasible) return false;

  // Expected-cost comparison: splitting breaks `broken_cost` worth of
  // co-reference per future access (plus a fixed overhead for the extra
  // flush and log record); settling for the next-best candidate forfeits
  // the score difference. Find the incoming object's retained affinity.
  const uint32_t incoming_node = static_cast<uint32_t>(dep.nodes.size() - 1);
  OODB_CHECK_EQ(dep.nodes[incoming_node].object, incoming_id);
  double incoming_affinity_total = 0;
  double incoming_affinity_broken = 0;
  const bool incoming_on_right =
      std::find(split.right.begin(), split.right.end(), incoming_node) !=
      split.right.end();
  for (const DepArc& arc : dep.arcs) {
    if (arc.a != incoming_node && arc.b != incoming_node) continue;
    incoming_affinity_total += arc.weight;
    const uint32_t other = arc.a == incoming_node ? arc.b : arc.a;
    const bool other_on_right =
        std::find(split.right.begin(), split.right.end(), other) !=
        split.right.end();
    if (other_on_right != incoming_on_right) {
      incoming_affinity_broken += arc.weight;
    }
  }
  const double retained = incoming_affinity_total - incoming_affinity_broken;
  const double split_cost = split.broken_cost + config_.split_cost_penalty;
  if (retained - split_cost <= next_best_score) return false;

  // Execute: the left side keeps `page`; the right side moves to a fresh
  // page. Moving right-siders first guarantees room for the incoming
  // object on whichever side it belongs to.
  const store::PageId new_page = storage_->AllocatePage();
  for (uint32_t node : split.right) {
    if (node == incoming_node) continue;
    OODB_CHECK(storage_->Relocate(dep.nodes[node].object, new_page).ok());
    ++report.objects_moved;
  }
  const store::PageId target = incoming_on_right ? new_page : page;
  if (storage_->IsPlaced(incoming_id)) {
    OODB_CHECK(storage_->Relocate(incoming_id, target).ok());
  } else {
    OODB_CHECK(storage_->Place(incoming_id, incoming_size, target).ok());
  }

  report.split = true;
  report.split_new_page = new_page;
  report.split_broken_cost = split.broken_cost;
  report.page = target;
  if (trace_ != nullptr) {
    trace_->Record(obs::Subsystem::kCluster,
                   obs::TraceEventType::kPageSplit, page,
                   static_cast<uint64_t>(report.objects_moved),
                   split.search_steps, split.broken_cost);
  }
  ++stats_.splits;
  stats_.objects_moved_by_splits += static_cast<uint64_t>(report.objects_moved);
  stats_.split_search_steps += split.search_steps;
  stats_.split_broken_cost += split.broken_cost;
  return true;
}

}  // namespace oodb::cluster
