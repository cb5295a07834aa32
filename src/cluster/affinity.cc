#include "cluster/affinity.h"

#include <algorithm>

namespace oodb::cluster {

namespace {
// Observations per type before the learned component reaches full share.
constexpr uint64_t kWarmupObservations = 64;
}  // namespace

AffinityModel::AffinityModel(const obj::TypeLattice* lattice,
                             double learned_share)
    : lattice_(lattice), learned_share_(learned_share) {
  OODB_CHECK_GE(learned_share, 0.0);
  OODB_CHECK_LE(learned_share, 1.0);
  // Eager build: the table never grows afterwards, so StateFor is genuinely
  // read-only and the returned references are stable for the model's life.
  states_.resize(lattice_->size());
  for (obj::TypeId type = 0; type < states_.size(); ++type) {
    TypeState& s = states_[type];
    const auto profile = lattice_->EffectiveTraversal(type);
    double sum = 0;
    for (double w : profile) sum += w;
    for (int k = 0; k < obj::kNumRelKinds; ++k) {
      s.prior[static_cast<size_t>(k)] =
          sum > 0 ? profile[static_cast<size_t>(k)] / sum
                  : 1.0 / obj::kNumRelKinds;
    }
  }
}

const AffinityModel::TypeState& AffinityModel::StateFor(
    obj::TypeId type) const {
  OODB_CHECK_LT(type, states_.size());
  return states_[type];
}

void AffinityModel::RecordTraversal(obj::TypeId type, obj::RelKind kind) {
  OODB_CHECK_LT(type, states_.size());
  TypeState& s = states_[type];
  ++s.counts[static_cast<size_t>(kind)];
  ++s.total_count;
  s.cache_valid = false;
}

void AffinityModel::RefreshCache(const TypeState& s) const {
  if (s.total_count == 0) {
    s.cached_weights = s.prior;
  } else {
    // Ramp the learned share in with observation volume so a handful of
    // traversals does not swing placement.
    const double ramp =
        std::min(1.0, static_cast<double>(s.total_count) /
                          static_cast<double>(kWarmupObservations));
    const double share = learned_share_ * ramp;
    const double inv_total = 1.0 / static_cast<double>(s.total_count);
    for (int k = 0; k < obj::kNumRelKinds; ++k) {
      const auto i = static_cast<size_t>(k);
      const double learned = static_cast<double>(s.counts[i]) * inv_total;
      s.cached_weights[i] = (1.0 - share) * s.prior[i] + share * learned;
    }
  }
  s.cache_valid = true;
}

double AffinityModel::Weight(obj::TypeId type, obj::RelKind kind) const {
  const TypeState& s = StateFor(type);
  if (!s.cache_valid) RefreshCache(s);
  return s.cached_weights[static_cast<size_t>(kind)];
}

double AffinityModel::EdgeWeight(const obj::ObjectGraph& graph,
                                 obj::ObjectId from,
                                 const obj::Edge& edge) const {
  return KindEdgeWeight(graph.object(from).type, edge.kind);
}

double AffinityModel::KindEdgeWeight(obj::TypeId type,
                                     obj::RelKind kind) const {
  double w = Weight(type, kind);
  if (kind == obj::RelKind::kInstanceInheritance) {
    // A by-reference inherited attribute is dereferenced on reads of the
    // heir; co-locating heir and source saves that extra logical I/O, so
    // the link counts somewhat more than its raw traversal share.
    w *= 1.5;
  }
  return w;
}

}  // namespace oodb::cluster
