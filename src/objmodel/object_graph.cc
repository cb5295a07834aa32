#include "objmodel/object_graph.h"

#include <algorithm>

namespace oodb::obj {

FamilyId ObjectGraph::NewFamily(std::string name) {
  family_names_.push_back(std::move(name));
  return static_cast<FamilyId>(family_names_.size() - 1);
}

void ObjectGraph::Reserve(size_t objects, size_t edge_slots,
                          size_t families) {
  family_names_.reserve(family_names_.size() + families);
  objects_.reserve(objects_.size() + objects);
  runs_.reserve(runs_.size() + objects);
  edge_target_.reserve(edge_target_.size() + edge_slots);
  edge_meta_.reserve(edge_meta_.size() + edge_slots);
}

ObjectId ObjectGraph::Create(FamilyId family, uint16_t version, TypeId type,
                             uint32_t size_bytes, uint32_t edge_capacity) {
  OODB_CHECK_LT(family, family_names_.size());
  OODB_CHECK_LT(type, lattice_->size());
  OODB_CHECK_GT(size_bytes, 0u);
  DesignObject o;
  o.family = family;
  o.version = version;
  o.type = type;
  o.size_bytes = size_bytes;
  objects_.push_back(o);
  const auto offset = static_cast<uint32_t>(edge_target_.size());
  runs_.push_back(EdgeRun{offset, 0, edge_capacity});
  edge_target_.resize(offset + edge_capacity);
  edge_meta_.resize(offset + edge_capacity);
  const auto id = static_cast<ObjectId>(objects_.size() - 1);
  ++live_count_;
  return id;
}

void ObjectGraph::GrowRun(EdgeRun& r) {
  const uint32_t new_cap = r.capacity == 0 ? 4 : 2 * r.capacity;
  const auto new_offset = static_cast<uint32_t>(edge_target_.size());
  edge_target_.resize(edge_target_.size() + new_cap);
  edge_meta_.resize(edge_meta_.size() + new_cap);
  std::copy_n(edge_target_.begin() + r.offset, r.count,
              edge_target_.begin() + new_offset);
  std::copy_n(edge_meta_.begin() + r.offset, r.count,
              edge_meta_.begin() + new_offset);
  r.offset = new_offset;
  r.capacity = new_cap;
}

void ObjectGraph::AddEdge(ObjectId obj, ObjectId target, RelKind kind,
                          Direction dir) {
  EdgeRun& r = runs_[obj];
  // A run sized from a plan has room; any other grows by doubling.
  if (r.count == r.capacity) GrowRun(r);
  edge_target_[r.offset + r.count] = target;
  edge_meta_[r.offset + r.count] = PackMeta(kind, dir);
  ++r.count;
}

void ObjectGraph::RemoveEdge(ObjectId obj, ObjectId target, RelKind kind,
                             Direction dir) {
  EdgeRun& r = runs_[obj];
  const uint8_t want = PackMeta(kind, dir);
  for (uint32_t i = 0; i < r.count; ++i) {
    if (edge_target_[r.offset + i] == target &&
        edge_meta_[r.offset + i] == want) {
      // Swap-with-last, matching the former vector implementation's order
      // semantics exactly.
      edge_target_[r.offset + i] = edge_target_[r.offset + r.count - 1];
      edge_meta_[r.offset + i] = edge_meta_[r.offset + r.count - 1];
      --r.count;
      return;
    }
  }
}

void ObjectGraph::Relate(ObjectId from, ObjectId to, RelKind kind) {
  OODB_CHECK(IsLive(from));
  OODB_CHECK(IsLive(to));
  OODB_CHECK_NE(from, to);
  if (kind == RelKind::kCorrespondence) {
    AddEdge(from, to, kind, Direction::kDown);
    AddEdge(to, from, kind, Direction::kDown);
  } else {
    AddEdge(from, to, kind, Direction::kDown);
    AddEdge(to, from, kind, Direction::kUp);
  }
}

void ObjectGraph::Remove(ObjectId id) {
  OODB_CHECK(IsLive(id));
  DesignObject& o = objects_[id];
  EdgeRun& r = runs_[id];
  // Detach the mirror edge held by each neighbour. RemoveEdge never
  // touches `id`'s own run (Relate forbids self-edges), so iterating the
  // run while detaching is safe.
  for (uint32_t i = 0; i < r.count; ++i) {
    const uint8_t meta = edge_meta_[r.offset + i];
    const auto kind = static_cast<RelKind>(meta & 0x3);
    const auto dir = static_cast<Direction>(meta >> 2);
    const Direction mirror_dir =
        kind == RelKind::kCorrespondence
            ? Direction::kDown
            : (dir == Direction::kDown ? Direction::kUp : Direction::kDown);
    RemoveEdge(edge_target_[r.offset + i], id, kind, mirror_dir);
  }
  r.count = 0;
  o.deleted = true;
  --live_count_;
}

VersionedName ObjectGraph::NameOf(ObjectId id) const {
  const DesignObject& o = object(id);
  return VersionedName{family_names_[o.family], o.version,
                       lattice_->info(o.type).name};
}

std::vector<ObjectId> ObjectGraph::Neighbors(ObjectId id, RelKind kind,
                                             Direction dir) const {
  std::vector<ObjectId> out;
  ForEachNeighbor(id, kind, dir, [&](ObjectId t) { out.push_back(t); });
  return out;
}

}  // namespace oodb::obj
