#include "oct/oct_model.h"

#include <algorithm>

namespace oodb::oct {

OctId OctDataManager::Create(OctType type, uint32_t size_bytes) {
  OctObject o;
  o.type = type;
  o.size_bytes = size_bytes;
  objects_.push_back(std::move(o));
  if (trace_ != nullptr) trace_->OnSimpleWrite();
  return static_cast<OctId>(objects_.size() - 1);
}

void OctDataManager::Attach(OctId parent, OctId child) {
  OODB_CHECK(IsLive(parent));
  OODB_CHECK(IsLive(child));
  objects_[parent].contents.push_back(child);
  objects_[child].containers.push_back(parent);
  if (trace_ != nullptr) trace_->OnStructureWrite();
}

void OctDataManager::Detach(OctId parent, OctId child) {
  OODB_CHECK(IsLive(parent));
  OODB_CHECK(IsLive(child));
  auto& contents = objects_[parent].contents;
  auto it = std::find(contents.begin(), contents.end(), child);
  if (it != contents.end()) contents.erase(it);
  auto& containers = objects_[child].containers;
  auto jt = std::find(containers.begin(), containers.end(), parent);
  if (jt != containers.end()) containers.erase(jt);
  if (trace_ != nullptr) trace_->OnStructureWrite();
}

void OctDataManager::Modify(OctId id) {
  OODB_CHECK(IsLive(id));
  if (trace_ != nullptr) trace_->OnSimpleWrite();
}

const OctObject& OctDataManager::Get(OctId id) {
  OODB_CHECK(IsLive(id));
  if (trace_ != nullptr) trace_->OnSimpleRead();
  return objects_[id];
}

std::vector<OctId> OctDataManager::Contents(OctId id,
                                            std::optional<OctType> filter) {
  OODB_CHECK(IsLive(id));
  std::vector<OctId> result;
  for (OctId c : objects_[id].contents) {
    if (!filter.has_value() || objects_[c].type == *filter) {
      result.push_back(c);
    }
  }
  if (trace_ != nullptr) {
    trace_->OnStructureRead(static_cast<uint32_t>(result.size()),
                            /*downward=*/true);
  }
  return result;
}

std::vector<OctId> OctDataManager::Containers(
    OctId id, std::optional<OctType> filter) {
  OODB_CHECK(IsLive(id));
  std::vector<OctId> result;
  for (OctId c : objects_[id].containers) {
    if (!filter.has_value() || objects_[c].type == *filter) {
      result.push_back(c);
    }
  }
  if (trace_ != nullptr) {
    trace_->OnStructureRead(static_cast<uint32_t>(result.size()),
                            /*downward=*/false);
  }
  return result;
}

}  // namespace oodb::oct
