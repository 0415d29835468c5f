#include "common/schema.h"

namespace aseq {

namespace {
const std::string kUnknownName = "?";
}  // namespace

EventTypeId Schema::RegisterEventType(std::string_view name) {
  auto it = type_ids_.find(name);
  if (it != type_ids_.end()) return it->second;
  EventTypeId id = static_cast<EventTypeId>(type_names_.size());
  type_names_.emplace_back(name);
  type_ids_.emplace(type_names_.back(), id);
  return id;
}

AttrId Schema::RegisterAttribute(std::string_view name) {
  auto it = attr_ids_.find(name);
  if (it != attr_ids_.end()) return it->second;
  AttrId id = static_cast<AttrId>(attr_names_.size());
  attr_names_.emplace_back(name);
  attr_ids_.emplace(attr_names_.back(), id);
  return id;
}

Result<EventTypeId> Schema::FindEventType(std::string_view name) const {
  auto it = type_ids_.find(name);
  if (it == type_ids_.end()) {
    return Status::NotFound("unknown event type: " + std::string(name));
  }
  return it->second;
}

Result<AttrId> Schema::FindAttribute(std::string_view name) const {
  auto it = attr_ids_.find(name);
  if (it == attr_ids_.end()) {
    return Status::NotFound("unknown attribute: " + std::string(name));
  }
  return it->second;
}

const std::string& Schema::EventTypeName(EventTypeId id) const {
  if (id >= type_names_.size()) return kUnknownName;
  return type_names_[id];
}

const std::string& Schema::AttributeName(AttrId id) const {
  if (id >= attr_names_.size()) return kUnknownName;
  return attr_names_[id];
}

}  // namespace aseq
