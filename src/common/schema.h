#ifndef ASEQ_COMMON_SCHEMA_H_
#define ASEQ_COMMON_SCHEMA_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace aseq {

/// Dense id of an event type within a Schema.
using EventTypeId = uint32_t;
/// Dense id of an attribute name within a Schema.
using AttrId = uint32_t;

/// Sentinel for "no such type/attribute".
inline constexpr EventTypeId kInvalidEventType = UINT32_MAX;
inline constexpr AttrId kInvalidAttr = UINT32_MAX;

/// \brief Catalog of event types and attribute names.
///
/// Interns names to dense integer ids so the per-event hot paths (pattern
/// position lookup, predicate evaluation) never compare strings. Events are
/// schemaless beyond their type: any attribute may appear on any event; the
/// Schema only provides the name<->id mapping.
///
/// Registration is idempotent: registering an existing name returns the
/// existing id.
class Schema {
 public:
  Schema() = default;

  /// Registers (or looks up) an event type by name and returns its id.
  EventTypeId RegisterEventType(std::string_view name);

  /// Registers (or looks up) an attribute by name and returns its id.
  AttrId RegisterAttribute(std::string_view name);

  /// Looks up an event type id; error if the name was never registered.
  Result<EventTypeId> FindEventType(std::string_view name) const;

  /// Looks up an attribute id; error if the name was never registered.
  Result<AttrId> FindAttribute(std::string_view name) const;

  /// Name of a registered event type; "?" for invalid ids.
  const std::string& EventTypeName(EventTypeId id) const;

  /// Name of a registered attribute; "?" for invalid ids.
  const std::string& AttributeName(AttrId id) const;

  size_t num_event_types() const { return type_names_.size(); }
  size_t num_attributes() const { return attr_names_.size(); }

 private:
  /// Transparent hash: lookups by string_view build no std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  template <typename Id>
  using NameMap =
      std::unordered_map<std::string, Id, NameHash, std::equal_to<>>;

  NameMap<EventTypeId> type_ids_;
  std::vector<std::string> type_names_;
  NameMap<AttrId> attr_ids_;
  std::vector<std::string> attr_names_;
};

}  // namespace aseq

#endif  // ASEQ_COMMON_SCHEMA_H_
