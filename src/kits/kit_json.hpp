// JSON exchange for process kits: kits are data, not code.
//
// The serializer prints every double with %.17g (the scheme of
// core::export and the golden files), which round-trips IEEE-754 binary64
// exactly; the loader parses with strtod — so kit -> JSON -> kit is
// bit-identical field for field, and a kit file produced on one machine
// reproduces the same assessment everywhere.  The loader validates on the
// way in (validate_kit): out-of-range yields, negative costs and duplicate
// kit names are rejected with messages naming the kit and field.
#pragma once

#include <string>

#include "common/json.hpp"
#include "kits/registry.hpp"

namespace ipass::kits {

// One kit as a JSON object.
std::string kit_json(const ProcessKit& kit);

// The same document appended to `out` (the serve cache key embeds it
// without an intermediate copy).
void append_kit_json(std::string& out, const ProcessKit& kit);

// A whole registry: {"kits": [ ... ]} in insertion order.
std::string registry_json(const KitRegistry& registry);

// Parse one kit object.  Throws PreconditionError on malformed JSON,
// unknown enum tokens, missing required fields, or contract violations.
ProcessKit parse_kit_json(const std::string& text);

// The same from an already-parsed JSON value — for documents that embed a
// kit object inside a larger envelope (the serve wire protocol's inline
// kits).  Validation is identical to parse_kit_json.
ProcessKit parse_kit_json_value(const JsonValue& value);

// Parse a registry document; duplicate kit names are rejected.
KitRegistry parse_registry_json(const std::string& text);

}  // namespace ipass::kits
