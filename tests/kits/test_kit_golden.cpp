// Byte-for-byte goldens of the kit serializer: tests/kits/golden/ holds the
// kit_json output of the 7 registry kits and one multi-die kit, committed
// from the snprintf-based writer.  The one-pass append writer must keep
// every byte, so kit files, journals and serve cache keys stay valid.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "kits/kit_json.hpp"
#include "kits/registry.hpp"

#ifndef IPASS_KIT_GOLDEN_DIR
#error "IPASS_KIT_GOLDEN_DIR must point at tests/kits/golden"
#endif

namespace ipass::kits {
namespace {

std::string read_golden(const std::string& name) {
  const std::string path = std::string(IPASS_KIT_GOLDEN_DIR) + "/" + name + ".json";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// A multi-die kit built to exercise every branch of the serializer: four
// dies, names that need escaping, and numbers from denormal to huge.
inline ProcessKit golden_multi_die_kit() {
  ProcessKit kit = builtin_kit_registry().at(kSiInterposerKit);
  kit.name = "multi-die \"sip\"\\golden";
  kit.version = "v2\ttab";
  kit.notes = "four dies\nline two \x01 control";
  kit.substrate.cost_per_cm2 = 0.1;
  kit.substrate.routing_overhead = 1.0 / 3.0;
  kit.substrate.edge_clearance_mm = 4.9406564584124654e-324;  // min denormal
  kit.passives.integrated_filter_spacing_mm2 = -0.0;
  kit.corner.cost_scale = 1e21;
  kit.corner.fault_scale = 2.2250738585072014e-308;  // DBL_MIN
  KitVariant& v = kit.variants.back();
  v.production.bond_cost = 123456789012345678.0;
  v.production.bond_yield = 0.99999999999999989;
  v.production.volume = 1.7976931348623157e308;  // DBL_MAX
  v.production.dies = {
      {"cpu", 12.5, 0.9, 0.25, 0.5, 1e5},
      {"io \"die\"", 3.0e-7, 0.999, 0.0, 1.0, 0.0},
      {"hbm\\stack", 45.0, 0.95, 1.75, 0.125, 2.5e6},
      {"rf", 1.0 / 7.0, 2.0 / 3.0, 1e-5, 0.1, 42.0},
  };
  return kit;
}

TEST(KitJsonGolden, RegistryKitsMatchByteForByte) {
  const KitRegistry registry = builtin_kit_registry();
  ASSERT_EQ(registry.kits().size(), 7U);
  for (const ProcessKit& kit : registry.kits()) {
    EXPECT_EQ(kit_json(kit), read_golden(kit.name)) << kit.name;
  }
}

TEST(KitJsonGolden, MultiDieKitMatchesByteForByte) {
  EXPECT_EQ(kit_json(golden_multi_die_kit()), read_golden("multi-die-sip"));
}

TEST(KitJsonGolden, AppendFormEmbedsTheSameDocument) {
  const ProcessKit kit = golden_multi_die_kit();
  std::string out = "prefix:";
  append_kit_json(out, kit);
  EXPECT_EQ(out, "prefix:" + read_golden("multi-die-sip"));
}

TEST(KitJsonGolden, RegistryDocumentConcatenatesTheKitGoldens) {
  const KitRegistry registry = builtin_kit_registry();
  std::string want = "{\"kits\": [\n";
  for (std::size_t i = 0; i < registry.kits().size(); ++i) {
    if (i > 0) want += ",\n";
    want += read_golden(registry.kits()[i].name);
  }
  want += "]}\n";
  EXPECT_EQ(registry_json(registry), want);
}

}  // namespace
}  // namespace ipass::kits
