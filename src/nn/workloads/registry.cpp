#include "nn/workloads.hpp"

#include <array>
#include <string_view>

#include "util/check.hpp"

namespace rota::nn {

namespace {

struct ZooEntry {
  std::string_view abbr;
  Network (*make)();
};

/// Table II in order, then the extended zoo. Each abbreviation is the one
/// its builder gives the network (checked by WorkloadRegistry tests).
constexpr std::array<ZooEntry, 12> kZoo{{
    {"Res", make_resnet50},
    {"Inc", make_inception_v4},
    {"YL", make_yolo_v3},
    {"Sqz", make_squeezenet},
    {"Mb", make_mobilenet_v3},
    {"Eff", make_efficientnet_b0},
    {"VT", make_vit_b16},
    {"MVT", make_mobilevit_s},
    {"LM", make_llama2_7b},
    {"AN", make_alexnet},
    {"VGG", make_vgg16},
    {"BRT", make_bert_base},
}};
constexpr std::size_t kTableII = 9;

std::vector<Network> build(std::size_t count) {
  std::vector<Network> nets;
  nets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) nets.push_back(kZoo[i].make());
  return nets;
}

}  // namespace

std::vector<Network> all_workloads() { return build(kTableII); }

std::vector<Network> extended_workloads() { return build(kZoo.size()); }

Network workload_by_abbr(const std::string& abbr) {
  for (const ZooEntry& entry : kZoo) {
    if (entry.abbr == abbr) return entry.make();
  }
  ROTA_REQUIRE(false, "unknown workload abbreviation: " + abbr);
  throw util::precondition_error("unreachable");
}

}  // namespace rota::nn
