#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>

#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "nn/workloads.hpp"
#include "util/check.hpp"

namespace rota::nn {
namespace {

using util::precondition_error;

// ---------------------------------------------------------------- layer ----

TEST(Layer, ConvOutputDims) {
  // 224×224 input, 7×7 kernel, stride 2, pad 3 → 112×112 (ResNet conv1).
  const LayerSpec l = conv("conv1", 3, 64, 224, 7, 2, 3);
  EXPECT_EQ(l.out_h(), 112);
  EXPECT_EQ(l.out_w(), 112);
  EXPECT_EQ(l.macs(), 64LL * 3 * 112 * 112 * 7 * 7);
  EXPECT_EQ(l.weight_words(), 64LL * 3 * 7 * 7);
  EXPECT_EQ(l.input_words(), 3LL * 224 * 224);
  EXPECT_EQ(l.output_words(), 64LL * 112 * 112);
}

TEST(Layer, SamePaddingDefault) {
  const LayerSpec l = conv("c", 16, 16, 28, 3, 1);  // pad defaults to 1
  EXPECT_EQ(l.pad_h, 1);
  EXPECT_EQ(l.out_h(), 28);
}

TEST(Layer, ValidConvNoPad) {
  const LayerSpec l = conv("c", 3, 96, 224, 7, 2, 0);  // SqueezeNet conv1
  EXPECT_EQ(l.out_h(), 109);
}

TEST(Layer, AsymmetricKernelDims) {
  // 1×7 conv with 'same' width padding keeps the map square.
  const LayerSpec l = conv2d("a", 64, 64, 17, 17, 1, 7, 1, 0, 3);
  EXPECT_EQ(l.out_h(), 17);
  EXPECT_EQ(l.out_w(), 17);
  EXPECT_EQ(l.weight_words(), 64LL * 64 * 1 * 7);
}

TEST(Layer, DepthwiseSemantics) {
  const LayerSpec l = dwconv("dw", 32, 56, 3, 1);
  EXPECT_EQ(l.kind, LayerKind::kDepthwise);
  EXPECT_EQ(l.groups, 32);
  EXPECT_EQ(l.channels_per_group(), 1);
  EXPECT_EQ(l.macs(), 32LL * 56 * 56 * 9);
  EXPECT_EQ(l.weight_words(), 32LL * 9);
}

TEST(Layer, GroupConvSemantics) {
  const LayerSpec l = group_conv("g", 32, 64, 28, 3, 1, 4);
  EXPECT_EQ(l.kind, LayerKind::kGroupConv);
  EXPECT_EQ(l.channels_per_group(), 8);
  EXPECT_EQ(l.macs(), 64LL * 8 * 28 * 28 * 9);
}

TEST(Layer, GemmMapsToUnitKernelNest) {
  const LayerSpec l = gemm("g", 197, 768, 3072);
  EXPECT_EQ(l.kind, LayerKind::kGemm);
  EXPECT_EQ(l.out_h(), 197);  // M → P
  EXPECT_EQ(l.out_w(), 1);
  EXPECT_EQ(l.out_channels, 768);   // N → K
  EXPECT_EQ(l.in_channels, 3072);   // reduction → C
  EXPECT_EQ(l.macs(), 197LL * 768 * 3072);
}

TEST(Layer, BatchedGemmScalesMacs) {
  const LayerSpec l = gemm("attn", 197, 197, 64, 12);
  EXPECT_EQ(l.macs(), 12LL * 197 * 197 * 64);
}

LayerSpec base_valid() { return conv("ok", 8, 16, 28, 3, 1); }

TEST(Layer, ValidationRejectsInconsistentSpecs) {
  {
    LayerSpec s = base_valid();
    s.out_channels = 0;
    EXPECT_THROW(s.validate(), precondition_error);
  }
  {
    LayerSpec s = base_valid();
    s.stride_h = 0;
    EXPECT_THROW(s.validate(), precondition_error);
  }
  {
    LayerSpec s = base_valid();
    s.groups = 3;  // does not divide 8 input channels
    EXPECT_THROW(s.validate(), precondition_error);
  }
  {
    LayerSpec s = base_valid();
    s.kernel_h = 64;  // larger than padded input
    EXPECT_THROW(s.validate(), precondition_error);
  }
  {
    LayerSpec s = base_valid();
    s.name.clear();
    EXPECT_THROW(s.validate(), precondition_error);
  }
  {
    LayerSpec s = base_valid();
    s.pad_h = -1;
    EXPECT_THROW(s.validate(), precondition_error);
  }
  {
    LayerSpec s = base_valid();
    s.kind = LayerKind::kDepthwise;  // groups == 1 but depthwise claimed
    EXPECT_THROW(s.validate(), precondition_error);
  }
}

TEST(Layer, ShapeKeyIgnoresName) {
  LayerSpec a = conv("first", 8, 16, 28, 3, 1);
  LayerSpec b = conv("second", 8, 16, 28, 3, 1);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_EQ(a.shape_key(), b.shape_key());
  b.stride_h = 2;
  b.stride_w = 2;
  EXPECT_FALSE(a.same_shape(b));
  EXPECT_NE(a.shape_key(), b.shape_key());
}

// -------------------------------------------------------------- network ----

TEST(Network, RejectsDuplicateLayerNames) {
  Network net("Test", "T", Domain::kLightweight);
  net.add(conv("l1", 3, 8, 28, 3, 1));
  EXPECT_THROW(net.add(conv("l1", 8, 8, 28, 3, 1)), precondition_error);
}

TEST(Network, LayerLookup) {
  Network net("Test", "T", Domain::kLightweight);
  net.add(conv("l1", 3, 8, 28, 3, 1));
  EXPECT_EQ(net.layer("l1").out_channels, 8);
  EXPECT_THROW((void)net.layer("nope"), precondition_error);
}

TEST(Network, TotalMacsIsLayerSum) {
  Network net("Test", "T", Domain::kLightweight);
  net.add(conv("l1", 3, 8, 28, 3, 1));
  net.add(gemm("l2", 1, 10, 8));
  EXPECT_EQ(net.total_macs(), net.layer("l1").macs() + net.layer("l2").macs());
}

// ---------------------------------------------------------- workload zoo ----

struct ZooExpectation {
  const char* abbr;
  double min_gmacs;  // plausibility window around published numbers
  double max_gmacs;
  std::size_t min_layers;
};

// Without a printer gtest dumps the raw bytes of the struct, pointer included,
// so the listed test names would change with every address-space layout.
void PrintTo(const ZooExpectation& expect, std::ostream* os) { *os << expect.abbr; }

class WorkloadZoo : public ::testing::TestWithParam<ZooExpectation> {};

TEST_P(WorkloadZoo, BuildsValidatedAndPlausible) {
  const auto& expect = GetParam();
  const Network net = workload_by_abbr(expect.abbr);
  EXPECT_GE(net.layer_count(), expect.min_layers);
  const double gmacs = static_cast<double>(net.total_macs()) / 1e9;
  EXPECT_GE(gmacs, expect.min_gmacs) << net.name();
  EXPECT_LE(gmacs, expect.max_gmacs) << net.name();
  // Every layer validates and has unique names (enforced by add()).
  std::set<std::string> names;
  for (const auto& l : net.layers()) {
    EXPECT_NO_THROW(l.validate());
    names.insert(l.name);
  }
  EXPECT_EQ(names.size(), net.layer_count());
}

// Published MAC counts (≈ FLOPs/2): ResNet-50 4.1, Inception-v4 ~12,
// YOLOv3@416 ~32.8, SqueezeNet ~0.8, MobileNetV3-L ~0.22, EffNet-B0 ~0.39,
// ViT-B/16 ~17.6 (incl. attention), MobileViT-S ~1.0, Llama-2-7B@512 ~3400.
// Windows are deliberately wide: this model omits pools/activations.
INSTANTIATE_TEST_SUITE_P(
    TableII, WorkloadZoo,
    ::testing::Values(ZooExpectation{"Res", 3.0, 5.5, 50},
                      ZooExpectation{"Inc", 6.0, 18.0, 60},
                      ZooExpectation{"YL", 24.0, 42.0, 70},
                      ZooExpectation{"Sqz", 0.5, 1.2, 25},
                      ZooExpectation{"Mb", 0.12, 0.40, 45},
                      ZooExpectation{"Eff", 0.25, 0.60, 60},
                      ZooExpectation{"VT", 8.0, 25.0, 70},
                      ZooExpectation{"MVT", 0.5, 3.0, 60},
                      ZooExpectation{"LM", 1500.0, 6000.0, 200}),
    [](const ::testing::TestParamInfo<ZooExpectation>& param_info) {
      return std::string(param_info.param.abbr);
    });

TEST(WorkloadRegistry, HasNineNetworksMatchingTableII) {
  const auto nets = all_workloads();
  ASSERT_EQ(nets.size(), 9u);
  const std::vector<std::string> abbrs{"Res", "Inc", "YL", "Sqz", "Mb",
                                       "Eff", "VT",  "MVT", "LM"};
  for (std::size_t i = 0; i < abbrs.size(); ++i)
    EXPECT_EQ(nets[i].abbr(), abbrs[i]);
}

TEST(WorkloadRegistry, UnknownAbbreviationThrows) {
  EXPECT_THROW(workload_by_abbr("nope"), precondition_error);
  try {
    (void)workload_by_abbr("nope");
    FAIL() << "no exception";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    const std::string tail = " — unknown workload abbreviation: nope";
    ASSERT_GE(what.size(), tail.size()) << what;
    EXPECT_EQ(what.substr(what.size() - tail.size()), tail) << what;
    EXPECT_EQ(what.rfind("precondition failed: false at ", 0), 0u) << what;
  }
  // Lookup is exact: no prefix or case folding.
  EXPECT_THROW(workload_by_abbr("res"), precondition_error);
  EXPECT_THROW(workload_by_abbr(""), precondition_error);
}

TEST(WorkloadRegistry, LookupBuildsTheZooEntryLayerByLayer) {
  for (const Network& zoo : extended_workloads()) {
    const Network net = workload_by_abbr(zoo.abbr());
    EXPECT_EQ(net.name(), zoo.name());
    EXPECT_EQ(net.abbr(), zoo.abbr());
    EXPECT_EQ(net.domain(), zoo.domain());
    ASSERT_EQ(net.layer_count(), zoo.layer_count()) << zoo.abbr();
    for (std::size_t i = 0; i < zoo.layer_count(); ++i) {
      const LayerSpec& a = net.layers()[i];
      const LayerSpec& b = zoo.layers()[i];
      EXPECT_EQ(a.name, b.name) << zoo.abbr() << " layer " << i;
      EXPECT_TRUE(a.same_shape(b)) << zoo.abbr() << " " << b.name;
    }
  }
}

TEST(WorkloadRegistry, ExtendedZooAddsThreeNetworks) {
  const auto nets = extended_workloads();
  ASSERT_EQ(nets.size(), 12u);
  EXPECT_EQ(nets[9].abbr(), "AN");
  EXPECT_EQ(nets[10].abbr(), "VGG");
  EXPECT_EQ(nets[11].abbr(), "BRT");
  // Table II membership is unchanged.
  EXPECT_EQ(all_workloads().size(), 9u);
}

TEST(WorkloadExtra, AlexNetPlausible) {
  const Network an = make_alexnet();
  const double gmacs = static_cast<double>(an.total_macs()) / 1e9;
  // Published: ~0.72 GMACs (grouped single-tower variant ~0.66).
  EXPECT_GT(gmacs, 0.4);
  EXPECT_LT(gmacs, 1.1);
  EXPECT_EQ(an.layer("conv2").groups, 2);
}

TEST(WorkloadExtra, Vgg16Plausible) {
  const Network vgg = make_vgg16();
  const double gmacs = static_cast<double>(vgg.total_macs()) / 1e9;
  // Published: ~15.5 GMACs.
  EXPECT_GT(gmacs, 13.0);
  EXPECT_LT(gmacs, 18.0);
  EXPECT_EQ(vgg.layer_count(), 16u);
}

TEST(WorkloadExtra, BertBasePlausible) {
  const Network bert = make_bert_base();
  const double gmacs = static_cast<double>(bert.total_macs()) / 1e9;
  // ~86M encoder matmul params × 128 tokens ≈ 11 GMACs (+ attention).
  EXPECT_GT(gmacs, 8.0);
  EXPECT_LT(gmacs, 14.0);
}

TEST(WorkloadExtra, ExtendedZooSchedulesAndLevels) {
  for (const char* abbr : {"AN", "VGG", "BRT"}) {
    const Network net = workload_by_abbr(abbr);
    for (const auto& l : net.layers()) EXPECT_NO_THROW(l.validate());
  }
}

TEST(WorkloadRegistry, DomainsMatchTableII) {
  EXPECT_EQ(workload_by_abbr("Res").domain(), Domain::kImageClassification);
  EXPECT_EQ(workload_by_abbr("YL").domain(), Domain::kObjectDetection);
  EXPECT_EQ(workload_by_abbr("Sqz").domain(), Domain::kLightweight);
  EXPECT_EQ(workload_by_abbr("LM").domain(), Domain::kTransformer);
}

TEST(WorkloadZoo, RepeatedBlocksShareShapes) {
  // Llama's 32 identical decoder layers must deduplicate heavily.
  const Network lm = make_llama2_7b();
  EXPECT_LE(lm.unique_shape_count(), 10u);
  EXPECT_GE(lm.layer_count(), 280u);
}

TEST(WorkloadZoo, InceptionHasAsymmetricKernels) {
  const Network inc = make_inception_v4();
  bool has_1x7 = false;
  bool has_7x1 = false;
  for (const auto& l : inc.layers()) {
    if (l.kernel_h == 1 && l.kernel_w == 7) has_1x7 = true;
    if (l.kernel_h == 7 && l.kernel_w == 1) has_7x1 = true;
  }
  EXPECT_TRUE(has_1x7);
  EXPECT_TRUE(has_7x1);
}

TEST(WorkloadZoo, LightweightNetworksUseDepthwise) {
  for (const char* abbr : {"Mb", "Eff", "MVT"}) {
    const Network net = workload_by_abbr(abbr);
    bool has_dw = false;
    for (const auto& l : net.layers())
      if (l.kind == LayerKind::kDepthwise) has_dw = true;
    EXPECT_TRUE(has_dw) << abbr;
  }
}

TEST(WorkloadZoo, TransformersUseBatchedGemms) {
  for (const char* abbr : {"VT", "MVT", "LM"}) {
    const Network net = workload_by_abbr(abbr);
    bool has_batched = false;
    for (const auto& l : net.layers())
      if (l.kind == LayerKind::kGemm && l.batch > 1) has_batched = true;
    EXPECT_TRUE(has_batched) << abbr;
  }
}

}  // namespace
}  // namespace rota::nn
