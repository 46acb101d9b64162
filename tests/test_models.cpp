// Workload-zoo tests: every paper workload must have coherent metadata,
// buildable deterministic proxies with balanced layer blocks (the property
// the GIB's packing relies on), and working datasets.
#include <gtest/gtest.h>

#include <cstring>

#include "models/zoo.hpp"
#include "nn/registry.hpp"

namespace osp::models {
namespace {

class PaperWorkloads
    : public ::testing::TestWithParam<runtime::WorkloadSpec> {};

TEST_P(PaperWorkloads, MetadataCoherent) {
  const runtime::WorkloadSpec& spec = GetParam();
  EXPECT_FALSE(spec.name.empty());
  EXPECT_GT(spec.real_param_bytes, 1e6);
  EXPECT_GT(spec.flops_per_sample, 1e9);
  EXPECT_GT(spec.batch_size, 0u);
  EXPECT_GT(spec.gib_overhead_fraction, 0.0);
  EXPECT_LT(spec.gib_overhead_fraction, 0.2);
  EXPECT_GT(spec.target_metric, 0.0);
  EXPECT_LE(spec.target_metric, 1.0);
  ASSERT_NE(spec.train, nullptr);
  ASSERT_NE(spec.eval, nullptr);
  EXPECT_GT(spec.train->size(), spec.eval->size());
}

TEST_P(PaperWorkloads, ModelBuildsDeterministically) {
  const runtime::WorkloadSpec& spec = GetParam();
  nn::Sequential a = spec.build_model(7);
  nn::Sequential b = spec.build_model(7);
  nn::FlatModel fa(a), fb(b);
  ASSERT_EQ(fa.total_params(), fb.total_params());
  std::vector<float> pa(fa.total_params()), pb(fb.total_params());
  fa.gather_params(pa);
  fb.gather_params(pb);
  EXPECT_EQ(pa, pb);
}

TEST_P(PaperWorkloads, DifferentSeedsDifferentInit) {
  const runtime::WorkloadSpec& spec = GetParam();
  nn::Sequential a = spec.build_model(1);
  nn::Sequential b = spec.build_model(2);
  nn::FlatModel fa(a), fb(b);
  std::vector<float> pa(fa.total_params()), pb(fb.total_params());
  fa.gather_params(pa);
  fb.gather_params(pb);
  EXPECT_NE(pa, pb);
}

TEST_P(PaperWorkloads, BlocksAreBalanced) {
  // No layer block may dominate the model: the GIB can only pack the ICS
  // budget if blocks are reasonably granular (DESIGN.md).
  const runtime::WorkloadSpec& spec = GetParam();
  nn::Sequential model = spec.build_model(3);
  nn::FlatModel flat(model);
  EXPECT_GE(flat.num_blocks(), 6u);
  const auto total = static_cast<double>(flat.total_params());
  for (std::size_t i = 0; i < flat.num_blocks(); ++i) {
    EXPECT_LT(static_cast<double>(flat.block(i).numel) / total, 0.35)
        << "block " << flat.block(i).name << " dominates the model";
  }
}

TEST_P(PaperWorkloads, ModelConsumesItsDataset) {
  const runtime::WorkloadSpec& spec = GetParam();
  nn::Sequential model = spec.build_model(5);
  std::vector<std::size_t> idx = {0, 1, 2, 3};
  const data::Batch batch = spec.train->make_batch(idx);
  const tensor::Tensor out = model.forward(batch.inputs, false);
  EXPECT_EQ(out.dim(0), 4u);
  if (spec.is_qa) {
    EXPECT_EQ(batch.starts.size(), 4u);
    EXPECT_EQ(out.dim(1) % 2, 0u);
  } else {
    EXPECT_EQ(batch.labels.size(), 4u);
  }
}

/// Parameter gradients of one training step on `spec`'s model, through
/// Sequential::backward or, with `skip_input_grad`, backward_params.
std::vector<std::vector<float>> step_grads(const runtime::WorkloadSpec& spec,
                                           bool skip_input_grad) {
  nn::Sequential model = spec.build_model(11);
  const std::vector<std::size_t> idx = {0, 1, 2, 3, 4};
  const data::Batch batch = spec.train->make_batch(idx);
  const tensor::Tensor out = model.forward(batch.inputs, true);
  tensor::Tensor grad(out.shape());
  util::Rng rng(12);
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    grad[i] = static_cast<float>(rng.normal());
  }
  model.zero_grad();
  if (skip_input_grad) {
    model.backward_params(grad);
  } else {
    (void)model.backward(grad);
  }
  std::vector<std::vector<float>> grads;
  for (const nn::ParamRef& p : model.params()) {
    grads.emplace_back(p.grad->data().begin(), p.grad->data().end());
  }
  return grads;
}

void expect_same_param_grads(const runtime::WorkloadSpec& spec) {
  const auto full = step_grads(spec, false);
  const auto skipped = step_grads(spec, true);
  ASSERT_EQ(full.size(), skipped.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    ASSERT_EQ(full[i].size(), skipped[i].size());
    EXPECT_EQ(std::memcmp(full[i].data(), skipped[i].data(),
                          full[i].size() * sizeof(float)),
              0)
        << spec.model_name << ": parameter " << i;
  }
}

TEST_P(PaperWorkloads, SkippingTheInputGradientKeepsParamGrads) {
  expect_same_param_grads(GetParam());
}

TEST(Zoo, TinyMlpSkippingTheInputGradientKeepsParamGrads) {
  expect_same_param_grads(models::tiny_mlp());
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, PaperWorkloads, ::testing::ValuesIn(paper_workloads()),
    [](const ::testing::TestParamInfo<runtime::WorkloadSpec>& info) {
      std::string name = info.param.model_name;
      return name;
    });

TEST(Zoo, FiveWorkloadsInPaperOrder) {
  const auto all = paper_workloads();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].model_name, "ResNet50");
  EXPECT_EQ(all[1].model_name, "VGG16");
  EXPECT_EQ(all[2].model_name, "InceptionV3");
  EXPECT_EQ(all[3].model_name, "ResNet101");
  EXPECT_EQ(all[4].model_name, "BERTbase");
  EXPECT_TRUE(all[4].is_qa);
  EXPECT_EQ(all[4].batch_size, 12u);  // §5.1.3: SQuAD batch size
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(all[i].batch_size, 64u);  // §5.1.3: image batch size
    EXPECT_FALSE(all[i].is_qa);
  }
}

TEST(Zoo, VggIsTheLargestImageModel) {
  // VGG16's 138 M parameters make it the most communication-bound — the
  // property the throughput experiments hinge on.
  const auto all = paper_workloads();
  for (const auto& spec : all) {
    if (spec.model_name != "VGG16") {
      EXPECT_LT(spec.real_param_bytes, vgg16_cifar10().real_param_bytes);
    }
  }
}

TEST(Zoo, TinyMlpIsFast) {
  const auto spec = tiny_mlp();
  nn::Sequential model = spec.build_model(1);
  nn::FlatModel flat(model);
  EXPECT_LT(flat.total_params(), 10000u);  // must stay unit-test cheap
  EXPECT_GE(flat.num_blocks(), 3u);
}

}  // namespace
}  // namespace osp::models
