#include "runtime/worker_math.hpp"

#include <numeric>

#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "util/check.hpp"

namespace osp::runtime {

void evaluate_batches(nn::Sequential& model, nn::FlatModel& flat,
                      std::span<const float> params, EvalJob& job,
                      std::size_t begin, std::size_t end) {
  OSP_CHECK(job.dataset != nullptr, "eval job has no dataset");
  OSP_CHECK(end <= job.metric.size() && end <= job.loss.size(),
            "eval batch range out of bounds");
  flat.scatter_params(params);
  std::vector<std::size_t> idx(job.batch_size);
  for (std::size_t i = begin; i < end; ++i) {
    std::iota(idx.begin(), idx.end(), i * job.batch_size);
    data::Batch batch = job.dataset->make_batch(idx);
    const tensor::Tensor logits = model.forward(std::move(batch.inputs), false);
    if (job.is_qa) {
      job.metric[i] = nn::batch_span_f1(logits, batch.starts, batch.ends);
      job.loss[i] =
          nn::span_cross_entropy(logits, batch.starts, batch.ends).loss;
    } else {
      job.metric[i] = nn::top1_accuracy(logits, batch.labels);
      job.loss[i] = nn::softmax_cross_entropy(logits, batch.labels).loss;
    }
  }
}

ReplicaPool::ReplicaPool(std::function<nn::Sequential(std::uint64_t)> build,
                         std::uint64_t seed)
    : build_(std::move(build)), seed_(seed) {
  OSP_CHECK(build_ != nullptr, "replica pool needs a model builder");
}

ReplicaPool::~ReplicaPool() = default;

std::unique_ptr<ReplicaPool::Replica> ReplicaPool::acquire() {
  {
    std::scoped_lock lock(mu_);
    if (!free_.empty()) {
      auto r = std::move(free_.back());
      free_.pop_back();
      return r;
    }
    ++built_;
  }
  // Build outside the lock: model construction is the expensive part and
  // the builder is a pure function of the seed.
  auto r = std::make_unique<Replica>();
  r->model = build_(seed_);
  r->flat = std::make_unique<nn::FlatModel>(r->model);
  return r;
}

void ReplicaPool::release(std::unique_ptr<Replica> r) {
  std::scoped_lock lock(mu_);
  free_.push_back(std::move(r));
}

std::size_t ReplicaPool::replicas_built() const {
  std::scoped_lock lock(mu_);
  return built_;
}

void ReplicaPool::execute(MathJob& job) {
  OSP_CHECK(job.loader != nullptr, "math job has no loader");
  std::unique_ptr<Replica> r = acquire();

  data::Batch batch = job.loader->batch(job.epoch, job.batch_index);
  r->flat->scatter_params(job.params);
  r->model.zero_grad();
  job.samples = batch.size();
  const tensor::Tensor logits =
      r->model.forward(std::move(batch.inputs), true);
  const nn::LossResult loss =
      job.is_qa ? nn::span_cross_entropy(logits, batch.starts, batch.ends)
                : nn::softmax_cross_entropy(logits, batch.labels);
  r->model.backward_params(loss.grad_logits);
  job.grad.resize(r->flat->total_params());
  r->flat->gather_grads(job.grad);
  job.loss = loss.loss;

  release(std::move(r));
}

void ReplicaPool::evaluate(EvalJob& job, std::size_t batch) {
  std::unique_ptr<Replica> r = acquire();
  evaluate_batches(r->model, *r->flat, job.params, job, batch, batch + 1);
  release(std::move(r));
}

}  // namespace osp::runtime
