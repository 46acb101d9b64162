// kernel_ab: times the tensor kernels of two builds in one process.
//
//   kernel_ab [--rounds N] [--min-us T] [--cpu C] [--filter S] A.so B.so
//
// A.so and B.so are osp_kernels_ab modules (tools/kernel_ab/CMakeLists.txt),
// typically built from two checkouts. The tool pins itself to one CPU (the
// first it may run on, or C), sets OSP_NUM_THREADS=1 before loading the
// modules, and then, per case, alternates timed batches of calls into A and
// B (A B B A …) for N rounds. One batch runs the case for at least T µs.
// Per case it prints the median µs per call of each side, the median of the
// per-round ratios A/B (> 1: B is faster) and whether both sides wrote the
// same bits. The cases are the panel GEMM and the three conv entry points
// at the shapes the image-osp, qa-osp and kv-chaos workloads run; --filter
// keeps the cases whose name contains S.
//
// Two separate benchmark binaries cannot be compared kernel by kernel on a
// shared VM: rows whose code did not change move 10–30% between builds and
// runs. Within one process, on one pinned CPU, both sides see the same
// core, caches and frequency.
#include <dlfcn.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace {

using GemmFn = void (*)(std::size_t, std::size_t, std::size_t, const float*,
                        std::size_t, std::size_t, const float*, std::size_t,
                        float*, std::size_t, const float*, int);
using ConvFwdFn = void (*)(const float*, const float*, const float*,
                           const std::size_t*, std::size_t, std::size_t,
                           float*);
using ConvDataFn = void (*)(const float*, const float*, const std::size_t*,
                            std::size_t, std::size_t, float*);
using ConvWeightFn = void (*)(const float*, const float*, const std::size_t*,
                              std::size_t, std::size_t, float*, float*);

struct Module {
  GemmFn gemm;
  ConvFwdFn conv_forward;
  ConvDataFn conv_backward_data;
  ConvWeightFn conv_backward_weight;
};

template <class Fn>
Fn symbol(void* handle, const char* path, const char* name) {
  void* sym = dlsym(handle, name);
  if (sym == nullptr) {
    std::fprintf(stderr, "kernel_ab: %s has no %s\n", path, name);
    std::exit(2);
  }
  return reinterpret_cast<Fn>(sym);
}

Module load(const char* path) {
  void* handle = dlopen(path, RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    std::fprintf(stderr, "kernel_ab: %s\n", dlerror());
    std::exit(2);
  }
  return {symbol<GemmFn>(handle, path, "osp_ab_gemm"),
          symbol<ConvFwdFn>(handle, path, "osp_ab_conv_forward"),
          symbol<ConvDataFn>(handle, path, "osp_ab_conv_backward_data"),
          symbol<ConvWeightFn>(handle, path, "osp_ab_conv_backward_weight")};
}

std::vector<float> random_floats(std::size_t n, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (float& x : v) x = dist(gen);
  return v;
}

/// One kernel call on fixed inputs; `out` is the buffer it writes, reset
/// before every call so accumulating kernels see the same C each time.
struct Case {
  std::string name;
  std::vector<float> init;
  std::function<void(const Module&, float* out)> run;
};

/// C[m,n] = A·B for a Linear layer's products: A row-major [m,k] (nn) or
/// read transposed from [k,m] (tn), as tensor::matmul and matmul_tn pass it.
Case gemm_case(const std::string& tag, std::size_t m, std::size_t k,
               std::size_t n, bool tn) {
  auto a = std::make_shared<std::vector<float>>(random_floats(m * k, 1));
  auto b = std::make_shared<std::vector<float>>(random_floats(k * n, 2));
  Case c;
  c.name = tag + " gemm " + (tn ? "tn " : "nn ") + std::to_string(m) + "x" +
           std::to_string(k) + "x" + std::to_string(n);
  c.init.assign(m * n, 0.0f);
  c.run = [=](const Module& mod, float* out) {
    mod.gemm(m, n, k, a->data(), tn ? 1 : k, tn ? m : 1, b->data(), n, out,
             n, nullptr, 0);
  };
  return c;
}

/// One 3×3, stride-1, pad-1 conv layer at `batch`: forward, dX or dW + db.
Case conv_case(const std::string& tag, const char* pass, std::size_t batch,
               std::size_t in_c, std::size_t out_c, std::size_t side) {
  const std::vector<std::size_t> g = {in_c, side, side, 3, 1, 1};
  const std::size_t img = in_c * side * side, plen = in_c * 9;
  const std::size_t outs = out_c * side * side;
  auto x = std::make_shared<std::vector<float>>(random_floats(batch * img, 3));
  auto w = std::make_shared<std::vector<float>>(random_floats(out_c * plen, 4));
  auto bias = std::make_shared<std::vector<float>>(random_floats(out_c, 5));
  auto grad =
      std::make_shared<std::vector<float>>(random_floats(batch * outs, 6));
  Case c;
  c.name = tag + " conv " + pass + " " + std::to_string(in_c) + "->" +
           std::to_string(out_c) + " " + std::to_string(side) + "x" +
           std::to_string(side);
  const std::string p = pass;
  if (p == "fwd") {
    c.init.assign(batch * outs, 0.0f);
    c.run = [=](const Module& mod, float* out) {
      mod.conv_forward(x->data(), w->data(), bias->data(), g.data(), out_c,
                       batch, out);
    };
  } else if (p == "dX") {
    c.init.assign(batch * img, 0.0f);
    c.run = [=](const Module& mod, float* out) {
      mod.conv_backward_data(grad->data(), w->data(), g.data(), out_c, batch,
                             out);
    };
  } else {
    c.init.assign(out_c * plen + out_c, 0.0f);
    c.run = [=](const Module& mod, float* out) {
      mod.conv_backward_weight(grad->data(), x->data(), g.data(), out_c,
                               batch, out, out + out_c * plen);
    };
  }
  return c;
}

/// A Linear layer's three products at batch B: forward (x·Wᵀ, Wᵀ packed
/// so the panel is nn), dW (gᵀ·x, tn) and dX (g·W, nn).
void linear_cases(std::vector<Case>& cases, const std::string& tag,
                  std::size_t batch, std::size_t in, std::size_t out) {
  cases.push_back(gemm_case(tag, batch, in, out, false));
  cases.push_back(gemm_case(tag, out, batch, in, true));
  cases.push_back(gemm_case(tag, batch, out, in, false));
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  // image-osp: the ResNet50 proxy at batch 64. Conv layers (in, out, side)
  // and the MLP head.
  for (const auto& [in_c, out_c, side] :
       std::vector<std::array<std::size_t, 3>>{
           {3, 10, 8}, {10, 14, 8}, {14, 18, 4}, {18, 18, 4}}) {
    for (const char* pass : {"fwd", "dX", "dW"}) {
      cases.push_back(conv_case("image", pass, 64, in_c, out_c, side));
    }
  }
  const std::size_t head[] = {72, 64, 64, 56, 48, 10};
  for (std::size_t i = 0; i + 1 < std::size(head); ++i) {
    linear_cases(cases, "image", 64, head[i], head[i + 1]);
  }
  // qa-osp: one SelfAttention layer at batch 12, length 16, width 24: the
  // projections over all 192 rows and the per-sequence products.
  linear_cases(cases, "qa", 192, 24, 24);
  cases.push_back(gemm_case("qa", 16, 24, 16, false));
  cases.push_back(gemm_case("qa", 16, 16, 24, false));
  cases.push_back(gemm_case("qa", 16, 16, 24, true));
  cases.push_back(gemm_case("qa", 16, 24, 2, false));
  // kv-chaos: TinyMLP at batch 16.
  linear_cases(cases, "kv", 16, 48, 32);
  linear_cases(cases, "kv", 16, 32, 16);
  linear_cases(cases, "kv", 16, 16, 4);
  return cases;
}

double time_batch(const Case& c, const Module& mod, float* out,
                  std::size_t calls) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    std::memcpy(out, c.init.data(), c.init.size() * sizeof(float));
    c.run(mod, out);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() /
         static_cast<double>(calls);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void pin(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu < 0) {
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (cpu = 0; cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &set); ++cpu) {
    }
    CPU_ZERO(&set);
  }
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::perror("kernel_ab: sched_setaffinity");
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: kernel_ab [--rounds N] [--min-us T] [--cpu C] "
               "[--filter S] A.so B.so\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rounds = 21;
  double min_us = 2000.0;
  int cpu = -1;
  std::string filter;
  std::vector<const char*> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 < argc && arg == "--rounds") {
      rounds = std::strtoul(argv[++i], nullptr, 10);
    } else if (i + 1 < argc && arg == "--min-us") {
      min_us = std::strtod(argv[++i], nullptr);
    } else if (i + 1 < argc && arg == "--cpu") {
      cpu = std::atoi(argv[++i]);
    } else if (i + 1 < argc && arg == "--filter") {
      filter = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.size() != 2 || rounds == 0) return usage();

  pin(cpu);
  setenv("OSP_NUM_THREADS", "1", 1);
  const Module side[2] = {load(paths[0]), load(paths[1])};

  std::printf("A = %s\nB = %s\n%zu rounds, >= %.0f us per batch\n\n",
              paths[0], paths[1], rounds, min_us);
  std::printf("%-34s %11s %11s %8s %5s\n", "case", "A us/call", "B us/call",
              "A/B", "bits");
  int mismatches = 0;
  for (Case& c : all_cases()) {
    if (c.name.find(filter) == std::string::npos) continue;
    std::vector<float> out[2] = {c.init, c.init};
    // Warm up both sides, check their bits, and size the batches.
    for (int s = 0; s < 2; ++s) time_batch(c, side[s], out[s].data(), 3);
    const bool same = std::memcmp(out[0].data(), out[1].data(),
                                  out[0].size() * sizeof(float)) == 0;
    mismatches += same ? 0 : 1;
    const double probe = time_batch(c, side[0], out[0].data(), 5);
    const auto calls =
        std::max<std::size_t>(1, static_cast<std::size_t>(min_us / probe));
    std::vector<double> us[2], ratio;
    for (std::size_t r = 0; r < rounds; ++r) {
      double t[2];
      for (int i = 0; i < 2; ++i) {
        const int s = (r % 2 == 0) ? i : 1 - i;  // A B, then B A
        t[s] = time_batch(c, side[s], out[s].data(), calls);
        us[s].push_back(t[s]);
      }
      ratio.push_back(t[0] / t[1]);
    }
    std::printf("%-34s %11.3f %11.3f %8.3f %5s\n", c.name.c_str(),
                median(us[0]), median(us[1]), median(ratio),
                same ? "equal" : "DIFF");
  }
  return mismatches == 0 ? 0 : 1;
}
