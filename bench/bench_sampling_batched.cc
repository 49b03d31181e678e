// Batched-sampling hot-path ablation (docs/sampling_simd.md).
//
// Three variants of drawing k weighted neighbours from a samtree, each
// adding one optimisation on top of the previous:
//
//   per_draw        — k independent SampleWeighted(rng) descents (the
//                     pre-batching baseline)
//   batched         — the k-draw SampleWeighted, scalar kernels: one
//                     level-synchronous root→leaf sweep amortises the
//                     descent
//   batched_simd    — same sweep with the AVX2 compare+movemask kernels
//
// All three produce bit-identical samples under the same seed (asserted
// in tests/test_sampling_batched.cc); this binary measures only
// throughput, on two degree mixes — Zipf(1.0)-skewed neighbourhood sizes
// and a flat uniform mix. Every variant is timed kRepetitions times,
// interleaved with the others so drift hits them alike, and each column
// is the median. The acceptance bar, on medians: batched+SIMD at least
// 1.5x the per-draw baseline on weighted sampling at every k >= 16.
// Uniform k-draws are a plain per-draw loop (batching them did not pay,
// docs/sampling_simd.md), so there is nothing to compare for them.
// Results go to BENCH_sampling_batched.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/samtree.h"

using namespace platod2gl;
using namespace platod2gl::bench;

namespace {

constexpr int kRepetitions = 7;

/// Neighbourhood sizes for `num_trees` vertices. Zipf: degree of rank r
/// falls off as 1/(r+1), the "popular vertices are big" serving shape;
/// uniform: every vertex the same mid-size neighbourhood.
std::vector<std::size_t> DegreeMix(const std::string& mix,
                                   std::size_t num_trees) {
  std::vector<std::size_t> degrees;
  degrees.reserve(num_trees);
  for (std::size_t r = 0; r < num_trees; ++r) {
    if (mix == "zipf") {
      degrees.push_back(
          std::max<std::size_t>(8, 20000 / (r + 1)));
    } else {
      degrees.push_back(256);
    }
  }
  return degrees;
}

std::vector<Samtree> BuildTrees(const std::vector<std::size_t>& degrees) {
  const SamtreeConfig cfg;  // paper defaults: capacity 256, CP-IDs on
  Xoshiro256 rng(4242);
  std::vector<Samtree> trees;
  trees.reserve(degrees.size());
  for (std::size_t deg : degrees) {
    std::vector<std::pair<VertexId, Weight>> nbrs;
    nbrs.reserve(deg);
    for (std::size_t i = 0; i < deg; ++i) {
      nbrs.emplace_back(static_cast<VertexId>(i * 3 + 1),
                        0.05 + rng.NextDouble());
    }
    trees.push_back(Samtree::BulkBuild(std::move(nbrs), cfg));
  }
  return trees;
}

double MeasureWeighted(const std::vector<Samtree>& trees, std::size_t k,
                       int rounds, bool batched) {
  Xoshiro256 rng(7);
  std::vector<VertexId> out;
  Timer t;
  for (int r = 0; r < rounds; ++r) {
    for (const Samtree& tree : trees) {
      out.clear();
      if (batched) {
        tree.SampleWeighted(k, rng, &out);
      } else {
        for (std::size_t i = 0; i < k; ++i) {
          out.push_back(tree.SampleWeighted(rng));
        }
      }
    }
  }
  return t.ElapsedMillis();
}

/// Median milliseconds of each variant over kRepetitions rounds; every
/// round runs each variant once, so slow drift of the host lands on all
/// of them instead of on whichever ran last.
std::vector<double> InterleavedMedians(
    const std::vector<std::function<double()>>& variants) {
  std::vector<std::vector<double>> samples(variants.size());
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      samples[v].push_back(variants[v]());
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& s : samples) {
    std::sort(s.begin(), s.end());
    medians.push_back(s[s.size() / 2]);
  }
  return medians;
}

}  // namespace

int main() {
  std::printf("=== Batched sampling hot-path ablation ===\n");
  std::printf("AVX2: %s (dispatch %s); median of %d interleaved reps\n",
              simd::Avx2Supported() ? "supported" : "unsupported",
              simd::Avx2Enabled() ? "on" : "scalar", kRepetitions);
  JsonRecords json("sampling_batched");

  const std::size_t num_trees = 2000;
  const int rounds = 3;
  const std::vector<std::size_t> ks = {4, 16, 50, 128};
  bool accept_ok = true;

  for (const std::string mix : {"zipf", "uniform"}) {
    const std::vector<Samtree> trees =
        BuildTrees(DegreeMix(mix, num_trees));

    std::printf("\n--- %s degree mix: %zu trees, weighted k-draws ---\n",
                mix.c_str(), num_trees);
    std::printf("%-6s %12s %12s %12s %10s\n", "k", "per_draw", "batched",
                "+simd", "best");
    PrintRule();

    for (std::size_t k : ks) {
      const double draws = static_cast<double>(num_trees) * rounds *
                           static_cast<double>(k);
      // Each variant sets its dispatch before every timing, since the
      // interleaving runs them in turn; the per-draw baseline keeps the
      // production dispatch (its CSTable search uses the SIMD scan too).
      const std::vector<double> ms = InterleavedMedians({
          [&] {
            simd::SetAvx2EnabledForTest(simd::Avx2Supported());
            return MeasureWeighted(trees, k, rounds, false);
          },
          [&] {
            simd::SetAvx2EnabledForTest(false);
            return MeasureWeighted(trees, k, rounds, true);
          },
          [&] {
            simd::SetAvx2EnabledForTest(true);  // clamped scalar w/o AVX2
            return MeasureWeighted(trees, k, rounds, true);
          },
      });
      const double base_ms = ms[0], batched_ms = ms[1], simd_ms = ms[2];
      const double best = std::min(batched_ms, simd_ms);
      std::printf("%-6zu %10.2fms %10.2fms %10.2fms %9.2fx\n", k, base_ms,
                  batched_ms, simd_ms, base_ms / best);

      json.Rec()
          .Str("mix", mix)
          .Str("mode", "weighted")
          .Num("k", static_cast<std::uint64_t>(k))
          .Num("trees", static_cast<std::uint64_t>(num_trees))
          .Num("reps", static_cast<std::uint64_t>(kRepetitions))
          .Num("per_draw_ms", base_ms)
          .Num("batched_ms", batched_ms)
          .Num("batched_simd_ms", simd_ms)
          .Num("per_draw_ns_per_draw", base_ms * 1e6 / draws)
          .Num("best_ns_per_draw", best * 1e6 / draws)
          .Num("speedup_batched", base_ms / batched_ms)
          .Num("speedup_simd", base_ms / simd_ms);

      // Acceptance bar (only meaningful where the SIMD kernels can run).
      if (k >= 16 && simd::Avx2Supported() && base_ms / simd_ms < 1.5) {
        accept_ok = false;
        std::fprintf(stderr,
                     "ACCEPTANCE MISS: %s k=%zu batched+SIMD %.2fx "
                     "(< 1.5x per-draw)\n",
                     mix.c_str(), k, base_ms / simd_ms);
      }
    }
  }

  // Back to production dispatch before exiting (harmless, but keeps the
  // bench honest if it ever grows more phases).
  simd::SetAvx2EnabledForTest(simd::Avx2Supported());

  if (json.WriteFile("BENCH_sampling_batched.json")) {
    std::printf("\nwrote BENCH_sampling_batched.json\n");
  } else {
    std::fprintf(stderr, "failed to write BENCH_sampling_batched.json\n");
    return 1;
  }
  if (!accept_ok) {
    std::fprintf(stderr, "batched+SIMD acceptance bar (>= 1.5x at k >= 16) "
                         "not met\n");
    return 1;
  }
  std::printf("acceptance: batched+SIMD >= 1.5x per-draw at k >= 16 on "
              "both mixes\n");
  return 0;
}
