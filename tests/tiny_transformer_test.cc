#include "src/llm/tiny_transformer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/pruning/magnitude.h"
#include "src/pruning/pruner.h"
#include "src/util/random.h"

namespace spinfer {
namespace {

TinyConfig SmallConfig() {
  TinyConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 32;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.ffn = 64;
  cfg.max_seq = 16;
  return cfg;
}

TEST(TinyTransformerTest, ForwardShapesAndFiniteness) {
  const TinyTransformer model(SmallConfig(), 7);
  const FloatMatrix logits = model.Forward({1, 2, 3, 4}, MatmulBackend::kDense);
  EXPECT_EQ(logits.rows(), 4);
  EXPECT_EQ(logits.cols(), 64);
  for (int64_t i = 0; i < logits.size(); ++i) {
    EXPECT_TRUE(std::isfinite(logits.data()[i]));
  }
}

// The headline integration property: with identical weights, the dense
// reference backend and the TCA-BME CpuSpmm backend produce matching logits.
TEST(TinyTransformerTest, SparseBackendMatchesDense) {
  const TinyTransformer model(SmallConfig(), 8);
  const std::vector<int32_t> tokens = {5, 9, 13, 21, 34};
  const FloatMatrix dense = model.Forward(tokens, MatmulBackend::kDense);
  const FloatMatrix sparse = model.Forward(tokens, MatmulBackend::kTcaBmeCpu);
  for (int64_t i = 0; i < dense.size(); ++i) {
    EXPECT_NEAR(dense.data()[i], sparse.data()[i],
                1e-3 + 1e-3 * std::fabs(dense.data()[i]))
        << "logit " << i;
  }
}

TEST(TinyTransformerTest, BackendsAgreeAfterPruning) {
  TinyTransformer model(SmallConfig(), 9);
  model.PruneWeights(MagnitudePruner(), 0.6);
  EXPECT_NEAR(model.WeightSparsity(), 0.6, 0.02);
  const std::vector<int32_t> tokens = {3, 1, 4, 1, 5};
  const FloatMatrix dense = model.Forward(tokens, MatmulBackend::kDense);
  const FloatMatrix sparse = model.Forward(tokens, MatmulBackend::kTcaBmeCpu);
  for (int64_t i = 0; i < dense.size(); ++i) {
    EXPECT_NEAR(dense.data()[i], sparse.data()[i],
                1e-3 + 1e-3 * std::fabs(dense.data()[i]));
  }
}

TEST(TinyTransformerTest, GreedyDecodesIdenticallyOnBothBackends) {
  TinyTransformer model(SmallConfig(), 10);
  model.PruneWeights(MagnitudePruner(), 0.5);
  const std::vector<int32_t> prompt = {11, 22};
  const auto dense = model.Generate(prompt, 6, MatmulBackend::kDense);
  const auto sparse = model.Generate(prompt, 6, MatmulBackend::kTcaBmeCpu);
  EXPECT_EQ(dense, sparse);
  EXPECT_EQ(dense.size(), prompt.size() + 6);
}

TEST(TinyTransformerTest, PruningShrinksEncodedWeights) {
  TinyTransformer model(SmallConfig(), 11);
  const uint64_t before = model.EncodedWeightBytes();
  model.PruneWeights(MagnitudePruner(), 0.6);
  const uint64_t after = model.EncodedWeightBytes();
  EXPECT_LT(after, before);
  // At 60% sparsity the encoded form also beats the dense FP16 footprint.
  EXPECT_LT(after, model.DenseWeightBytes());
}

// A layer's six weights in draw order: decoded copies, and the encodings.
std::array<const HalfMatrix*, 6> Dense(const TinyTransformer::LayerWeights& w) {
  return {w.wq.get(), w.wk.get(), w.wv.get(), w.wo.get(), w.fc1.get(), w.fc2.get()};
}
std::array<const TcaBmeMatrix*, 6> Encoded(const TinyTransformer::Layer& l) {
  return {&l.wq, &l.wk, &l.wv, &l.wo, &l.fc1, &l.fc2};
}

void ExpectSameBits(const HalfMatrix& a, const HalfMatrix& b,
                    const std::string& label) {
  ASSERT_EQ(a.rows(), b.rows()) << label;
  ASSERT_EQ(a.cols(), b.cols()) << label;
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i].bits(), b.data()[i].bits()) << label << " i=" << i;
  }
}

void ExpectSameEncoding(const TcaBmeMatrix& a, const TcaBmeMatrix& b,
                        const std::string& label) {
  EXPECT_EQ(a.rows(), b.rows()) << label;
  EXPECT_EQ(a.cols(), b.cols()) << label;
  EXPECT_EQ(a.nnz(), b.nnz()) << label;
  EXPECT_EQ(a.gtile_offsets(), b.gtile_offsets()) << label;
  EXPECT_EQ(a.bitmaps(), b.bitmaps()) << label;
  ASSERT_EQ(a.values().size(), b.values().size()) << label;
  for (size_t i = 0; i < a.values().size(); ++i) {
    ASSERT_EQ(a.values()[i].bits(), b.values()[i].bits()) << label << " i=" << i;
  }
}

// The model holds its weights only as TCA-BME. layer_weights() decodes the
// resident encodings (layers()), which are what both backends multiply: the
// dense oracle decodes them per call. Re-encoding the decoded copies
// reproduces them, and PruneWeights is the pruner applied to exactly those
// decoded weights.
TEST(TinyTransformerTest, LayerWeightsDecodeTheResidentEncoding) {
  TinyTransformer model(TinyConfig{}, 15);
  const auto expect_resident = [&](const std::string& stage) {
    const std::vector<TinyTransformer::Layer>& whole = model.layers();
    for (int64_t l = 0; l < model.config().layers; ++l) {
      const TinyTransformer::LayerWeights w = model.layer_weights(l);
      const auto dense = Dense(w);
      const auto enc = Encoded(whole[static_cast<size_t>(l)]);
      for (size_t m = 0; m < dense.size(); ++m) {
        const std::string label =
            stage + " layer " + std::to_string(l) + " matrix " + std::to_string(m);
        ExpectSameBits(*dense[m], enc[m]->Decode(), label);
        ExpectSameEncoding(
            TcaBmeMatrix::Encode(*dense[m], TinyTransformer::EncodeFormat()),
            *enc[m], label);
      }
    }
  };
  expect_resident("constructed");
  std::vector<TinyTransformer::LayerWeights> before;
  for (int64_t l = 0; l < model.config().layers; ++l) {
    before.push_back(model.layer_weights(l));
  }
  model.PruneWeights(MagnitudePruner(), 0.6);
  expect_resident("pruned");
  for (int64_t l = 0; l < model.config().layers; ++l) {
    const TinyTransformer::LayerWeights after = model.layer_weights(l);
    const auto pruned = Dense(after);
    const auto original = Dense(before[static_cast<size_t>(l)]);
    for (size_t m = 0; m < pruned.size(); ++m) {
      ExpectSameBits(*pruned[m], MagnitudePruner().Prune(*original[m], 0.6),
                     "prune layer " + std::to_string(l) + " matrix " +
                         std::to_string(m));
    }
  }
}

// The serving contract behind the decode bench: after one warm-up Forward,
// the matmul path (SpMM workspace + activation staging) never grows again at
// the same (or smaller) sequence lengths — zero heap allocations per step.
TEST(TinyTransformerTest, MatmulPathAllocationFreeAfterWarmup) {
  TinyTransformer model(SmallConfig(), 14);
  model.PruneWeights(MagnitudePruner(), 0.6);
  std::vector<int32_t> tokens = {1, 2, 3, 4, 5, 6, 7, 8};
  model.Forward(tokens, MatmulBackend::kTcaBmeCpu);  // warm-up at max shape
  const int64_t grows = model.MatmulScratchGrowCount();
  const uint64_t bytes = model.MatmulScratchCapacityBytes();
  EXPECT_GT(bytes, 0u);
  const FloatMatrix warm = model.Forward(tokens, MatmulBackend::kTcaBmeCpu);
  EXPECT_EQ(model.MatmulScratchGrowCount(), grows);
  EXPECT_EQ(model.MatmulScratchCapacityBytes(), bytes);
  // Shorter sequences (decode prefixes) must also fit the warmed scratch.
  tokens.resize(3);
  model.Forward(tokens, MatmulBackend::kTcaBmeCpu);
  EXPECT_EQ(model.MatmulScratchGrowCount(), grows);
  EXPECT_EQ(model.MatmulScratchCapacityBytes(), bytes);
  // And scratch reuse must not perturb results.
  tokens = {1, 2, 3, 4, 5, 6, 7, 8};
  const FloatMatrix again = model.Forward(tokens, MatmulBackend::kTcaBmeCpu);
  for (int64_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm.data()[i], again.data()[i]);
  }
}

TEST(TinyTransformerTest, DeterministicAcrossInstances) {
  const TinyTransformer a(SmallConfig(), 12);
  const TinyTransformer b(SmallConfig(), 12);
  const FloatMatrix la = a.Forward({7, 8}, MatmulBackend::kDense);
  const FloatMatrix lb = b.Forward({7, 8}, MatmulBackend::kDense);
  for (int64_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la.data()[i], lb.data()[i]);
  }
}

TEST(TinyTransformerTest, CausalityHoldsForPrefixes) {
  // Logits of earlier positions must not depend on later tokens.
  const TinyTransformer model(SmallConfig(), 13);
  const FloatMatrix full = model.Forward({1, 2, 3, 4}, MatmulBackend::kDense);
  const FloatMatrix prefix = model.Forward({1, 2}, MatmulBackend::kDense);
  for (int64_t t = 0; t < 2; ++t) {
    for (int64_t v = 0; v < 64; ++v) {
      EXPECT_NEAR(full.at(t, v), prefix.at(t, v), 1e-4);
    }
  }
}

double ReferenceGelu(double x) {
  return 0.5 * x *
         (1.0 + std::tanh(0.7978845608028654 * (x + 0.044715 * x * x * x)));
}

float GeluOf(float x) {
  GeluInPlace({&x, 1});
  return x;
}

// GELU is one vectorized loop over the repository's own tanh. Its vector
// body and its one-element scalar remainder must agree bit for bit at every
// length and alignment, and both must stay within a few ulps of a
// double-precision reference, with the exact end values the old libm GELU
// had.
TEST(TinyTransformerTest, GeluVectorLoopMatchesScalarAndReference) {
  constexpr float kClamp = 7.90531110763549805f;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> in;
  // A strided walk over the bit patterns of [0, 20], mirrored to [-20, 0].
  const uint32_t top = std::bit_cast<uint32_t>(20.0f);
  for (uint32_t b = 0; b <= top; b += 65537) {
    in.push_back(std::bit_cast<float>(b));
    in.push_back(-std::bit_cast<float>(b));
  }
  for (float x : {0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
                  -std::numeric_limits<float>::denorm_min(),
                  std::bit_cast<float>(0x007fffffu), kClamp, -kClamp,
                  std::nextafter(kClamp, 0.0f), std::nextafter(kClamp, kInf),
                  -std::nextafter(kClamp, 0.0f), -std::nextafter(kClamp, kInf),
                  kInf, -kInf, std::numeric_limits<float>::quiet_NaN()}) {
    in.push_back(x);
  }
  std::vector<uint32_t> scalar(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    scalar[i] = std::bit_cast<uint32_t>(GeluOf(in[i]));
  }
  for (size_t len = 1; len <= 37; ++len) {
    std::vector<float> out = in;
    for (size_t first = 0; first < out.size(); first += len) {
      GeluInPlace(std::span<float>(out).subspan(
          first, std::min(len, out.size() - first)));
    }
    for (size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(out[i]), scalar[i])
          << "len=" << len << " x=" << in[i];
    }
  }

  double tanh_err = 0.0;
  double gelu_err = 0.0;
  for (int i = -400000; i <= 400000; ++i) {
    const float x = static_cast<float>(i) * 5e-5f;  // [-20, 20]
    if (std::fabs(x) <= 12.0f) {
      tanh_err = std::max(tanh_err, std::fabs(RationalTanh(x) -
                                              std::tanh(static_cast<double>(x))));
    }
    gelu_err = std::max(gelu_err,
                        std::fabs(GeluOf(x) - ReferenceGelu(x)) /
                            std::max(1.0, std::fabs(static_cast<double>(x))));
  }
  EXPECT_LE(tanh_err, 5e-7);
  EXPECT_LE(gelu_err, 5e-7);

  for (float x : in) {
    if (!std::isnan(x)) {
      ASSERT_EQ(std::bit_cast<uint32_t>(RationalTanh(-x)),
                std::bit_cast<uint32_t>(-RationalTanh(x)))
          << "x=" << x;
    }
  }
  for (float x : {12.0f, 12.5f, 20.0f, 1e3f, 1e20f,
                  std::numeric_limits<float>::max()}) {
    EXPECT_EQ(GeluOf(x), x);
    const float neg = GeluOf(-x);
    EXPECT_EQ(neg, 0.0f) << "x=" << -x;
    EXPECT_TRUE(std::signbit(neg)) << "x=" << -x;
  }
  EXPECT_EQ(RationalTanh(kClamp), 1.0f);
  EXPECT_EQ(RationalTanh(-kInf), -1.0f);
  EXPECT_TRUE(std::isnan(GeluOf(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(RationalTanh(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(GeluOf(kInf), kInf);
  EXPECT_TRUE(std::isnan(GeluOf(-kInf)));  // -inf * (1 + -1), as with libm
}

// The tied unembedding runs its lanes across the vocabulary but keeps every
// logit's serial chain: +0.0f, then r ascending, multiply then add, over the
// FP16 weights widened exactly. 61 leaves a vector remainder; the column list
// is out of order and repeats a column.
TEST(TinyTransformerTest, UnembedMatchesSerialDotChainBitwise) {
  const int64_t hidden = 64;
  const int64_t panel = 80;
  for (int64_t vocab : {61, 256}) {
    Rng rng(static_cast<uint64_t>(vocab));
    const HalfMatrix e = HalfMatrix::Random(vocab, hidden, rng, 0.125f);
    FloatMatrix emb(hidden, vocab);
    for (int64_t v = 0; v < vocab; ++v) {
      for (int64_t r = 0; r < hidden; ++r) {
        emb.at(r, v) = e.at(v, r).ToFloat();
      }
    }
    FloatMatrix act(hidden, panel);
    for (int64_t i = 0; i < act.size(); ++i) {
      act.data()[i] = static_cast<float>(rng.Gaussian());
    }
    for (int64_t producers : {1, 2, 3, 4, 5, 6, 7, 8, 9, 64}) {
      std::vector<int64_t> cols;
      for (int64_t i = 0; i < producers; ++i) {
        cols.push_back((i * 37 + 11) % panel);
      }
      cols.push_back(cols.front());
      FloatMatrix logits;
      UnembedInto(emb, act, cols, &logits);
      ASSERT_EQ(logits.rows(), static_cast<int64_t>(cols.size()));
      ASSERT_EQ(logits.cols(), vocab);
      for (size_t i = 0; i < cols.size(); ++i) {
        for (int64_t v = 0; v < vocab; ++v) {
          float dot = 0.0f;
          for (int64_t r = 0; r < hidden; ++r) {
            dot += e.at(v, r).ToFloat() * act.at(r, cols[i]);
          }
          ASSERT_EQ(std::bit_cast<uint32_t>(logits.at(static_cast<int64_t>(i), v)),
                    std::bit_cast<uint32_t>(dot))
              << "vocab=" << vocab << " producers=" << producers << " i=" << i
              << " v=" << v;
        }
      }
    }
  }
}

// The positional table reproduces the per-element formula it replaced, bit
// for bit, at every position the model can embed.
TEST(TinyTransformerTest, EmbeddingMatchesSinusoidFormulaAtEveryPosition) {
  const TinyConfig cfg = SmallConfig();
  const TinyTransformer model(cfg, 5);
  FloatMatrix act(cfg.hidden, 2);
  for (const int32_t token : {0, 17, static_cast<int32_t>(cfg.vocab - 1)}) {
    for (int64_t pos = 0; pos < cfg.max_seq; ++pos) {
      model.EmbedInto(token, pos, /*col=*/1, &act);
      for (int64_t r = 0; r < cfg.hidden; ++r) {
        const double p =
            static_cast<double>(pos) /
            std::pow(10000.0, static_cast<double>(2 * (r / 2)) / cfg.hidden);
        const float signal = 0.1f * static_cast<float>(
                                        (r % 2 == 0) ? std::sin(p) : std::cos(p));
        const float want = model.embedding().at(r, token) + signal;
        ASSERT_EQ(std::bit_cast<uint32_t>(act.at(r, 1)),
                  std::bit_cast<uint32_t>(want))
            << "token " << token << " pos " << pos << " row " << r;
      }
    }
  }
}

}  // namespace
}  // namespace spinfer
