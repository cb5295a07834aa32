#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "gtest/gtest.h"
#include "util/epoch_set.h"
#include "util/json_writer.h"
#include "util/random.h"
#include "util/recycling_map.h"
#include "util/ring_queue.h"
#include "util/small_vector.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table_printer.h"

namespace oodb {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("object 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "object 7");
  EXPECT_EQ(s.ToString(), "NotFound: object 7");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::OutOfRange("past end");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange);
}

Status FailsThenPropagates() {
  OODB_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThenPropagates().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(5, 20);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 20);
    saw_lo |= (v == 5);
    saw_hi |= (v == 20);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(11);
  StreamingStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Exponential(4.0));
  EXPECT_NEAR(stats.Mean(), 4.0, 0.05);
  EXPECT_GT(stats.min(), 0.0);
}

TEST(RngTest, ZipfZeroThetaIsUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.Zipf(10, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(RngTest, ZipfSkewFavoursLowIndices) {
  Rng rng(17);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.Zipf(100, 0.8)];
  EXPECT_GT(counts[0], counts[50] * 5);
  EXPECT_GT(counts[0], counts[99] * 5);
}

// ------------------------------------------------------------ SplitMix64
//
// The OCB database generator derives every generation stream from
// SplitMix64, so these sequences are load-bearing: changing any expected
// value below silently regenerates every OCB database. The Next()
// expectations are the published splitmix64 test function (Steele, Lea &
// Vigna; same algorithm as Java's SplittableRandom), independently
// computable from the three-constant mix.

TEST(SplitMix64Test, MatchesReferenceSequence) {
  SplitMix64 s(42);
  EXPECT_EQ(s.Next(), 13679457532755275413ULL);
  EXPECT_EQ(s.Next(), 2949826092126892291ULL);
  EXPECT_EQ(s.Next(), 5139283748462763858ULL);
  EXPECT_EQ(s.Next(), 6349198060258255764ULL);
  EXPECT_EQ(s.Next(), 701532786141963250ULL);
}

TEST(SplitMix64Test, NextBelowExactSequence) {
  SplitMix64 s(42);
  const uint64_t expected[] = {741, 159, 278, 344, 38, 868, 218, 800};
  for (uint64_t e : expected) EXPECT_EQ(s.NextBelow(1000), e);
}

TEST(SplitMix64Test, NextDoubleExactSequence) {
  SplitMix64 s(7);
  EXPECT_EQ(s.NextDouble(), 0.38982974839127149);
  EXPECT_EQ(s.NextDouble(), 0.016788294528156111);
  EXPECT_EQ(s.NextDouble(), 0.90076068060688341);
  EXPECT_EQ(s.NextDouble(), 0.58293029302807808);
}

TEST(SplitMix64Test, GaussianExactSequence) {
  // Marsaglia polar pairs: draws 3-4 reuse the cached spare of 1-2, so
  // the expectations also pin the pair-caching behaviour.
  SplitMix64 s(7);
  EXPECT_EQ(s.Gaussian(0.0, 1.0), -0.041741523381452331);
  EXPECT_EQ(s.Gaussian(0.0, 1.0), -0.18308020910924752);
  EXPECT_EQ(s.Gaussian(0.0, 1.0), 0.87648146909945668);
  EXPECT_EQ(s.Gaussian(0.0, 1.0), 0.18137224678834885);
  EXPECT_EQ(s.Gaussian(0.0, 1.0), -0.3059911682027957);
  EXPECT_EQ(s.Gaussian(0.0, 1.0), -1.6121698126951967);
}

TEST(SplitMix64Test, GaussianScalesMeanAndStddev) {
  SplitMix64 a(7), b(7);
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(b.Gaussian(10.0, 2.0), 10.0 + 2.0 * a.Gaussian(0.0, 1.0));
  }
}

TEST(SplitMix64Test, ZipfExactSequence) {
  SplitMix64 s(9);
  const uint64_t expected[] = {34, 44, 5, 50, 5, 0, 30, 95, 4, 50};
  const ZipfTransform zipf(100, 0.8);
  for (uint64_t e : expected) EXPECT_EQ(zipf.Sample(s), e);
}

// Gray et al.'s mapping as Rng::Zipf computed it
// when every draw recomputed the (n, theta) constants: the reference
// ZipfTransform must reproduce bit for bit. `branch` reports which return
// the draw took (0, 1, or 2 for the pow branch).
uint64_t ReferenceZipf(double u, uint64_t n, double theta, int* branch) {
  const double alpha = 1.0 / (1.0 - theta);
  const double zetan = (std::pow(static_cast<double>(n), 1.0 - theta) - 1.0) /
                           (1.0 - theta) +
                       0.5;  // approximate zeta(n, theta)
  const double eta =
      (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
      (1.0 - (std::pow(2.0, 1.0 - theta) - 1.0) / (1.0 - theta) / zetan);
  const double uz = u * zetan;
  *branch = 0;
  if (uz < 1.0) return 0;
  *branch = 1;
  if (uz < 1.0 + std::pow(0.5, theta)) return 1;
  *branch = 2;
  uint64_t v = static_cast<uint64_t>(
      static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
  if (v >= n) v = n - 1;
  return v;
}

// The u values at which the reference mapping changes branch, with their
// neighbours, plus the ends of [0, 1).
std::vector<double> ZipfBranchPoints(uint64_t n, double theta) {
  const double zetan = (std::pow(static_cast<double>(n), 1.0 - theta) - 1.0) /
                           (1.0 - theta) +
                       0.5;
  std::vector<double> points = {0.0, std::nextafter(1.0, 0.0)};
  for (const double edge : {1.0 / zetan, (1.0 + std::pow(0.5, theta)) / zetan}) {
    if (edge >= 1.0) continue;
    points.push_back(std::nextafter(edge, 0.0));
    points.push_back(edge);
    points.push_back(std::nextafter(edge, 1.0));
  }
  return points;
}

TEST(ZipfTransformTest, MatchesPerDrawFormulaBitForBit) {
  const uint64_t ns[] = {1, 2, 3, 100, 6000, 1000000};
  const double thetas[] = {0.05, 0.5, 0.6, 0.8, 0.99};
  for (const uint64_t n : ns) {
    for (const double theta : thetas) {
      const ZipfTransform zipf(n, theta);
      std::vector<double> grid = ZipfBranchPoints(n, theta);
      for (int k = 0; k < 4096; ++k) grid.push_back(k / 4096.0);
      int hits[3] = {0, 0, 0};
      for (const double u : grid) {
        int branch = 0;
        const uint64_t want = ReferenceZipf(u, n, theta, &branch);
        ++hits[branch];
        ASSERT_EQ(zipf(u), want) << "n=" << n << " theta=" << theta
                                 << " u=" << u;
      }
      EXPECT_GT(hits[0], 0) << "n=" << n << " theta=" << theta;
      // Index 1 exists only from n = 2 on; for n = 1 every draw is 0.
      if (n >= 2) {
        EXPECT_GT(hits[1], 0) << "n=" << n << " theta=" << theta;
      }
    }
  }
}

TEST(ZipfTransformTest, AlternatingTransformsShareNoState) {
  // Two transforms drawing alternately from one stream give, draw for
  // draw, the reference mapping of the same stream.
  const ZipfTransform a(6000, 0.6);
  const ZipfTransform b(100, 0.99);
  SplitMix64 shared(31);
  SplitMix64 reference(31);
  for (int i = 0; i < 2000; ++i) {
    const bool use_a = i % 2 == 0;
    const ZipfTransform& zipf = use_a ? a : b;
    int branch = 0;
    const uint64_t want = ReferenceZipf(reference.NextDouble(), zipf.n(),
                                        zipf.theta(), &branch);
    ASSERT_EQ(zipf.Sample(shared), want) << i;
  }
}

TEST(ZipfTransformTest, ZeroThetaDrawsNextBelow) {
  const ZipfTransform zipf(10, 0.0);
  Rng rng(13);
  Rng reference(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.Sample(rng), reference.NextBelow(10));
  }
}

TEST(SplitMix64Test, ForkDerivesIndependentDeterministicStream) {
  SplitMix64 a(42);
  SplitMix64 fork = a.Fork();
  // The fork is seeded from the parent's first output, and the parent's
  // stream continues where Fork() left it.
  EXPECT_EQ(fork.Next(), 6332618229526065668ULL);
  EXPECT_EQ(a.Next(), 2949826092126892291ULL);
  // Same-seeded parents fork identically.
  SplitMix64 b(42);
  SplitMix64 fork_b = b.Fork();
  EXPECT_EQ(fork_b.Next(), 6332618229526065668ULL);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(fork_b.Next(), fork.Next());
}

TEST(DiscreteDistributionTest, MatchesWeights) {
  Rng rng(23);
  DiscreteDistribution dist({1.0, 3.0, 6.0});
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 100000; ++i) ++counts[dist.Sample(rng)];
  EXPECT_NEAR(counts[0] / 100000.0, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / 100000.0, 0.3, 0.01);
  EXPECT_NEAR(counts[2] / 100000.0, 0.6, 0.01);
}

TEST(DiscreteDistributionTest, ZeroWeightNeverSampled) {
  Rng rng(29);
  DiscreteDistribution dist({0.0, 1.0});
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(dist.Sample(rng), 1u);
}

TEST(DiscreteDistributionTest, NormalisedProbabilities) {
  DiscreteDistribution dist({2.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(dist.probability(0), 0.25);
  EXPECT_DOUBLE_EQ(dist.probability(2), 0.5);
}

// ---------------------------------------------------------------- Stats

TEST(StreamingStatsTest, KnownMoments) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StreamingStatsTest, EmptyIsSafe) {
  StreamingStats s;
  EXPECT_EQ(s.Mean(), 0.0);
}

TEST(TimeWeightedStatsTest, PiecewiseConstantMean) {
  TimeWeightedStats s;
  s.Update(0.0, 0.0);   // start clock
  s.Update(2.0, 1.0);   // value 1 held over [0,2)
  s.Update(3.0, 4.0);   // value 4 held over [2,3)
  EXPECT_DOUBLE_EQ(s.Mean(), (1.0 * 2 + 4.0 * 1) / 3.0);
}

// ---------------------------------------------------------------- Table

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"policy", "rt"});
  t.AddRow({"No_Clustering", "1.23"});
  t.AddRow({"2_IO_limit", "0.45"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| policy"), std::string::npos);
  EXPECT_NE(out.find("| No_Clustering |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatRatio(2.0, 1), "2.0x");
}

// ---------------------------------------------------------------- JSON

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("line\nfeed\ttab\rret"),
            "line\\nfeed\\ttab\\rret");
  EXPECT_EQ(JsonEscape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  // Multi-byte UTF-8 passes through unchanged.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonWriterTest, NonFiniteDoublesRenderNull) {
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(INFINITY), "null");
  EXPECT_EQ(JsonNumber(-INFINITY), "null");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  JsonObjectWriter w;
  w.Add("bad", std::nan("")).Add("ok", 1.0);
  EXPECT_EQ(w.str(), "{\"bad\":null,\"ok\":1}");
}

TEST(JsonWriterTest, OptionalAndNull) {
  JsonObjectWriter w;
  w.Add("missing", std::optional<double>())
      .Add("present", std::optional<double>(2.5))
      .AddNull("explicit");
  EXPECT_EQ(w.str(),
            "{\"missing\":null,\"present\":2.5,\"explicit\":null}");
}

TEST(JsonWriterTest, EscapesKeysToo) {
  JsonObjectWriter w;
  w.Add("ke\"y", 1);
  EXPECT_EQ(w.str(), "{\"ke\\\"y\":1}");
}

TEST(JsonWriterTest, ArrayElementsAndTypes) {
  JsonArrayWriter a;
  EXPECT_TRUE(a.empty());
  a.Add(1.5).Add(uint64_t{7}).AddRaw("[2]");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.str(), "[1.5,7,[2]]");
}

TEST(JsonWriterTest, DeepNestingViaRaw) {
  // 64 levels of {"k": ...} nesting assembled inside-out with AddRaw.
  std::string inner = "{}";
  for (int depth = 0; depth < 64; ++depth) {
    JsonObjectWriter level;
    level.AddRaw("k", inner);
    inner = level.str();
  }
  size_t opens = 0;
  size_t closes = 0;
  for (char c : inner) {
    opens += (c == '{');
    closes += (c == '}');
  }
  EXPECT_EQ(opens, 65u);
  EXPECT_EQ(closes, 65u);
  EXPECT_EQ(inner.rfind("{\"k\":{\"k\":", 0), 0u);
}

TEST(JsonWriterTest, DeterministicDoubleRendering) {
  // %.17g round-trips: equal bits render to equal text.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(JsonNumber(v), JsonNumber(0.30000000000000004));
  EXPECT_NE(JsonNumber(v), JsonNumber(0.3));
}

// ------------------------------------------------- hot-path containers

TEST(RingQueueTest, FifoAcrossWrapAndGrowth) {
  RingQueue<int> q;
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so the head wraps before each growth.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) q.push_back(next_in++);
    for (int i = 0; i < 2; ++i) EXPECT_EQ(q.pop_front(), next_out++);
  }
  EXPECT_EQ(q.size(), 50u);
  for (size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q[i], next_out + static_cast<int>(i));
  }
  while (!q.empty()) EXPECT_EQ(q.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(RingQueueTest, EraseKeepsOrder) {
  RingQueue<int> q;
  for (int i = 0; i < 6; ++i) q.push_back(i);
  q.pop_front();
  q.pop_front();
  for (int i = 6; i < 10; ++i) q.push_back(i);  // wraps the 8-slot ring
  q.erase(3);                                   // drops 5
  std::vector<int> rest;
  while (!q.empty()) rest.push_back(q.pop_front());
  EXPECT_EQ(rest, (std::vector<int>{2, 3, 4, 6, 7, 8, 9}));
}

TEST(EpochSetTest, MatchesUnorderedSetThroughClearsAndGrowth) {
  EpochSet set;
  std::unordered_set<uint32_t> ref;
  Rng rng(5);
  for (int round = 0; round < 20; ++round) {
    set.Clear();
    ref.clear();
    const int n = 1 + static_cast<int>(rng.NextBelow(400));
    for (int i = 0; i < n; ++i) {
      const auto id = static_cast<uint32_t>(rng.NextBelow(600));
      EXPECT_EQ(set.Insert(id), ref.insert(id).second);
    }
    EXPECT_EQ(set.size(), ref.size());
    for (uint32_t id = 0; id < 600; ++id) {
      EXPECT_EQ(set.Contains(id), ref.count(id) == 1) << id;
    }
  }
}

TEST(SmallVectorTest, SpillsPastInlineCapacityAndErasesInOrder) {
  SmallVector<uint32_t, 4> v;
  std::vector<uint32_t> ref;
  EXPECT_TRUE(v.empty());
  // Grow past the inline entries, erase back below them, then drain the
  // spilled list to empty and refill it inline.
  for (uint32_t i = 0; i < 10; ++i) {
    v.push_back(i);
    ref.push_back(i);
  }
  EXPECT_EQ(std::vector<uint32_t>(v.begin(), v.end()), ref);
  for (const size_t at : {3, 0, 5, 1, 4, 0}) {
    v.erase(v.begin() + at);
    ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(at));
    EXPECT_EQ(std::vector<uint32_t>(v.begin(), v.end()), ref);
  }
  // A copy owns its entries.
  const SmallVector<uint32_t, 4> copy = v;
  while (!v.empty()) v.erase(v.end() - 1);
  EXPECT_EQ(std::vector<uint32_t>(copy.begin(), copy.end()), ref);
  for (uint32_t i = 20; i < 23; ++i) v.push_back(i);
  EXPECT_EQ(std::vector<uint32_t>(v.begin(), v.end()),
            (std::vector<uint32_t>{20, 21, 22}));
  v.erase(v.begin() + 1);
  EXPECT_EQ(std::vector<uint32_t>(v.begin(), v.end()),
            (std::vector<uint32_t>{20, 22}));
}

TEST(RecyclingMapTest, RecycledNodeKeepsCapacityUnderItsNewKey) {
  RecyclingMap<uint64_t, std::vector<int>> map;
  bool inserted = false;
  std::vector<int>& a = map.FindOrInsert(1, &inserted);
  EXPECT_TRUE(inserted);
  a.assign(100, 7);
  a.clear();  // callers empty an entry before recycling it
  map.Erase(1);
  EXPECT_EQ(map.Find(1), nullptr);
  std::vector<int>& b = map.FindOrInsert(2, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), 100u);  // the recycled value came along
  EXPECT_EQ(map.Find(2), &b);
  map.FindOrInsert(2, &inserted);
  EXPECT_FALSE(inserted);
  auto node = map.Take(2);
  EXPECT_FALSE(node.empty());
  EXPECT_EQ(map.Find(2), nullptr);
  EXPECT_TRUE(map.Take(3).empty());
  map.Recycle(std::move(node));
}

// --------------------------------------------------- recorded bounded draws

// True if `draw` falls in Lemire's rejection zone for bound n.
bool InRejectionZone(uint64_t draw, uint64_t n) {
  const auto low = static_cast<uint64_t>(static_cast<__uint128_t>(draw) * n);
  return low < n && low < -n % n;
}

TEST(BelowFromDrawTest, EqualsNextBelowOutsideTheRejectionZone) {
  Rng draws(11), reference(11), bounds(12);
  int checked = 0;
  for (int i = 0; i < 20000; ++i) {
    // Small bounds (page counts) and a few near 2^63, whose zone is wide.
    const uint64_t n = i % 10 == 0 ? (uint64_t{1} << 63) + bounds.NextBelow(99)
                                   : 1 + bounds.NextBelow(100000);
    const uint64_t draw = draws.NextU64();
    if (InRejectionZone(draw, n)) {
      // Where Lemire draws again, the reference advances further: resync.
      reference = draws;
      continue;
    }
    EXPECT_EQ(BelowFromDraw(draw, n), reference.NextBelow(n)) << i;
    ++checked;
  }
  EXPECT_GT(checked, 19000);
}

TEST(BelowFromDrawTest, RejectionZoneFallsBackToSplitMix64) {
  // n = 3: 2^64 mod 3 = 1, so only draw 0 (0 * 3 = 0 < 1) is rejected.
  ASSERT_TRUE(InRejectionZone(0, 3));
  EXPECT_EQ(BelowFromDraw(0, 3), SplitMix64(0).NextBelow(3));
  EXPECT_EQ(BelowFromDraw(0, 3), BelowFromDraw(0, 3));
  // n = 2^63 + 1: draw 2 gives low word 2, inside the zone of 2^63 - 1;
  // draw 1 gives low word n, outside it, and maps by the multiply alone.
  const uint64_t n = (uint64_t{1} << 63) + 1;
  ASSERT_TRUE(InRejectionZone(2, n));
  EXPECT_EQ(BelowFromDraw(2, n), SplitMix64(2).NextBelow(n));
  ASSERT_FALSE(InRejectionZone(1, n));
  EXPECT_EQ(BelowFromDraw(1, n), 0u);
}

}  // namespace
}  // namespace oodb
