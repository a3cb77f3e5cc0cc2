#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "access/graph_access.h"
#include "attr/grouping.h"
#include "core/walker_factory.h"
#include "estimate/walk_runner.h"
#include "graph/generators.h"
#include "util/random.h"

// The walker side of the step scheduler's contract (core::Walker::Step):
// a step's one neighbor query comes first and has no side effects, so a
// step whose query PARKS can be unwound and re-run bit-identically. Every
// walker type is driven over an access that parks the first Neighbors call
// of every step and serves it on the retry; the traces must equal an
// unparked run's, step for step.

namespace histwalk::core {
namespace {

// Parks every first Neighbors call and serves the retry for the same node
// from the wrapped access; everything else passes straight through.
class ParkingAccess final : public access::NodeAccess {
 public:
  explicit ParkingAccess(access::NodeAccess* inner) : inner_(inner) {}

  util::Result<std::span<const graph::NodeId>> Neighbors(
      graph::NodeId v) override {
    if (parked_on_ == graph::kInvalidNode) {
      parked_on_ = v;
      ++parks_;
      return util::Status::Parked();
    }
    // The retry must ask for the very node the parked step asked for.
    EXPECT_EQ(v, parked_on_);
    parked_on_ = graph::kInvalidNode;
    return inner_->Neighbors(v);
  }
  util::Result<double> Attribute(graph::NodeId v,
                                 attr::AttrId attr) const override {
    return inner_->Attribute(v, attr);
  }
  util::Result<uint32_t> SummaryDegree(graph::NodeId v) const override {
    return inner_->SummaryDegree(v);
  }
  uint64_t num_nodes() const override { return inner_->num_nodes(); }
  const access::QueryStats& stats() const override { return inner_->stats(); }
  uint64_t remaining_budget() const override {
    return inner_->remaining_budget();
  }
  void ResetAccounting() override { inner_->ResetAccounting(); }

  uint64_t parks() const { return parks_; }

 private:
  access::NodeAccess* inner_;
  graph::NodeId parked_on_ = graph::kInvalidNode;
  uint64_t parks_ = 0;
};

class WalkerParkingTest : public testing::TestWithParam<WalkerType> {};

TEST_P(WalkerParkingTest, ParkedStepsReplayTheUnparkedTrace) {
  util::Random rng(77);
  const graph::Graph graph = graph::MakeWattsStrogatz(200, 6, 0.2, rng);
  const std::unique_ptr<attr::Grouping> grouping = attr::MakeMd5Grouping(3);
  WalkerSpec spec{.type = GetParam(), .grouping = grouping.get()};
  constexpr uint64_t kSteps = 3000;
  constexpr graph::NodeId kStart = 5;

  access::GraphAccess plain_access(&graph, nullptr);
  auto plain = MakeWalker(spec, &plain_access, /*seed=*/9);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE((*plain)->Reset(kStart).ok());
  estimate::TracedWalk expected =
      estimate::TraceWalk(**plain, {.max_steps = kSteps});

  access::GraphAccess inner(&graph, nullptr);
  ParkingAccess parking(&inner);
  auto parked = MakeWalker(spec, &parking, /*seed=*/9);
  ASSERT_TRUE(parked.ok()) << parked.status();
  ASSERT_TRUE((*parked)->Reset(kStart).ok());
  // Drive the resumable form directly: every step parks once, and a parked
  // step reports nothing taken.
  estimate::WalkTrace walk(**parked, {.max_steps = kSteps});
  uint64_t parked_steps = 0;
  while (!walk.Done()) {
    const graph::NodeId before = (*parked)->current();
    if (!walk.TakeStep()) {
      ++parked_steps;
      EXPECT_EQ((*parked)->current(), before) << "a parked step moved";
      ASSERT_TRUE(walk.TakeStep()) << "the retry parked again";
    }
  }
  estimate::TracedWalk actual = std::move(walk).Take();

  EXPECT_EQ(parked_steps, kSteps);
  EXPECT_EQ(parking.parks(), kSteps);
  EXPECT_TRUE(actual.final_status.ok()) << actual.final_status;
  EXPECT_EQ(actual.nodes, expected.nodes);
  EXPECT_EQ(actual.degrees, expected.degrees);
  EXPECT_EQ(actual.unique_queries, expected.unique_queries);
  EXPECT_EQ((*parked)->HistoryBytes(), (*plain)->HistoryBytes());
}

INSTANTIATE_TEST_SUITE_P(
    EveryWalker, WalkerParkingTest,
    testing::Values(WalkerType::kSrw, WalkerType::kMhrw, WalkerType::kNbSrw,
                    WalkerType::kCnrw, WalkerType::kCnrwNode,
                    WalkerType::kNbCnrw, WalkerType::kGnrw),
    [](const testing::TestParamInfo<WalkerType>& info) {
      // gtest names allow only alphanumerics: "NB-CNRW" -> "NBCNRW".
      std::string name;
      for (char c : WalkerTypeName(info.param)) {
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      }
      return name;
    });

}  // namespace
}  // namespace histwalk::core
