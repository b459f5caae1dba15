// The one JSON writer (common/json.hpp) and the artifacts built on it.
// CI and the smoke scripts match artifact layout byte for byte, so the
// writer's layout rules are pinned here, and campaign_json and
// fuzz_report_json are pinned whole against goldens captured from the
// hand-rolled emitters they replaced.

#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <utility>

#include "chain/fault.hpp"
#include "common/json.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/selftest.hpp"
#include "sim/campaign.hpp"

namespace xchain {
namespace {

using Layout = JsonWriter::Layout;

TEST(JsonWriter, EscapesNamedAndControlCharacters) {
  JsonWriter w;
  w.begin_array("strings", Layout::kOneLine)
      .item("a\"b\\c")
      .item("line\nnext\ttab")
      .item(std::string("\x01\x1f\r\0", 4))
      .item(" ~\x7f\xc3\xa9")  // bytes from 0x20 up, UTF-8 included
      .end();
  EXPECT_EQ(w.finish(),
            "{\n"
            "  \"strings\": [\"a\\\"b\\\\c\", \"line\\nnext\\ttab\", "
            "\"\\u0001\\u001f\\u000d\\u0000\", \" ~\x7f\xc3\xa9\"]\n"
            "}\n");
}

TEST(JsonWriter, EmptyDocumentAndContainers) {
  EXPECT_EQ(JsonWriter().finish(), "{}\n");
  JsonWriter w;
  w.begin_array("lines").end();
  w.begin_array("inline", Layout::kOneLine).end();
  w.begin_object("object").end();
  EXPECT_EQ(w.finish(),
            "{\n"
            "  \"lines\": [],\n"
            "  \"inline\": [],\n"
            "  \"object\": {}\n"
            "}\n");
}

TEST(JsonWriter, ScalarsAndEscapedKeysAndValues) {
  JsonWriter w;
  w.field("text", "say \"hi\"\n")
      .field("count", std::size_t{18446744073709551615u})
      .field("negative", -7)
      .field("yes", true)
      .field("no", false)
      .field("k\"ey", "v");
  EXPECT_EQ(w.finish(),
            "{\n"
            "  \"text\": \"say \\\"hi\\\"\\n\",\n"
            "  \"count\": 18446744073709551615,\n"
            "  \"negative\": -7,\n"
            "  \"yes\": true,\n"
            "  \"no\": false,\n"
            "  \"k\\\"ey\": \"v\"\n"
            "}\n");
}

TEST(JsonWriter, FixedPrecisionDoubles) {
  JsonWriter w;
  w.field("one", 0.26, 1)
      .field("two", 2.0 / 3.0, 2)
      .field("three", 1234.5, 3)
      .field("six", 1e-7, 6)
      .field("zero", 7.0, 0);
  EXPECT_EQ(w.finish(),
            "{\n"
            "  \"one\": 0.3,\n"
            "  \"two\": 0.67,\n"
            "  \"three\": 1234.500,\n"
            "  \"six\": 0.000000,\n"
            "  \"zero\": 7\n"
            "}\n");
}

// The fuzz report's shape: multi-line containers nested in multi-line
// ones, each level two spaces deeper, empty ones closed in place.
TEST(JsonWriter, MultiLineNestedInMultiLine) {
  JsonWriter w;
  w.begin_array("targets");
  w.begin_object().field("name", "a").begin_array("rows");
  w.begin_object().field("x", 1).field("y", 2).end();
  w.begin_object().field("x", 3).end();
  w.end().end();
  w.begin_object().field("name", "b").begin_array("rows").end().end();
  w.end();
  EXPECT_EQ(w.finish(),
            "{\n"
            "  \"targets\": [\n"
            "    {\n"
            "      \"name\": \"a\",\n"
            "      \"rows\": [\n"
            "        {\n"
            "          \"x\": 1,\n"
            "          \"y\": 2\n"
            "        },\n"
            "        {\n"
            "          \"x\": 3\n"
            "        }\n"
            "      ]\n"
            "    },\n"
            "    {\n"
            "      \"name\": \"b\",\n"
            "      \"rows\": []\n"
            "    }\n"
            "  ]\n"
            "}\n");
}

// The campaign config rows and load rows: one line per element, with
// single-line containers nested inside.
TEST(JsonWriter, OneLineNestedInMultiLine) {
  JsonWriter w;
  w.begin_array("items", Layout::kOneLine).item("a").item("b\tc").end();
  w.begin_array("rows");
  w.begin_object(Layout::kOneLine)
      .field("name", "p")
      .begin_object("latency", Layout::kOneLine)
      .field("p50", 3)
      .field("mean", 3.25, 3)
      .end()
      .begin_array("details", Layout::kOneLine)
      .item("x")
      .end()
      .end();
  w.begin_object(Layout::kOneLine).field("name", "q").end();
  w.end();
  w.begin_array("mix", Layout::kOneLine);
  w.begin_object(Layout::kOneLine).field("w", 1).end();
  w.begin_object(Layout::kOneLine).field("w", 2).end();
  w.end();
  EXPECT_EQ(w.finish(),
            "{\n"
            "  \"items\": [\"a\", \"b\\tc\"],\n"
            "  \"rows\": [\n"
            "    {\"name\": \"p\", \"latency\": {\"p50\": 3, \"mean\": "
            "3.250}, \"details\": [\"x\"]},\n"
            "    {\"name\": \"q\"}\n"
            "  ],\n"
            "  \"mix\": [{\"w\": 1}, {\"w\": 2}]\n"
            "}\n");
}

TEST(BuildStamp, WritesTheFourProvenanceFields) {
  JsonWriter w;
  BuildStamp{"abc", "Debug", "cc-1"}.write(w);
  const std::string json = w.finish();
  EXPECT_EQ(json.rfind("{\n"
                       "  \"git_commit\": \"abc\",\n"
                       "  \"build_type\": \"Debug\",\n"
                       "  \"compiler\": \"cc-1\",\n"
                       "  \"hardware_threads\": ",
                       0),
            0u)
      << json;
  EXPECT_FALSE(build_stamp().git_commit.empty());
  EXPECT_FALSE(build_stamp().build_type.empty());
  EXPECT_FALSE(build_stamp().compiler.empty());
}

/// The host-dependent field, masked so goldens hold on any machine.
std::string mask_hardware_threads(const std::string& json) {
  return std::regex_replace(json, std::regex("\"hardware_threads\": [0-9]+"),
                            "\"hardware_threads\": N");
}

const BuildStamp kStamp{"c0ffee", "Release", "test-cc"};

// A campaign carrying every optional key: the fault environment, a grid
// truncation notice and per-config violation details.
TEST(ArtifactGolden, CampaignJson) {
  sim::CampaignSpec spec;
  sim::CampaignEntry entry;
  entry.protocol = "two-party";
  entry.grid.add_axis_csv("premium_a", "1,2,3");
  spec.entries.push_back(std::move(entry));
  spec.max_configs_per_entry = 2;
  spec.sweep.max_deviators = 0;
  spec.sweep.threads = 1;
  spec.environment = {
      chain::FaultPlan::parse("banana:squeeze@4-10,cap=1,spam=2,fee=3"),
      chain::ResiliencePolicy::parse("naive")};
  const sim::CampaignReport report = sim::Campaign(spec).run();
  EXPECT_EQ(mask_hardware_threads(sim::campaign_json(report, kStamp)),
            R"json({
  "benchmark": "campaign",
  "git_commit": "c0ffee",
  "build_type": "Release",
  "compiler": "test-cc",
  "hardware_threads": N,
  "strategies": "halt-only",
  "faults": "banana:squeeze@4-10,cap=1,spam=2,fee=3",
  "resilience": "naive",
  "fault_caused": 4,
  "workers": 1,
  "configurations": 2,
  "schedules_run": 2,
  "conforming_audited": 4,
  "nodes_executed": 2,
  "schedules_covered": 2,
  "dedup_hits": 0,
  "violations": 4,
  "truncations": [
    "two-party: grid truncated: 3 points exceed the cap, only the first 2 expanded"
  ],
  "configs": [
    {"protocol": "two-party", "params": "premium_a=1", "adapter": "hedged-two-party", "schedules": 1, "conforming_audited": 2, "violations": 2, "fault_caused": 2, "violation_details": ["hedged-two-party[conform,conform]: alice ended at -1 coins, floor 1 (lost more than earned premiums) [chain-fault]", "hedged-two-party[conform,conform]: <all> ended at 0 coins, floor 0 (all-conforming run did not complete) [chain-fault]"]},
    {"protocol": "two-party", "params": "premium_a=2", "adapter": "hedged-two-party", "schedules": 1, "conforming_audited": 2, "violations": 2, "fault_caused": 2, "violation_details": ["hedged-two-party[conform,conform]: alice ended at -2 coins, floor 1 (lost more than earned premiums) [chain-fault]", "hedged-two-party[conform,conform]: <all> ended at 0 coins, floor 0 (all-conforming run did not complete) [chain-fault]"]}
  ]
}
)json");
}

// The planted-bug target, which shrinks to one reproducer whose input
// text carries newlines.
TEST(ArtifactGolden, FuzzReportJson) {
  fuzz::FuzzOptions opts;
  opts.seed = 7;
  opts.budget_runs = 400;
  fuzz::FuzzReport report;
  report.seed = opts.seed;
  report.budget_runs = opts.budget_runs;
  report.targets.push_back(fuzz::fuzz_target(fuzz::selftest_target(), opts));
  EXPECT_EQ(mask_hardware_threads(fuzz::fuzz_report_json(report, kStamp)),
            R"json({
  "benchmark": "fuzz",
  "git_commit": "c0ffee",
  "build_type": "Release",
  "compiler": "test-cc",
  "hardware_threads": N,
  "seed": 7,
  "budget_runs": 400,
  "replay_only": false,
  "runs": 400,
  "violating_runs": 20,
  "reproducers": 1,
  "targets": [
    {
      "protocol": "fuzz-selftest-trap",
      "runs": 400,
      "corpus_entries": 128,
      "unique_signatures": 128,
      "violating_runs": 20,
      "skipped_inputs": 0,
      "instances": 41,
      "reproducers": [
        {
          "input": "protocol fuzz-selftest-trap\nplan 1 x0\nplan 2 halt@1\n",
          "violation": "fuzz-selftest-trap[conform,x0,halt@1]: victim ended at -5 coins, floor 0 (lost more than earned premiums)",
          "found_at_run": 9,
          "shrink_steps": 2,
          "shrink_probes": 12
        }
      ]
    }
  ]
}
)json");
}

}  // namespace
}  // namespace xchain
