#include "util/json.h"

#include <string>

#include <gtest/gtest.h>

namespace cpa {
namespace {

std::string Nested(std::size_t depth, char open, char close,
                   const std::string& leaf) {
  return std::string(depth, open) + leaf + std::string(depth, close);
}

TEST(JsonTest, RoundTripsCompactDocuments) {
  const std::string text = R"({"a":[1,2.5,"x",true,null],"b":{"c":[]}})";
  const auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().DumpCompact(), text);
}

TEST(JsonTest, AcceptsNestingUpToTheDepthLimit) {
  const auto arrays =
      JsonValue::Parse(Nested(JsonValue::kMaxDepth, '[', ']', "1"));
  ASSERT_TRUE(arrays.ok()) << arrays.status().ToString();
  const JsonValue* innermost = &arrays.value();
  for (std::size_t level = 0; level < JsonValue::kMaxDepth; ++level) {
    ASSERT_EQ(innermost->kind(), JsonValue::Kind::kArray);
    ASSERT_EQ(innermost->array().size(), 1u);
    innermost = &innermost->array()[0];
  }
  EXPECT_EQ(innermost->number_value(), 1.0);

  std::string objects;
  for (std::size_t level = 0; level < JsonValue::kMaxDepth; ++level) {
    objects += R"({"k":)";
  }
  objects += "0" + std::string(JsonValue::kMaxDepth, '}');
  EXPECT_TRUE(JsonValue::Parse(objects).ok());
}

TEST(JsonTest, RejectsNestingBeyondTheDepthLimit) {
  // The leaf container is level kMaxDepth + 1.
  for (const char* leaf : {"[]", "{}"}) {
    const auto parsed =
        JsonValue::Parse(Nested(JsonValue::kMaxDepth, '[', ']', leaf));
    ASSERT_FALSE(parsed.ok()) << leaf;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  // Mixed containers count the same way.
  std::string mixed;
  for (std::size_t level = 0; level <= JsonValue::kMaxDepth; ++level) {
    mixed += level % 2 == 0 ? "[" : R"({"k":)";
  }
  EXPECT_EQ(JsonValue::Parse(mixed).status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonTest, DeepUnterminatedInputIsAnErrorNotACrash) {
  // 400 KB of '[' — far under the server's 16 MiB frame cap — used to
  // recurse once per byte and overflow the stack.
  const auto parsed = JsonValue::Parse(std::string(400 * 1024, '['));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("depth"), std::string::npos)
      << parsed.status().ToString();
}

TEST(JsonTest, DepthIsPerPathNotCumulative) {
  // Many sibling containers at a shallow depth are fine.
  std::string siblings = "[";
  for (std::size_t k = 0; k < 4 * JsonValue::kMaxDepth; ++k) {
    siblings += k == 0 ? "[[]]" : ",[[]]";
  }
  siblings += "]";
  const auto parsed = JsonValue::Parse(siblings);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().array().size(), 4 * JsonValue::kMaxDepth);
}

}  // namespace
}  // namespace cpa
