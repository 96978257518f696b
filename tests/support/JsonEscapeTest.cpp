//===- tests/support/JsonEscapeTest.cpp -----------------------------------===//
//
// The one JSON string escaper, support::appendJsonEscaped, and every
// emitter built on it: a string holding a quote, a backslash, a carriage
// return and a raw control byte must come back unchanged through
// serve::parseJson from Diagnostics, Status, RunReport, the Chrome trace
// and serve::jsonField.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include "exec/Recovery.h"
#include "obs/Trace.h"
#include "serve/Json.h"
#include "support/Status.h"
#include "verify/Diagnostics.h"

#include <gtest/gtest.h>

#include <string>

using namespace lcdfg;

namespace {

const std::string Hostile = "q\" b\\ cr\r nl\n tab\t c1\x01 c1f\x1f end";

serve::JsonValue parsed(const std::string &Json) {
  auto V = serve::parseJson(Json);
  EXPECT_TRUE(static_cast<bool>(V)) << Json;
  return V ? *V : serve::JsonValue{};
}

} // namespace

TEST(JsonEscape, EscapesShortFormsAndControlBytes) {
  std::string Out = "prefix:";
  support::appendJsonEscaped(Out, "\"\\\n\r\t\x01\x1f" "a\x7f");
  EXPECT_EQ(Out, "prefix:\\\"\\\\\\n\\r\\t\\u0001\\u001fa\x7f");
}

TEST(JsonEscape, EveryEmitterRoundTripsThroughParseJson) {
  verify::Diagnostics Diags;
  verify::Diagnostic D;
  D.CheckId = Hostile;
  D.Message = Hostile;
  D.Array = Hostile;
  Diags.add(D);
  serve::JsonValue FromDiags = parsed(Diags.toJson());
  const serve::JsonValue *List = FromDiags.find("diagnostics");
  ASSERT_TRUE(List && List->isArray() && List->Items.size() == 1);
  EXPECT_EQ(List->Items[0].find("check")->asString(), Hostile);
  EXPECT_EQ(List->Items[0].find("message")->asString(), Hostile);
  EXPECT_EQ(List->Items[0].find("array")->asString(), Hostile);

  support::Status S = support::Status::error(support::ErrorCode::Internal,
                                             Hostile)
                          .withSubcode(Hostile)
                          .withContext(Hostile);
  serve::JsonValue FromStatus = parsed(S.toJson());
  EXPECT_EQ(FromStatus.find("message")->asString(), Hostile);
  EXPECT_EQ(FromStatus.find("subcode")->asString(), Hostile);
  ASSERT_EQ(FromStatus.find("context")->Items.size(), 1u);
  EXPECT_EQ(FromStatus.find("context")->Items[0].asString(), Hostile);

  exec::RunReport R;
  R.FinalRung = Hostile;
  R.Descents.push_back({Hostile, Hostile, Hostile});
  R.Error = S;
  serve::JsonValue FromReport = parsed(R.toJson());
  EXPECT_EQ(FromReport.find("final_rung")->asString(), Hostile);
  const serve::JsonValue &Descent = FromReport.find("descents")->Items.at(0);
  EXPECT_EQ(Descent.find("rung")->asString(), Hostile);
  EXPECT_EQ(Descent.find("reason")->asString(), Hostile);
  EXPECT_EQ(Descent.find("detail")->asString(), Hostile);
  EXPECT_EQ(FromReport.find("error")->find("message")->asString(), Hostile);

  obs::Trace T;
  T.Labels.push_back(Hostile);
  obs::TraceSpan Marker;
  Marker.Kind = obs::SpanKind::Marker;
  Marker.Label = 0;
  T.Spans.push_back(Marker);
  serve::JsonValue FromTrace = parsed(T.toChromeJson());
  const serve::JsonValue *Events = FromTrace.find("traceEvents");
  ASSERT_TRUE(Events && Events->Items.size() == 1);
  EXPECT_EQ(Events->Items[0].find("name")->asString(), Hostile);

  serve::JsonValue FromField =
      parsed("{" + serve::jsonField(Hostile, std::string_view(Hostile)) + "}");
  EXPECT_EQ(FromField.find(Hostile)->asString(), Hostile);
}
