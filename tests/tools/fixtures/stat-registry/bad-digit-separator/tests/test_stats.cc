#include "trace/trace.h"

TEST(Stats, TypoAfterDigitSeparator)
{
    // The quote in 100'000 separates digits. A scanner that takes it
    // for a char literal swallows the rest of the file and never sees
    // "smartdim", a typo for "smartdimm".
    constexpr int kOps = 100'000;
    EXPECT_TRUE(json.contains("smartdim.ch0.d0"));
    (void)kOps;
}
