#include "fsm/kiss_io.hpp"

#include <gtest/gtest.h>

namespace cl::fsm {
namespace {

TEST(KissIo, WritesTheDetectorStg) {
  // The paper's 1001 detector (Fig. 1), one row per transition in state
  // order, as examples/lock_fsm_beh prints it.
  EXPECT_EQ(write_kiss_string(make_1001_detector()),
            ".i 1\n.o 1\n.p 8\n.s 4\n.r S0\n"
            "0 S0 S0 0\n1 S0 S1 0\n"
            "0 S1 S10 0\n1 S1 S1 0\n"
            "0 S10 S100 0\n1 S10 S1 0\n"
            "0 S100 S0 0\n1 S100 S1 1\n"
            ".e\n");
}

}  // namespace
}  // namespace cl::fsm
