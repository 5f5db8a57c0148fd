/**
 * gtest main for test binaries that call kernels directly.  The tests run
 * on the main thread under one LaneLease of every pool lane, as a suite
 * trial's kernel does, so they exercise the multi-lane paths; without it
 * every parallel primitive would run serially.  Threads a test starts
 * hold no lease and run serially.
 */
#include <gtest/gtest.h>

#include "gm/par/parallel_for.hh"

int
main(int argc, char** argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    gm::par::LaneLease lease(gm::par::num_threads());
    return RUN_ALL_TESTS();
}
