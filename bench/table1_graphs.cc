/**
 * @file
 * Regenerates Table I: properties of the five evaluation graphs.
 *
 * Scale via GM_SCALE (log2 vertex count, default 15); threads via
 * GM_THREADS.
 */
#include <iostream>

#include "gm/harness/dataset.hh"
#include "gm/harness/tables.hh"
#include "gm/support/env.hh"
#include "gm/support/timer.hh"

int
main()
{
    using namespace gm;
    const int scale = static_cast<int>(env_int("GM_SCALE", 15));
    Timer timer;
    timer.start();
    const harness::DatasetSuite suite = harness::make_gap_suite(scale);
    timer.stop();
    harness::print_table1(std::cout, suite);
    std::cout << "(scale 2^" << scale << ", suite built in "
              << timer.seconds() << " s)\n";
    return 0;
}
