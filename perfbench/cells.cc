/**
 * @file
 * The cells phase: one pass over every cell of Tables IV/V under the
 * workload's rule set (6 frameworks x 6 kernels x the 5 GAP graphs)
 * through harness::run_cell, once under a one-lane lease and once under
 * an all-lanes lease, alternating which width goes first.  Each run_cell
 * runs one untimed warm-up trial, then one timed trial that it verifies.
 */
#include <array>
#include <cstdio>

#include "gm/harness/runner.hh"
#include "gm/par/thread_pool.hh"
#include "perfbench.hh"

namespace perfbench
{
namespace
{

using gm::harness::Dataset;
using gm::harness::Framework;
using gm::harness::Kernel;

/** Look up the store forms @p kernel reads (the runner's warm set), each
 *  under its own span.  Setup already built them; this times the getter. */
void
touch_forms(const Dataset& ds, Kernel kernel, gm::harness::Mode mode)
{
    const gm::store::GraphStore& store = *ds.store();
    switch (kernel) {
      case Kernel::kSSSP: {
          {
              trace::Scope span("store.weighted");
              store.weighted();
          }
          trace::Scope span("store.grb_weighted");
          store.grb_weighted();
          break;
      }
      case Kernel::kTC: {
          trace::Scope span("store.undirected");
          store.undirected();
          if (mode == gm::harness::Mode::kOptimized)
              store.relabeled();
          break;
      }
      default: {
          trace::Scope span("store.grb");
          store.grb();
          break;
      }
    }
}

} // namespace

void
run_cells(Context& ctx)
{
    const int widths[2] = {1, ctx.cfg.lanes};
    gm::harness::RunOptions opts;
    opts.trials = 1;
    opts.warmup = 1;
    opts.verify = true;
    opts.verify_first_trial_only = true;
    opts.collect_metrics = false;
    opts.max_attempts = 1;
    opts.trial_timeout_ms = 0; // inline on this thread, under its lease

    const auto& suite = ctx.suite;
    const auto& fws = ctx.frameworks;
    const std::size_t kernels = std::size(gm::harness::kAllKernels);
    // Timed trial seconds per cell and width ([0] one lane, [1] all
    // lanes); 0 when the cell failed.
    std::vector<std::array<double, 2>> cells(suite.size() * fws.size() *
                                             kernels);
    auto noop = [](int) {};

    const double start = now_s();
    double check_s = 0;
    std::uint64_t short_leases = 0;
    std::size_t index = 0;
    for (std::size_t g = 0; g < suite.size(); ++g) {
        const Dataset& ds = suite[g];
        for (const Framework& fw : fws) {
            for (Kernel kernel : gm::harness::kAllKernels) {
                const std::size_t first = index % 2;
                auto& cell = cells[index++];
                for (std::size_t k = 0; k < 2; ++k) {
                    const std::size_t w = (first + k) % 2;
                    gm::par::LaneLease lease(widths[w]);
                    if (lease.width() != widths[w])
                        ++short_leases;
                    trace::Scope span("cells.cell");
                    touch_forms(ds, kernel, ctx.cfg.workload.mode);
                    {
                        trace::Scope fork("par.fork");
                        gm::par::ThreadPool::instance().run(noop);
                    }
                    const double t0 = now_s();
                    gm::harness::CellResult r;
                    {
                        trace::Scope run("harness.run_cell");
                        r = gm::harness::run_cell(ds, fw, kernel,
                                                  ctx.cfg.workload.mode, opts);
                    }
                    const double timed =
                        r.trial_seconds.empty() ? 0 : r.trial_seconds[0];
                    check_s += now_s() - t0 - timed;
                    const bool ok = r.completed() && r.verified;
                    ctx.tally.op(ok);
                    ctx.tally.check(r.verified);
                    if (!ok) {
                        std::fprintf(stderr,
                                     "cells: %s/%s/%s width %d failed: %s\n",
                                     fw.name.c_str(),
                                     gm::harness::to_string(kernel).c_str(),
                                     ds.name.c_str(), widths[w],
                                     r.failure_message.c_str());
                        continue;
                    }
                    cell[w] = timed;
                }
            }
        }
    }
    if (short_leases > 0)
        std::printf("cells: %llu leases granted fewer lanes than asked\n",
                    static_cast<unsigned long long>(short_leases));
    std::printf("cells: %zu cells x 2 widths in %.1f s\n", cells.size(),
                now_s() - start);

    // A cell that failed is left out of the means (it already counts as
    // failed).
    auto cell_ms = [&](std::size_t i, int w) { return cells[i][w] * 1e3; };
    std::vector<double> all[2];
    std::vector<std::vector<double>> by_graph[2];
    by_graph[0].resize(suite.size());
    by_graph[1].resize(suite.size());
    std::vector<std::vector<double>> by_fw_kernel(fws.size() * kernels);
    for (std::size_t g = 0, i = 0; g < suite.size(); ++g) {
        for (std::size_t f = 0; f < fws.size(); ++f) {
            for (std::size_t k = 0; k < kernels; ++k, ++i) {
                for (int w = 0; w < 2; ++w) {
                    if (cells[i][w] <= 0)
                        continue;
                    all[w].push_back(cell_ms(i, w));
                    by_graph[w][g].push_back(cell_ms(i, w));
                    if (w == 1)
                        by_fw_kernel[f * kernels + k].push_back(
                            cell_ms(i, w));
                }
            }
        }
    }
    ctx.e2e.add("cell_geomean_ms", geomean(all[1]), "ms");
    ctx.e2e.add("cell_geomean_w1_ms", geomean(all[0]), "ms");

    for (std::size_t f = 0; f < fws.size(); ++f) {
        for (std::size_t k = 0; k < kernels; ++k) {
            ctx.layer.add("kernel." + fws[f].name + "." +
                              gm::harness::to_string(
                                  gm::harness::kAllKernels[k]) +
                              "_ms",
                          geomean(by_fw_kernel[f * kernels + k]), "ms");
        }
    }
    for (std::size_t g = 0; g < suite.size(); ++g) {
        ctx.layer.add("kernel." + suite[g].name + "_ms",
                      geomean(by_graph[1][g]), "ms");
        ctx.layer.add("kernel." + suite[g].name + "_w1_ms",
                      geomean(by_graph[0][g]), "ms");
    }
    ctx.layer.add("harness.check_s", check_s, "s");
}

} // namespace perfbench
