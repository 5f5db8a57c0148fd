/**
 * @file
 * Graph format converter, mirroring the GAPBS converter tool: generate or
 * load a graph and write it out as a text edge list or fast binary file.
 *
 *   ./converter -g 16 -o kron16.gmg          # binary
 *   ./converter -f graph.el -s -o out.el     # symmetrized text
 */
#include <iostream>
#include <string>

#include "gm/cli/driver.hh"
#include "gm/cli/options.hh"
#include "gm/graph/builder.hh"
#include "gm/graph/generators.hh"
#include "gm/graph/io.hh"
#include "gm/graph/stats.hh"
#include "gm/par/parallel_for.hh"

int
main(int argc, char** argv)
{
    using namespace gm;

    // Reuse the kernel-driver option grammar plus a -o output flag.
    std::string out_path;
    std::vector<char*> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "-o" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    const auto opts = cli::parse_options(
        static_cast<int>(passthrough.size()), passthrough.data(),
        "converter");
    if (!opts.has_value())
        return 1;
    if (out_path.empty()) {
        std::cerr << "converter requires -o <output path>\n";
        return 1;
    }

    par::LaneLease lease(par::num_threads());
    graph::CSRGraph g;
    switch (opts->source) {
      case cli::GraphSource::kKronecker:
        g = graph::make_kronecker(opts->scale, opts->degree, opts->seed);
        break;
      case cli::GraphSource::kUniform:
        g = graph::make_uniform(opts->scale, opts->degree, opts->seed);
        break;
      case cli::GraphSource::kTwitterLike:
        g = graph::make_twitter_like(opts->scale, opts->degree, opts->seed);
        break;
      case cli::GraphSource::kWebLike:
        g = graph::make_web_like(opts->scale, opts->degree, opts->seed);
        break;
      case cli::GraphSource::kRoadLike: {
          const vid_t side = static_cast<vid_t>(1)
                             << ((opts->scale + 1) / 2);
          g = graph::make_road_like(
              side,
              std::max<vid_t>((static_cast<vid_t>(1) << opts->scale) / side,
                              1),
              opts->seed);
          break;
      }
      case cli::GraphSource::kFile: {
          if (opts->file_path.size() >= 4 &&
              opts->file_path.substr(opts->file_path.size() - 4) ==
                  ".gmg") {
              auto loaded = graph::load_binary(opts->file_path);
              if (!loaded.is_ok()) {
                  std::cerr << "cannot load input: "
                            << loaded.status().to_string() << "\n";
                  return cli::kExitInvalidInput;
              }
              g = *std::move(loaded);
              break;
          }
          vid_t n = 0;
          auto edges = graph::read_edge_list(opts->file_path, &n);
          if (!edges.is_ok()) {
              std::cerr << "cannot read input: "
                        << edges.status().to_string() << "\n";
              return cli::kExitInvalidInput;
          }
          g = graph::build_graph(*std::move(edges), n, !opts->symmetrize);
          break;
      }
    }

    std::cout << "graph: " << g.num_vertices() << " vertices, "
              << g.num_edges_directed() << " directed edges, "
              << graph::to_string(graph::classify_degree_distribution(g))
              << " degree distribution\n";

    gm::support::Status written;
    const char* what;
    if (out_path.size() > 3 &&
        out_path.substr(out_path.size() - 3) == ".el") {
        written = graph::write_edge_list(g, out_path);
        what = "text edge list";
    } else {
        written = graph::save_binary(g, out_path);
        what = "binary graph";
    }
    if (!written.is_ok()) {
        std::cerr << "cannot write output: " << written.to_string() << "\n";
        return cli::kExitInvalidInput;
    }
    std::cout << "wrote " << what << " to " << out_path << "\n";
    return cli::kExitOk;
}
