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
    auto built = cli::build_input_graph(*opts);
    if (!built.is_ok()) {
        std::cerr << "cannot build input graph: "
                  << built.status().to_string() << "\n";
        return cli::kExitInvalidInput;
    }
    const graph::CSRGraph g = *std::move(built);

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
